#include "obs/attribution.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

namespace chk::obs {

namespace {

/// Exact per-rank accumulators in nanoseconds, indexed like kBuckets;
/// converted to seconds once.
struct NsBuckets {
  std::int64_t window = 0;
  std::array<std::int64_t, kBuckets.size()> ns{};
};

/// kBuckets index of `field`, resolved at compile time.
consteval std::size_t slot(double RankBuckets::*field) {
  std::size_t i = 0;
  while (kBuckets[i].field != field) ++i;
  return i;
}

constexpr double to_s(std::int64_t ns) noexcept { return static_cast<double>(ns) * 1e-9; }

}  // namespace

double RankBuckets::bucket_sum_s() const noexcept {
  double sum = 0;
  for (const Bucket& b : kBuckets) sum += this->*b.field;
  return sum;
}

double RankBuckets::total_s() const noexcept {
  double sum = blocked_total_s;
  for (const Bucket& b : kBuckets) {
    if (!b.in_window) sum += this->*b.field;
  }
  return sum;
}

AttributionReport attribute(const Trace& trace, std::size_t num_ranks) {
  std::vector<NsBuckets> acc(num_ranks);
  // `arg == 1` on stable/log writes marks the application-blocking context
  // (set by the protocols through the checkpoint store); background writer
  // and daemon writes carry arg == 0 and stay out of the blocked windows.
  for (const Event& e : trace.events) {
    if (e.rank >= num_ranks) continue;
    NsBuckets& b = acc[e.rank];
    switch (e.kind) {
      case EventKind::kCkptWindow:
        b.window += e.dur_ns;
        break;
      case EventKind::kMemCopy:
        b.ns[slot(&RankBuckets::mem_copy_s)] += e.dur_ns;
        break;
      case EventKind::kStableWrite:
        if (e.arg == 1) {
          const auto pure = std::min<std::int64_t>(static_cast<std::int64_t>(e.aux), e.dur_ns);
          b.ns[slot(&RankBuckets::stable_write_s)] += pure;
          b.ns[slot(&RankBuckets::storage_contention_s)] += e.dur_ns - pure;
        }
        break;
      case EventKind::kLogWrite:
        if (e.arg == 1) b.ns[slot(&RankBuckets::logging_s)] += e.dur_ns;
        break;
      case EventKind::kFrozenStall:
        b.ns[slot(&RankBuckets::frozen_stall_s)] += e.dur_ns;
        break;
      case EventKind::kRecoveryRead:
        b.ns[slot(&RankBuckets::recovery_s)] += e.dur_ns;
        break;
      case EventKind::kRetransmitWait:
        b.ns[slot(&RankBuckets::retransmit_wait_s)] += e.dur_ns;
        break;
      case EventKind::kStorageRetryWait:
        if (e.arg == 1) b.ns[slot(&RankBuckets::storage_retry_wait_s)] += e.dur_ns;
        break;
      case EventKind::kSvcQueueWait:
        b.ns[slot(&RankBuckets::svc_queue_wait_s)] += e.dur_ns;
        break;
      case EventKind::kMembershipWait:
        b.ns[slot(&RankBuckets::membership_wait_s)] += e.dur_ns;
        break;
      case EventKind::kInterference:
        b.ns[slot(&RankBuckets::interference_s)] += static_cast<std::int64_t>(e.aux);
        break;
      default:
        break;
    }
  }

  AttributionReport report;
  report.ranks.resize(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    NsBuckets& b = acc[r];
    RankBuckets& out = report.ranks[r];
    // The window remainder is protocol synchronization: token/grant waits
    // and any in-window time not spent copying or writing.
    std::int64_t accounted = 0;
    for (std::size_t i = 0; i < kBuckets.size(); ++i) {
      if (kBuckets[i].in_window) accounted += b.ns[i];
    }
    b.ns[slot(&RankBuckets::sync_wait_s)] = std::max<std::int64_t>(0, b.window - accounted);
    for (std::size_t i = 0; i < kBuckets.size(); ++i) {
      out.*kBuckets[i].field = to_s(b.ns[i]);
      report.total.*kBuckets[i].field += out.*kBuckets[i].field;
    }
    out.blocked_total_s = to_s(b.window);
    report.total.blocked_total_s += out.blocked_total_s;
  }
  return report;
}

}  // namespace chk::obs
