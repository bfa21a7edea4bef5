// Per-rank overhead attribution.
//
// Folds a trace into the paper-style overhead breakdown: where did each
// rank's checkpoint-induced lost time go? The buckets partition the
// *measurable per-rank overhead* — the checkpoint blocking windows (which
// the protocols account as app_blocked), the freeze-gate stalls and the
// CPU interference of background writes:
//
//   blocked window  =  sync_wait + mem_copy + stable_write
//                      + storage_contention + logging
//                      + storage_retry_wait                  (exact, in ns)
//   per-rank total  =  blocked windows + frozen_stall + interference
//                      + recovery + retransmit_wait
//                      + svc_queue_wait + membership_wait
//
// kBuckets below lists the buckets once, with which side of that split
// each one sits on.
//
// stable_write is the write's uncontended service time (mesh pipeline +
// host link + disk, empty queues); storage_contention is the rest of the
// observed write duration — queueing behind other nodes' checkpoint
// traffic, the paper's dominant cost. sync_wait is the window remainder:
// token/grant waits and protocol synchronization. End-to-end overhead
// (exec - normal) additionally contains critical-path idle effects that no
// single rank can be charged for; consumers report that difference as
// "unattributed".
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"

namespace chk::obs {

struct RankBuckets {
  double sync_wait_s = 0;
  double mem_copy_s = 0;
  double stable_write_s = 0;
  double storage_contention_s = 0;
  double logging_s = 0;
  double frozen_stall_s = 0;
  double interference_s = 0;
  /// Time this rank spent reading state back from stable storage during
  /// rollback recovery (zero in failure-free runs).
  double recovery_s = 0;
  /// Time this rank's transport receiver sat on a sequence gap waiting for
  /// a retransmission (zero when link faults are off). Outside the blocked
  /// windows: the gap stalls delivery, not the application's checkpoint.
  double retransmit_wait_s = 0;
  /// Backoff time between storage retry attempts inside app-blocking
  /// checkpoint windows (zero when storage faults are off). Background-
  /// writer retries stay out, like background writes themselves.
  double storage_retry_wait_s = 0;
  /// Request-side queue wait in the svc workload: scheduled (open-loop)
  /// arrival to service start, charged to the serving rank (zero for batch
  /// apps). Request time, not rank CPU time — it may overlap frozen_stall
  /// or recovery wall-clock on the same rank — so it sits outside the
  /// blocked windows and is added symmetrically to both sums below.
  double svc_queue_wait_s = 0;
  /// Time this rank spent excluded from the membership view: crashed and
  /// awaiting detection/recovery, or live but wrongly evicted (fenced)
  /// until rejoin (zero with the detector off). Wall-clock exclusion, not
  /// rank CPU time — it may overlap recovery or frozen_stall on the same
  /// rank — so like svc_queue_wait it sits outside the blocked windows and
  /// is added symmetrically to both sums below.
  double membership_wait_s = 0;
  /// Sum of this rank's checkpoint blocking windows (== the protocol's
  /// app_blocked share; the in-window buckets partition it exactly).
  double blocked_total_s = 0;

  /// Every bucket, summed in kBuckets order.
  [[nodiscard]] double bucket_sum_s() const noexcept;
  /// blocked_total_s plus the buckets outside the blocking windows.
  [[nodiscard]] double total_s() const noexcept;
};

/// One attribution bucket: its name (the JSON key, and the metrics gauge
/// under "attrib/"), its RankBuckets field, and whether it partitions the
/// checkpoint blocking window (in_window) or adds to it in total_s().
struct Bucket {
  std::string_view name;
  double RankBuckets::*field;
  bool in_window;
};

/// The one list of attribution buckets, in emission order. Every consumer
/// (attribute(), the sums above, the JSON export, the metrics gauges, the
/// bench checks) iterates it.
inline constexpr std::array<Bucket, 12> kBuckets{{
    {"sync_wait_s", &RankBuckets::sync_wait_s, true},
    {"mem_copy_s", &RankBuckets::mem_copy_s, true},
    {"stable_write_s", &RankBuckets::stable_write_s, true},
    {"storage_contention_s", &RankBuckets::storage_contention_s, true},
    {"logging_s", &RankBuckets::logging_s, true},
    {"frozen_stall_s", &RankBuckets::frozen_stall_s, false},
    {"interference_s", &RankBuckets::interference_s, false},
    {"recovery_s", &RankBuckets::recovery_s, false},
    {"retransmit_wait_s", &RankBuckets::retransmit_wait_s, false},
    {"storage_retry_wait_s", &RankBuckets::storage_retry_wait_s, true},
    {"svc_queue_wait_s", &RankBuckets::svc_queue_wait_s, false},
    {"membership_wait_s", &RankBuckets::membership_wait_s, false},
}};

struct AttributionReport {
  std::vector<RankBuckets> ranks;
  RankBuckets total;  ///< element-wise sum over ranks
};

/// Fold a trace into per-rank buckets. Events with rank >= num_ranks
/// (metadata) are ignored.
[[nodiscard]] AttributionReport attribute(const Trace& trace, std::size_t num_ranks);

}  // namespace chk::obs
