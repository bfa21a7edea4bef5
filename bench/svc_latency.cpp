// svc latency sweep: the five paper schemes measured by what a live
// request-serving workload feels — tail latency SLOs — instead of batch
// completion time.
//
// Each cell hosts the sharded KV service (src/svc) on `--nodes` ranks,
// drives it with an open-loop Poisson client population at one arrival
// rate, runs one checkpoint scheme, and (at faulty points) a Poisson crash
// process with the given MTBF. Per-request end-to-end latency is measured
// against the *scheduled* arrival instant, so freezes, checkpoint drains
// and recovery windows land in the tail exactly as a live population would
// experience them. Every run must reproduce the simulator-free LWW
// reference digest — faults may cost latency, never data.
//
//   ./svc_latency [--nodes=8] [--rates=200,400] [--mtbfs=0,1.5]
//                 [--horizon=4] [--interval=0.8] [--max-failures=2]
//                 [--membership] [--detector=binary|phi] [--detect-timeout=0.6]
//                 [--hb-period=0.25] [--phi-threshold=8] [--phi-window=32]
//                 [--seed=2026] [--json-out=BENCH_svc.json] [--quick]
//
// --rates are per-rank arrival rates (Hz); --mtbfs are crash-process MTBFs
// in seconds, 0 = fault-free. --membership puts the cluster-membership
// service under the latency lens: every sweep cell runs heartbeat
// detection during the request traffic (crashes are *detected*, not
// oracle-reported), and a second section kills the elected coordinator
// mid-traffic for every scheme — one view change, measured detection
// latency, and the membership_wait attribution bucket keeping the
// blocked-time partition exact. --detector picks binary or phi-accrual
// suspicion (phi knobs with --detector=binary are rejected). --quick
// shrinks the sweep to one rate and {fault-free, one faulty} points.
// Output is byte-identical across repeats with the same seed.
//
// Exit 1 unless every check in check_document() holds: every cell
// reproduces the LWW digest, completes every issued request, keeps the
// blocked-time partition exact (every cell runs traced), and reports
// consistent latency counts and quantiles; the shard image grows and
// shrinks when two checkpoint intervals fit the horizon; every faulty row
// shows a recovery window; with --membership, every coordinator kill is
// detected once, elects once, and keeps the blocked-time partition exact.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "svc/kvstore.hpp"

namespace {

using namespace chk;

using bench::paper_schemes;

struct Options {
  std::vector<double> rates;
  std::vector<double> mtbfs;
  std::optional<chklib::membership::MembershipConfig> membership;
  std::size_t nodes = 0;
  double horizon = 0;
  double interval = 0;
  std::uint32_t max_failures = 0;
  std::uint64_t seed = 0;
  std::string json_out;
};

Options read_options(const util::Cli& cli) {
  const bool quick = cli.get_bool("quick", false);
  Options o;
  o.rates = cli.get_doubles("rates", quick ? "300" : "200,400", 1.0, 1e6);
  o.mtbfs = cli.get_doubles("mtbfs", "0,1.5", 0.0, 1e9);
  o.nodes = static_cast<std::size_t>(cli.get_int("nodes", 8));
  o.horizon = cli.get_double("horizon", 4.0);
  o.interval = cli.get_double("interval", 0.8);
  o.max_failures = static_cast<std::uint32_t>(cli.get_int("max-failures", 2, 0));
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  o.json_out = cli.get_path("json-out").value_or("BENCH_svc.json");
  if (o.nodes < 1 || o.nodes > 64 || o.horizon <= 0 || o.interval <= 0) {
    throw std::invalid_argument("--nodes in [1,64], --horizon/--interval > 0");
  }
  if (!cli.get_bool("membership", false)) {
    for (const char* flag :
         {"detector", "detect-timeout", "hb-period", "phi-threshold", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --membership (there is no detector "
                                    "to configure without it)");
      }
    }
    return o;
  }
  chklib::membership::MembershipConfig m;
  m.detector = chklib::membership::parse_detector(cli.get("detector", "binary"));
  if (m.detector != chklib::membership::Detector::kPhiAccrual) {
    for (const char* flag : {"phi-threshold", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --detector=phi (the binary "
                                    "detector has no phi knobs)");
      }
    }
  } else {
    const double threshold = cli.get_nonneg_double("phi-threshold", 8.0);
    if (threshold <= 0) throw std::invalid_argument("--phi-threshold must be positive");
    m.accrual.threshold_milli = static_cast<std::int64_t>(threshold * 1000.0);
    m.accrual.window = static_cast<std::uint32_t>(cli.get_int("phi-window", 32, 1));
  }
  // Aggressive by default: the svc horizon is seconds, so detection at
  // the lax 2 s default would dominate every faulty cell's tail. The
  // links are clean here — storms need loss — so 0.6 s is safe.
  m.detect_timeout = des::Duration::seconds(cli.get_nonneg_double("detect-timeout", 0.6));
  m.hb_period = des::Duration::seconds(cli.get_nonneg_double("hb-period", 0.25));
  m.validate(o.nodes);
  o.membership = m;
  return o;
}

/// The claims the svc document makes, checked before it is written.
void check_document(const obs::json::Value& doc, const Options& opt, bench::Verdict& v) {
  using obs::json::Value;
  const auto& membership = opt.membership;
  v.expect(doc.at("table").as_string() == "svc_latency", "table is \"svc_latency\"");
  v.expect(doc.at("all_verified").as_bool(),
           "every run kept the LWW digest, the invariants and conservation");
  v.expect(doc.at("membership").as_bool() == membership.has_value() &&
               doc.at("detector").as_string() ==
                   (membership.has_value() ? chklib::membership::to_string(membership->detector)
                                           : "off"),
           "document records the membership settings");
  const auto& rows = doc.at("rows").items();
  v.expect(rows.size() == opt.rates.size() * opt.mtbfs.size(), "one row per rate x MTBF");
  const bool images_move = 2 * opt.interval < opt.horizon;
  bool saw_faulty = false;
  auto check_quantiles = [&v](const Value& cell, const std::string& where) {
    v.expect(cell.at("lat_p50_s").as_double() <= cell.at("lat_p99_s").as_double() &&
                 cell.at("lat_p99_s").as_double() <= cell.at("lat_p999_s").as_double(),
             "p50 <= p99 <= p999", where);
  };
  for (const Value& row : rows) {
    const bool faulty = row.at("mtbf_s").as_double() > 0;
    saw_faulty = saw_faulty || faulty;
    const auto& cells = row.at("cells").items();
    v.expect(cells.size() == paper_schemes().size(), "one cell per paper scheme");
    for (std::size_t s = 0; s < cells.size() && s < paper_schemes().size(); ++s) {
      v.expect(cells[s].at("scheme").as_string() == to_string(paper_schemes()[s]),
               "cells in paper-scheme order");
    }
    bool row_recovered = false;
    bool row_downtime = false;
    for (const Value& cell : cells) {
      const std::string& where = cell.at("scheme").as_string();
      if (!v.expect_keys(cell, {"scheme", "exec_s", "issued", "completed", "lat_p50_s",
                                "lat_p99_s", "lat_p999_s", "lat_mean_s", "lat_max_s",
                                "lat_counts", "queue_wait_s", "recoveries",
                                "downtime_total_s", "image_log", "digest_ok"},
                         where)) {
        continue;
      }
      v.expect(cell.at("digest_ok").as_bool(), "cell reproduced the LWW digest", where);
      const std::int64_t completed = cell.at("completed").as_int();
      v.expect(cell.at("issued").as_int() == completed && completed > 0,
               "every issued request completed", where);
      std::int64_t counted = 0;
      for (const Value& c : cell.at("lat_counts").items()) counted += c.as_int();
      v.expect(counted == completed, "latency counts sum to completed", where);
      check_quantiles(cell, where);
      if (images_move) {
        std::set<std::int64_t> sizes;
        for (const Value& img : cell.at("image_log").items()) {
          sizes.insert(img.at("bytes").as_int());
        }
        v.expect(!sizes.empty(), "a measured checkpoint-image curve", where);
        v.expect(sizes.size() > 1, "shard image bytes moved", where);
      }
      const auto& recoveries = cell.at("recoveries").items();
      row_recovered = row_recovered || !recoveries.empty();
      row_downtime = row_downtime || cell.at("downtime_total_s").as_double() > 0;
      if (faulty) {
        for (const Value& rec : recoveries) {
          v.expect(cell.at("lat_max_s").as_double() >= rec.at("downtime_s").as_double(),
                   "the latency tail covers every recovery window", where);
        }
      }
    }
    // Independent schemes account restart latency as zero, so the row, not
    // every cell, must show a recovery window.
    if (faulty && opt.max_failures > 0) {
      v.expect(row_recovered, "a faulty row fired failures");
      v.expect(row_downtime, "a faulty row measured recovery downtime");
    }
  }
  const bool faulty_requested =
      std::any_of(opt.mtbfs.begin(), opt.mtbfs.end(), [](double m) { return m > 0; });
  v.expect(saw_faulty == faulty_requested, "the sweep has a faulty row iff --mtbfs names one");

  if (!membership.has_value()) return;
  const auto& kills = doc.at("coordinator_kill").items();
  v.expect(kills.size() == paper_schemes().size(), "one coordinator kill per paper scheme");
  for (std::size_t s = 0; s < kills.size() && s < paper_schemes().size(); ++s) {
    v.expect(kills[s].at("scheme").as_string() == to_string(paper_schemes()[s]),
             "kills in paper-scheme order");
  }
  for (const Value& cell : kills) {
    const std::string& where = cell.at("scheme").as_string();
    v.expect(cell.at("membership_crashes").as_int() == 1, "one crash", where);
    v.expect(cell.at("views_established").as_int() == 1, "exactly one view change", where);
    v.expect(cell.at("detections").as_int() == 1 && cell.at("wrongful_evictions").as_int() == 0,
             "the crash detected once, nobody wrongly evicted", where);
    v.expect(cell.at("partition_exact").as_bool(),
             "membership_wait keeps the blocked-time partition exact", where);
    v.expect(cell.at("membership_wait_s").as_double() > 0, "failover cost is attributed",
             where);
    v.expect(cell.at("digest_ok").as_bool() && cell.at("invariant_violations").as_int() == 0,
             "digest reproduced, no invariant violations", where);
    check_quantiles(cell, where);
  }
}

/// One cell of the sweep: the experiment outcome plus the merged workload
/// metrics rank 0 deposited at drain.
struct Cell {
  harness::ExperimentResult result;
  svc::SvcMetrics metrics;
  /// Every rank's attribution buckets sum to its total (the obs_test
  /// tolerance): the blocked-time partition is exact.
  bool partition_exact = false;
};

/// Merged latency counts as a quantile-ready snapshot (edges in seconds).
obs::HistogramSnapshot latency_snapshot(const svc::SvcMetrics& m) {
  obs::HistogramSnapshot snap;
  snap.edges = obs::LogHistogram::make_edges(svc::kLatMinExp, svc::kLatMaxExp, 1e-9);
  snap.counts = m.latency_counts;
  if (snap.counts.empty()) snap.counts.assign(svc::kLatBuckets, 0);
  for (const std::uint64_t c : snap.counts) snap.total_count += c;
  snap.sum = static_cast<double>(m.latency_sum_ns) * 1e-9;
  return snap;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (const int rc = util::parse_flags("svc_latency", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }
  const std::vector<double>& rates = opt.rates;
  const std::vector<double>& mtbfs = opt.mtbfs;
  const auto& membership = opt.membership;

  svc::SvcParams base_params;
  base_params.horizon_s = opt.horizon;

  // Every cell must land on this digest: the shard contents are a pure
  // function of the generated request set (LWW), so scheme and fault
  // timing may shift latency but never the data. One reference per rate.
  std::vector<double> references;
  references.reserve(rates.size());
  for (const double rate : rates) {
    svc::SvcParams p = base_params;
    p.arrival_hz = rate;
    references.push_back(svc::svc_reference_digest(p, opt.nodes, opt.seed));
  }

  const std::size_t columns = paper_schemes().size();
  // Every cell runs with the obs tracer so its blocked-time partition can be
  // checked; the trace itself is dropped once the attribution is folded.
  auto run_cell = [](harness::ExperimentConfig config, const svc::SvcParams& params) {
    config.observe = true;
    Cell cell;
    cell.result = harness::run_experiment(config);
    cell.metrics = *params.sink;
    if (cell.result.obs.has_value()) {
      cell.partition_exact = true;
      for (const obs::RankBuckets& rank : cell.result.obs->attribution.ranks) {
        cell.partition_exact = cell.partition_exact &&
                               std::fabs(rank.bucket_sum_s() - rank.total_s()) <= 1e-9;
      }
      cell.result.obs->trace = obs::Trace{};
    }
    return cell;
  };
  const auto cells = bench::parallel_map<Cell>(
      rates.size() * mtbfs.size() * columns, [&](std::size_t i) {
        const double mtbf = mtbfs[i / columns % mtbfs.size()];
        svc::SvcParams params = base_params;
        params.arrival_hz = rates[i / (columns * mtbfs.size())];
        params.sink = std::make_shared<svc::SvcMetrics>();
        harness::ExperimentConfig config;
        config.label = util::format("svc-{}hz", params.arrival_hz);
        config.app = svc::make_svc(params);
        config.scheme = paper_schemes()[i % columns];
        config.interval = des::Duration::seconds(opt.interval);
        config.checkpoints = 0;  // keep checkpointing until the service drains
        config.seed = opt.seed;
        config.machine.num_nodes = opt.nodes;
        config.membership = membership;
        if (mtbf > 0) {
          faultsim::FaultPlan crashes;
          crashes.mtbf = des::Duration::seconds(mtbf);
          crashes.max_failures = opt.max_failures;
          crashes.stream = 1;
          config.faults = crashes;
        }
        return run_cell(config, params);
      });

  // Coordinator kill under traffic (--membership only): rank 0 — the
  // elected coordinator of the initial view — dies at mid-horizon while
  // requests flow, for every scheme at the first arrival rate. The
  // cluster must *detect* the death (one view change), and the
  // kMembershipWait episode must keep the per-rank blocked-time partition
  // exact, so these runs carry the obs tracer.
  const auto kill_cells = bench::parallel_map<Cell>(
      membership.has_value() ? columns : 0, [&](std::size_t s) {
        svc::SvcParams params = base_params;
        params.arrival_hz = rates.front();
        params.sink = std::make_shared<svc::SvcMetrics>();
        harness::ExperimentConfig config;
        config.label = util::format("svc-kill-{}hz", rates.front());
        config.app = svc::make_svc(params);
        config.scheme = paper_schemes()[s];
        config.interval = des::Duration::seconds(opt.interval);
        config.checkpoints = 0;
        config.seed = opt.seed;
        config.machine.num_nodes = opt.nodes;
        config.membership = membership;
        config.failure = harness::FailureSpec{
            des::TimePoint::origin() + des::Duration::seconds(opt.horizon * 0.5), 0};
        return run_cell(config, params);
      });
  bool all_ok = true;
  {
    std::size_t index = 0;
    for (std::size_t r = 0; r < rates.size(); ++r) {
      for (std::size_t m = 0; m < mtbfs.size(); ++m) {
        for (std::size_t s = 0; s < columns; ++s) {
          const Cell& cell = cells[index++];
          all_ok = all_ok && cell.result.digest == references[r] &&
                   cell.result.invariant_violations == 0 &&
                   cell.metrics.completed == cell.metrics.issued && cell.partition_exact;
        }
      }
    }
    for (const Cell& cell : kill_cells) {
      all_ok = all_ok && cell.result.digest == references.front() &&
               cell.result.invariant_violations == 0 &&
               cell.metrics.completed == cell.metrics.issued &&
               cell.result.membership_crashes == 1 &&
               cell.result.views_established >= 1 && cell.partition_exact;
    }
  }

  std::vector<std::string> header{"rate", "mtbf"};
  for (const harness::Scheme scheme : paper_schemes()) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    for (std::size_t m = 0; m < mtbfs.size(); ++m) {
      std::vector<std::string> row{util::Table::fixed(rates[r], 0),
                                   util::Table::fixed(mtbfs[m], 1)};
      for (std::size_t s = 0; s < columns; ++s) {
        const Cell& cell = cells[index++];
        const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
        const double p50 = obs::histogram_quantile(snap, 0.50);
        const double p99 = obs::histogram_quantile(snap, 0.99);
        const double p999 = obs::histogram_quantile(snap, 0.999);
        row.push_back(util::format("{}/{}/{} ms rec={}",
                                   util::Table::fixed(p50 * 1e3, 2),
                                   util::Table::fixed(p99 * 1e3, 1),
                                   util::Table::fixed(p999 * 1e3, 1),
                                   cell.result.recoveries.size()));
      }
      table.add_row(std::move(row));
    }
  }
  std::fputs(
      table
          .render(util::format(
              "svc on {} nodes: end-to-end request latency p50/p99/p999 "
              "(upper-edge bounds) and recovery count per scheme; open-loop "
              "Poisson arrivals per rank, horizon {} s, checkpoint interval "
              "{} s, crash MTBF per row (0 = fault-free, <= {} failures); "
              "digests + invariants + open-loop conservation + partition verified: {})",
              opt.nodes, util::Table::fixed(opt.horizon, 1), util::Table::fixed(opt.interval, 1),
              opt.max_failures, all_ok ? "yes" : "NO"))
          .c_str(),
      stdout);

  if (!kill_cells.empty()) {
    util::Table kill_table({"scheme", "p50/p99/p999 ms", "views", "detect_s",
                            "mwait_s", "partition", "digest"});
    for (const Cell& cell : kill_cells) {
      const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
      const double detect_s = cell.result.detection_latency_ns.empty()
                                  ? 0.0
                                  : static_cast<double>(
                                        cell.result.detection_latency_ns.front()) *
                                        1e-9;
      const double mwait = cell.result.obs.has_value()
                               ? cell.result.obs->attribution.total.membership_wait_s
                               : 0.0;
      kill_table.add_row(
          {std::string(to_string(cell.result.scheme)),
           util::format("{}/{}/{}",
                        util::Table::fixed(obs::histogram_quantile(snap, 0.50) * 1e3, 2),
                        util::Table::fixed(obs::histogram_quantile(snap, 0.99) * 1e3, 1),
                        util::Table::fixed(obs::histogram_quantile(snap, 0.999) * 1e3, 1)),
           std::to_string(cell.result.views_established),
           util::Table::fixed(detect_s, 2), util::Table::fixed(mwait, 2),
           cell.partition_exact ? "exact" : "BROKEN",
           cell.result.digest == references.front() ? "ok" : "BAD"});
    }
    std::fputs(
        kill_table
            .render(util::format(
                "Coordinator (rank 0) killed at {} s under {} Hz traffic, {} "
                "detector: the cluster detects the death mid-traffic (one view "
                "change), tail latency absorbs detection + recovery, and the "
                "membership_wait bucket keeps the per-rank blocked-time "
                "partition exact",
                util::Table::fixed(opt.horizon * 0.5, 1), util::Table::fixed(rates.front(), 0),
                chklib::membership::to_string(membership->detector)))
            .c_str(),
        stdout);
  }

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("svc_latency"));
  doc.set("nodes", Value::number(std::uint64_t{opt.nodes}));
  doc.set("seed", Value::number(opt.seed));
  doc.set("horizon_s", Value::number(opt.horizon));
  doc.set("interval_s", Value::number(opt.interval));
  doc.set("max_failures", Value::number(std::uint64_t{opt.max_failures}));
  doc.set("membership", Value::boolean(membership.has_value()));
  doc.set("detector",
          Value::string(membership.has_value()
                            ? chklib::membership::to_string(membership->detector)
                            : "off"));
  doc.set("detect_timeout_s",
          Value::number(membership.has_value()
                            ? membership->detect_timeout.to_seconds()
                            : 0.0));
  doc.set("hb_period_s",
          Value::number(membership.has_value() ? membership->hb_period.to_seconds()
                                               : 0.0));
  doc.set("all_verified", Value::boolean(all_ok));
  Value row_array = Value::array();
  index = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    for (std::size_t m = 0; m < mtbfs.size(); ++m) {
      Value entry = Value::object();
      entry.set("arrival_hz", Value::number(rates[r]));
      entry.set("mtbf_s", Value::number(mtbfs[m]));
      entry.set("reference_digest", Value::number(references[r]));
      Value cell_array = Value::array();
      for (std::size_t s = 0; s < columns; ++s) {
        const Cell& cell = cells[index++];
        const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
        Value cv = Value::object();
        cv.set("scheme", Value::string(std::string(to_string(cell.result.scheme))));
        cv.set("exec_s", Value::number(cell.result.exec_time_s));
        cv.set("issued", Value::number(cell.metrics.issued));
        cv.set("completed", Value::number(cell.metrics.completed));
        cv.set("hits", Value::number(cell.metrics.hits));
        cv.set("live_keys", Value::number(cell.metrics.live_keys));
        cv.set("live_bytes", Value::number(cell.metrics.live_bytes));
        cv.set("lat_p50_s", Value::number(obs::histogram_quantile(snap, 0.50)));
        cv.set("lat_p99_s", Value::number(obs::histogram_quantile(snap, 0.99)));
        cv.set("lat_p999_s", Value::number(obs::histogram_quantile(snap, 0.999)));
        cv.set("lat_mean_s",
               Value::number(snap.total_count == 0
                                 ? 0.0
                                 : snap.sum / static_cast<double>(snap.total_count)));
        cv.set("lat_max_s",
               Value::number(static_cast<double>(cell.metrics.latency_max_ns) * 1e-9));
        cv.set("queue_wait_s",
               Value::number(static_cast<double>(cell.metrics.queue_wait_sum_ns) * 1e-9));
        Value counts = Value::array();
        for (const std::uint64_t c : snap.counts) counts.push_back(Value::number(c));
        cv.set("lat_counts", std::move(counts));
        // Recovery-downtime windows: when each failure hit and how long the
        // service was down until every process was restarted.
        Value recoveries = Value::array();
        double downtime = 0;
        for (const harness::RecoveryReport& rec : cell.result.recoveries) {
          Value rv = Value::object();
          rv.set("failed_at_s", Value::number(rec.failed_at.to_seconds()));
          rv.set("failed_rank", Value::number(std::uint64_t{rec.failed_rank}));
          rv.set("downtime_s", Value::number(rec.recovery_latency.to_seconds()));
          recoveries.push_back(std::move(rv));
          downtime += rec.recovery_latency.to_seconds();
        }
        cv.set("recoveries", std::move(recoveries));
        cv.set("downtime_total_s", Value::number(downtime));
        // The measured checkpoint-image curve: the shard grows and shrinks
        // with the put/delete mix, so bytes per capture is data, not a
        // constant.
        Value images = Value::array();
        for (const chklib::ProtocolStats::ImageRecord& img : cell.result.image_log) {
          Value iv = Value::object();
          iv.set("index", Value::number(std::uint64_t{img.index}));
          iv.set("rank", Value::number(std::uint64_t{img.rank}));
          iv.set("bytes", Value::number(img.bytes));
          iv.set("at_s", Value::number(static_cast<double>(img.at_ns) * 1e-9));
          iv.set("delta", Value::boolean(img.delta));
          images.push_back(std::move(iv));
        }
        cv.set("image_log", std::move(images));
        cv.set("bytes_written", Value::number(cell.result.bytes_written));
        cv.set("local_checkpoints", Value::number(cell.result.local_checkpoints));
        cv.set("committed_rounds", Value::number(std::uint64_t{cell.result.committed_rounds}));
        if (membership.has_value()) {
          cv.set("heartbeats_sent", Value::number(cell.result.heartbeats_sent));
          cv.set("suspicions", Value::number(cell.result.suspicions));
          cv.set("suspicions_cleared", Value::number(cell.result.suspicions_cleared));
          cv.set("views_established", Value::number(cell.result.views_established));
          cv.set("evictions", Value::number(cell.result.evictions));
          cv.set("wrongful_evictions", Value::number(cell.result.wrongful_evictions));
          cv.set("detections", Value::number(cell.result.detections));
          cv.set("membership_crashes", Value::number(cell.result.membership_crashes));
        }
        cv.set("digest_ok", Value::boolean(cell.result.digest == references[r]));
        cv.set("invariant_violations", Value::number(cell.result.invariant_violations));
        cell_array.push_back(std::move(cv));
      }
      entry.set("cells", std::move(cell_array));
      row_array.push_back(std::move(entry));
    }
  }
  doc.set("rows", std::move(row_array));
  if (!kill_cells.empty()) {
    Value kill_array = Value::array();
    for (const Cell& cell : kill_cells) {
      const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
      Value kv = Value::object();
      kv.set("scheme", Value::string(std::string(to_string(cell.result.scheme))));
      kv.set("exec_s", Value::number(cell.result.exec_time_s));
      kv.set("lat_p50_s", Value::number(obs::histogram_quantile(snap, 0.50)));
      kv.set("lat_p99_s", Value::number(obs::histogram_quantile(snap, 0.99)));
      kv.set("lat_p999_s", Value::number(obs::histogram_quantile(snap, 0.999)));
      kv.set("views_established", Value::number(cell.result.views_established));
      kv.set("evictions", Value::number(cell.result.evictions));
      kv.set("wrongful_evictions", Value::number(cell.result.wrongful_evictions));
      kv.set("detections", Value::number(cell.result.detections));
      kv.set("membership_crashes", Value::number(cell.result.membership_crashes));
      kv.set("forced_recoveries", Value::number(cell.result.forced_recoveries));
      Value lats = Value::array();
      for (const std::int64_t ns : cell.result.detection_latency_ns) {
        lats.push_back(Value::number(static_cast<double>(ns) * 1e-9));
      }
      kv.set("detection_latency_s", std::move(lats));
      kv.set("membership_wait_s",
             Value::number(cell.result.obs.has_value()
                               ? cell.result.obs->attribution.total.membership_wait_s
                               : 0.0));
      kv.set("partition_exact", Value::boolean(cell.partition_exact));
      kv.set("digest_ok", Value::boolean(cell.result.digest == references.front()));
      kv.set("invariant_violations", Value::number(cell.result.invariant_violations));
      kill_array.push_back(std::move(kv));
    }
    doc.set("coordinator_kill", std::move(kill_array));
  }
  bench::Verdict verdict("svc_latency");
  verdict.check_document([&] { check_document(doc, opt, verdict); });
  obs::write_text_file(opt.json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", opt.json_out.c_str());
  return verdict.exit_code();
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("svc_latency", err);
}
