// Membership ablation: failure detection quality vs link loss, binary
// timeout against phi-accrual.
//
// The membership service turns failure handling from an oracle into a
// protocol: heartbeats, suspicion quorums, view changes, election and
// fencing. Detection quality gates everything downstream, and this sweep
// measures it from both sides. The binary detector's central knob is the
// detection timeout: a conservative value rides out loss bursts but leaves
// real crashes undetected for seconds; an aggressive one under heavy loss
// evicts perfectly live ranks — the false-suspicion storm. The phi-accrual
// detector (src/chklib/membership/accrual.hpp) replaces the fixed timeout
// with a suspicion level derived from each link's observed heartbeat
// inter-arrivals, so retransmission-stretched links widen their own
// windows. The headline comparison: at 20% frame loss the aggressive
// binary timeout evicts live ranks every run, phi-accrual evicts none —
// while its real-crash detection latency stays within 2x the binary's.
//
// A second section kills the *coordinator* mid-round for each coordinated
// scheme under each detector: the cluster detects the death, elects a
// successor (the view id encodes it), re-initiates the aborted round at a
// higher epoch, and the run completes verified — with the measured
// detection latency (crash -> evicting view) reported per detector.
//
//   ./ablation_membership [--app=SOR-384] [--detector=both|binary|phi]
//                         [--timeouts=0.6,1.5,4.0] [--phi-thresholds=4,8,12]
//                         [--phi-window=32] [--losses=0,0.05,0.2]
//                         [--hb-period=0.25] [--nodes=8] [--checkpoints=0]
//                         [--intervals=5] [--seed=2026]
//                         [--json-out=BENCH_membership.json] [--quick]
//
// --detector narrows the sweep to one detector ("both" runs the full A/B
// grid); --phi-thresholds are suspicion thresholds in phi units (phi 8 ~
// "the silence is < 1e-8 probable"); phi knobs combined with
// --detector=binary are rejected rather than ignored. --quick shrinks the
// sweep (2 timeouts x 1 threshold x 2 loss points). Output is
// byte-identical across repeats with the same seed.
//
// Exit 1 unless every check in check_document() holds: every cell
// verified with heartbeats flowing, clean links evict nobody, every
// coordinator kill is detected once with a successor elected and no
// deadman; at >= 20% loss the most aggressive binary timeout wrongly
// evicts (and the fenced ranks rejoin); phi-accrual never wrongly evicts
// at the heaviest loss; with both detectors, phi detects the kill within
// 2x the binary latency.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace chk;
using chklib::membership::Detector;
using bench::paper_schemes;

/// The coordinated schemes whose coordinator the kill section murders.
const std::vector<harness::Scheme>& coordinated_schemes() {
  static const std::vector<harness::Scheme> schemes{
      harness::Scheme::kCoordNB, harness::Scheme::kCoordNBM,
      harness::Scheme::kCoordNBMS};
  return schemes;
}

double mean_latency_s(const harness::ExperimentResult& r) {
  if (r.detection_latency_ns.empty()) return 0.0;
  double sum = 0;
  for (const std::int64_t ns : r.detection_latency_ns) sum += static_cast<double>(ns);
  return sum * 1e-9 / static_cast<double>(r.detection_latency_ns.size());
}

obs::json::Value cell_json(const harness::ExperimentResult& r, bool digest_ok) {
  using obs::json::Value;
  Value cv = Value::object();
  cv.set("scheme", Value::string(std::string(to_string(r.scheme))));
  cv.set("exec_s", Value::number(r.exec_time_s));
  cv.set("heartbeats_sent", Value::number(r.heartbeats_sent));
  cv.set("suspicions", Value::number(r.suspicions));
  cv.set("suspicions_cleared", Value::number(r.suspicions_cleared));
  cv.set("views_established", Value::number(r.views_established));
  cv.set("evictions", Value::number(r.evictions));
  cv.set("wrongful_evictions", Value::number(r.wrongful_evictions));
  cv.set("rejoins", Value::number(r.rejoins));
  cv.set("crashes", Value::number(r.membership_crashes));
  cv.set("forced_recoveries", Value::number(r.forced_recoveries));
  cv.set("detections", Value::number(r.detections));
  // Exact per-detection latencies plus the same log-spaced bins the
  // "membership/detection_latency_s" metric exports, so the bench JSON and
  // the obs histogram agree bucket for bucket.
  Value lats = Value::array();
  std::vector<std::uint64_t> bins(
      static_cast<std::size_t>(harness::kDetectLatMaxExp - harness::kDetectLatMinExp) + 2,
      0);
  double lat_max = 0;
  for (const std::int64_t ns : r.detection_latency_ns) {
    const double s = static_cast<double>(ns) * 1e-9;
    lats.push_back(Value::number(s));
    if (s > lat_max) lat_max = s;
    ++bins[obs::LogHistogram::bucket_of(static_cast<std::uint64_t>(ns < 0 ? 0 : ns),
                                        harness::kDetectLatMinExp,
                                        harness::kDetectLatMaxExp)];
  }
  cv.set("detection_latency_s", std::move(lats));
  Value bin_array = Value::array();
  for (const std::uint64_t b : bins) bin_array.push_back(Value::number(b));
  cv.set("detection_lat_counts", std::move(bin_array));
  cv.set("detection_lat_mean_s", Value::number(mean_latency_s(r)));
  cv.set("detection_lat_max_s", Value::number(lat_max));
  cv.set("aborted_rounds", Value::number(std::uint64_t{r.aborted_rounds}));
  cv.set("committed_rounds", Value::number(std::uint64_t{r.committed_rounds}));
  cv.set("retransmits", Value::number(r.retransmits));
  cv.set("digest_ok", Value::boolean(digest_ok));
  cv.set("invariant_violations", Value::number(r.invariant_violations));
  return cv;
}

/// One grid row: a detector point (binary timeout or phi threshold) at one
/// loss rate, across the five schemes.
struct GridRow {
  Detector detector = Detector::kBinaryTimeout;
  double knob = 0;  ///< detect_timeout_s (binary) or phi threshold (phi)
  double loss = 0;
};

struct Options {
  std::string app;
  bool run_binary = true;
  bool run_phi = true;
  std::vector<double> timeouts;
  std::vector<double> thresholds;
  std::int64_t phi_window = 32;
  std::vector<double> losses;
  double hb_period = 0.25;
  std::size_t nodes = 0;
  std::uint32_t checkpoints = 0;
  double intervals = 0;
  std::uint64_t seed = 0;
  std::string json_out;
};

Options read_options(const util::Cli& cli) {
  const bool quick = cli.get_bool("quick", false);
  Options o;
  o.app = cli.get("app", "SOR-384");
  bench::require_app("app", o.app);
  const std::string detector = cli.get("detector", "both");
  if (detector == "binary") {
    o.run_phi = false;
  } else if (detector == "phi") {
    o.run_binary = false;
  } else if (detector != "both") {
    throw std::invalid_argument("--detector: expected \"both\", \"binary\" or \"phi\", got \"" +
                                detector + "\"");
  }
  if (!o.run_phi) {
    for (const char* flag : {"phi-thresholds", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --detector=phi or both (the binary "
                                    "detector has no phi knobs)");
      }
    }
  }
  o.timeouts = cli.get_doubles("timeouts", quick ? "0.6,4.0" : "0.6,1.5,4.0", 1e-3, 1e3);
  o.thresholds = cli.get_doubles("phi-thresholds", quick ? "8" : "4,8,12", 1e-3, 1e3);
  o.phi_window = cli.get_int("phi-window", 32, 1);
  o.losses = cli.get_doubles("losses", quick ? "0,0.2" : "0,0.05,0.2", 0.0, 1.0);
  o.hb_period = cli.get_nonneg_double("hb-period", 0.25);
  for (double t : o.timeouts) {
    if (t <= o.hb_period) {
      throw std::invalid_argument(
          "--timeouts: every detection timeout must exceed --hb-period (" +
          std::to_string(o.hb_period) + " s)");
    }
  }
  o.nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1));
  o.checkpoints = static_cast<std::uint32_t>(cli.get_int("checkpoints", 0, 0));
  o.intervals = cli.get_double("intervals", 5.0);
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  o.json_out = cli.get_path("json-out").value_or("BENCH_membership.json");
  return o;
}

/// The claims the membership document makes, checked before it is written.
void check_document(const obs::json::Value& doc, const Options& opt, bench::Verdict& v) {
  using obs::json::Value;
  v.expect(doc.at("table").as_string() == "membership", "table is \"membership\"");
  v.expect(doc.at("all_verified").as_bool(), "every cell passed digest and invariant checks");
  const std::size_t detectors = (opt.run_binary ? 1u : 0u) + (opt.run_phi ? 1u : 0u);
  const auto& rows = doc.at("rows").items();
  v.expect(rows.size() == opt.losses.size() *
                              ((opt.run_binary ? opt.timeouts.size() : 0) +
                               (opt.run_phi ? opt.thresholds.size() : 0)),
           "one row per detector knob x loss");
  const double max_loss = *std::max_element(opt.losses.begin(), opt.losses.end());
  const double aggressive = *std::min_element(opt.timeouts.begin(), opt.timeouts.end());
  bool saw_binary = false;
  bool saw_phi = false;
  std::vector<const Value*> storm;    // aggressive binary timeout at the heaviest loss
  std::vector<const Value*> phi_max;  // every phi threshold at the heaviest loss
  for (const Value& row : rows) {
    const std::string& detector = row.at("detector").as_string();
    const double loss = row.at("loss").as_double();
    // Each row carries the knob of its detector, never the other's.
    if (detector == "binary") {
      saw_binary = true;
      v.expect(row.contains("detect_timeout_s") && !row.contains("phi_threshold"),
               "a binary row carries only detect_timeout_s");
    } else {
      v.expect(detector == "phi", "detector is binary or phi", detector);
      saw_phi = true;
      v.expect(row.contains("phi_threshold") && !row.contains("detect_timeout_s"),
               "a phi row carries only phi_threshold");
    }
    const auto& cells = row.at("cells").items();
    v.expect(cells.size() == paper_schemes().size(), "one cell per paper scheme", detector);
    for (std::size_t s = 0; s < cells.size() && s < paper_schemes().size(); ++s) {
      v.expect(cells[s].at("scheme").as_string() == to_string(paper_schemes()[s]),
               "cells in paper-scheme order", detector);
    }
    const bool is_storm = detector == "binary" && loss == max_loss &&
                          row.at("detect_timeout_s").as_double() == aggressive;
    for (const Value& cell : cells) {
      const std::string where = detector + " " + cell.at("scheme").as_string();
      if (!v.expect_keys(cell, {"scheme", "exec_s", "heartbeats_sent", "suspicions",
                                "suspicions_cleared", "views_established", "evictions",
                                "wrongful_evictions", "rejoins", "crashes", "detections",
                                "detection_latency_s", "detection_lat_counts",
                                "forced_recoveries", "aborted_rounds", "committed_rounds",
                                "retransmits", "digest_ok", "invariant_violations"},
                         where)) {
        continue;
      }
      v.expect(cell.at("digest_ok").as_bool(), "cell reproduced the digest", where);
      v.expect(cell.at("invariant_violations").as_int() == 0, "no invariant violations", where);
      v.expect(cell.at("heartbeats_sent").as_int() > 0, "heartbeats flowed", where);
      if (loss == 0) {
        v.expect(cell.at("evictions").as_int() == 0, "clean links evict nobody", where);
      }
      if (is_storm) storm.push_back(&cell);
      if (detector == "phi" && loss == max_loss) phi_max.push_back(&cell);
    }
  }
  v.expect(saw_binary == opt.run_binary && saw_phi == opt.run_phi,
           "rows cover exactly the requested detectors");

  // The headline A/B at the heaviest loss.
  if (opt.run_binary) {
    std::int64_t storm_wrongful = 0;
    for (const Value* cell : storm) {
      const std::int64_t wrongful = cell->at("wrongful_evictions").as_int();
      storm_wrongful += wrongful;
      if (wrongful > 0) {
        v.expect(cell->at("rejoins").as_int() > 0, "a fenced rank rejoined",
                 cell->at("scheme").as_string());
      }
    }
    v.expect(doc.at("binary_aggressive_wrongful").as_int() == storm_wrongful,
             "binary_aggressive_wrongful sums the storm corner");
    if (max_loss >= 0.2) {
      v.expect(storm_wrongful > 0,
               "the aggressive-timeout/heavy-loss corner wrongly evicts a live rank");
    }
  }
  if (opt.run_phi) {
    v.expect(!phi_max.empty(), "phi rows at the heaviest loss");
    for (const Value* cell : phi_max) {
      v.expect(cell->at("wrongful_evictions").as_int() == 0,
               "phi-accrual never wrongly evicts at the heaviest loss",
               cell->at("scheme").as_string());
    }
    v.expect(doc.at("phi_wrongful_at_max_loss").as_int() == 0,
             "phi_wrongful_at_max_loss is zero");
  }

  // Real crash: every detector finds the dead coordinator, elects a
  // successor, and phi is no more than 2x slower than binary.
  const auto& kills = doc.at("coordinator_kill").items();
  v.expect(kills.size() == detectors * coordinated_schemes().size(),
           "one kill per detector x coordinated scheme");
  std::map<std::string, std::map<std::string, double>> latency;  // detector -> scheme -> s
  for (const Value& cell : kills) {
    const std::string& detector = cell.at("detector").as_string();
    const std::string& scheme = cell.at("scheme").as_string();
    const std::string where = detector + " " + scheme;
    v.expect(cell.at("digest_ok").as_bool() && cell.at("crashes").as_int() == 1,
             "one crash, digest reproduced", where);
    v.expect(cell.at("detections").as_int() == 1 && cell.at("wrongful_evictions").as_int() == 0,
             "the crash detected once, nobody wrongly evicted", where);
    v.expect(cell.at("views_established").as_int() >= 1, "a successor was elected", where);
    v.expect(cell.at("forced_recoveries").as_int() == 0, "the deadman never fired", where);
    const auto& lats = cell.at("detection_latency_s").items();
    if (v.expect(!lats.empty(), "a detection latency was measured", where)) {
      latency[detector][scheme] = lats.front().as_double();
    }
  }
  v.expect(latency.size() == detectors, "kills cover exactly the requested detectors");
  for (const auto& [detector, by_scheme] : latency) {
    v.expect(by_scheme.size() == coordinated_schemes().size(),
             "every coordinated scheme killed", detector);
  }
  if (latency.contains("binary") && latency.contains("phi")) {
    const auto& phi = latency.at("phi");
    for (const auto& [scheme, binary_s] : latency.at("binary")) {
      v.expect(phi.contains(scheme) && phi.at(scheme) <= 2 * binary_s,
               "phi detects within 2x the binary latency", scheme);
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (const int rc = util::parse_flags("ablation_membership", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }
  const std::vector<double>& timeouts = opt.timeouts;
  const std::vector<double>& thresholds = opt.thresholds;
  const std::vector<double>& losses = opt.losses;
  const std::size_t columns = paper_schemes().size();

  // Baseline: failure-free, perfect links, no detector — sets the
  // checkpoint interval and the digest every membership run must still
  // compute (fencing has to keep wrongful evictions answer-preserving).
  harness::ExperimentConfig base = bench::row_config(harness::find_row(opt.app));
  base.machine.num_nodes = opt.nodes;
  base.seed = opt.seed;
  base.checkpoints = opt.checkpoints;
  const harness::ExperimentResult normal = harness::run_normal(base);
  base.interval = des::Duration::seconds(normal.exec_time_s / opt.intervals);

  auto make_membership = [&](Detector detector, double knob) {
    chklib::membership::MembershipConfig membership;
    membership.hb_period = des::Duration::seconds(opt.hb_period);
    membership.detector = detector;
    if (detector == Detector::kBinaryTimeout) {
      membership.detect_timeout = des::Duration::seconds(knob);
    } else {
      // Phi keeps the lax default timeout as its warm-up bootstrap; the
      // steady-state aggressiveness comes from the threshold, not a
      // hand-tuned timeout — that is the point of the comparison.
      membership.accrual.threshold_milli =
          static_cast<std::int64_t>(knob * 1000.0);
      membership.accrual.window = static_cast<std::uint32_t>(opt.phi_window);
    }
    return membership;
  };

  // Section 1: detector x knob x link-loss grid, detector always on.
  std::vector<GridRow> grid;
  if (opt.run_binary) {
    for (double timeout : timeouts) {
      for (double loss : losses) {
        grid.push_back({Detector::kBinaryTimeout, timeout, loss});
      }
    }
  }
  if (opt.run_phi) {
    for (double threshold : thresholds) {
      for (double loss : losses) {
        grid.push_back({Detector::kPhiAccrual, threshold, loss});
      }
    }
  }
  const auto results = bench::parallel_map<harness::ExperimentResult>(
      grid.size() * columns, [&](std::size_t i) {
        const GridRow& row = grid[i / columns];
        harness::ExperimentConfig config = base;
        config.scheme = paper_schemes()[i % columns];
        config.membership = make_membership(row.detector, row.knob);
        if (row.loss > 0.0) {
          chklib::LinkFaultConfig faults;
          faults.drop = row.loss;
          faults.duplicate = row.loss / 2;
          faults.corrupt = row.loss / 4;
          config.link_faults = faults;
        }
        return harness::run_experiment(config);
      });

  // Section 2: coordinator killed mid-run, clean links, one strike aimed
  // at whoever the current elected coordinator is — once per detector, so
  // the JSON carries the real-crash detection-latency A/B.
  std::vector<Detector> kill_detectors;
  if (opt.run_binary) kill_detectors.push_back(Detector::kBinaryTimeout);
  if (opt.run_phi) kill_detectors.push_back(Detector::kPhiAccrual);
  const double kill_timeout =
      timeouts.size() > 1 ? timeouts[timeouts.size() / 2] : timeouts.front();
  const double kill_threshold =
      thresholds.size() > 1 ? thresholds[thresholds.size() / 2] : thresholds.front();
  const std::size_t kill_columns = coordinated_schemes().size();
  const auto kills = bench::parallel_map<harness::ExperimentResult>(
      kill_detectors.size() * kill_columns, [&](std::size_t i) {
        const Detector detector = kill_detectors[i / kill_columns];
        harness::ExperimentConfig config = base;
        config.scheme = coordinated_schemes()[i % kill_columns];
        config.membership = make_membership(
            detector, detector == Detector::kBinaryTimeout ? kill_timeout : kill_threshold);
        if (detector == Detector::kPhiAccrual) {
          // If the strike lands before the accrual windows warm up, phi
          // falls back to its bootstrap timeout. Give it the same bootstrap
          // binary runs with, so the latency A/B compares detectors rather
          // than warm-up defaults.
          config.membership->detect_timeout = des::Duration::seconds(kill_timeout);
        }
        faultsim::FaultPlan plan;
        plan.mtbf = des::Duration::seconds(normal.exec_time_s * 0.4);
        plan.max_failures = 1;
        plan.target_coordinator = true;
        config.faults = plan;
        return harness::run_experiment(config);
      });

  bool all_ok = true;
  for (const harness::ExperimentResult& r : results) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }
  for (const harness::ExperimentResult& r : kills) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }

  // The headline A/B: wrongful evictions at the highest loss point, the
  // most aggressive binary timeout against every phi threshold.
  const double max_loss = *std::max_element(losses.begin(), losses.end());
  const double aggressive_timeout = *std::min_element(timeouts.begin(), timeouts.end());
  std::uint64_t binary_aggressive_wrongful = 0;
  std::uint64_t phi_wrongful_at_max_loss = 0;
  {
    std::size_t index = 0;
    for (const GridRow& row : grid) {
      for (std::size_t s = 0; s < columns; ++s) {
        const harness::ExperimentResult& r = results[index++];
        if (row.loss != max_loss) continue;
        if (row.detector == Detector::kBinaryTimeout && row.knob == aggressive_timeout) {
          binary_aggressive_wrongful += r.wrongful_evictions;
        }
        if (row.detector == Detector::kPhiAccrual) {
          phi_wrongful_at_max_loss += r.wrongful_evictions;
        }
      }
    }
  }

  std::vector<std::string> header{"detector", "knob", "loss"};
  for (harness::Scheme scheme : paper_schemes()) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (const GridRow& gr : grid) {
    std::vector<std::string> row{
        chklib::membership::to_string(gr.detector),
        util::Table::fixed(gr.knob, 1), util::Table::fixed(gr.loss, 2)};
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      row.push_back(util::format("{} ev={} wr={} rj={}",
                                 util::Table::fixed(r.exec_time_s, 1), r.evictions,
                                 r.wrongful_evictions, r.rejoins));
    }
    table.add_row(std::move(row));
  }
  std::fputs(
      table
          .render(util::format(
              "{} on {} nodes, detector A/B (hb={}s; knob = detection timeout "
              "s for binary, suspicion threshold phi for phi; exec time s, "
              "evictions, wrongful evictions, rejoins per scheme). Aggressive "
              "binary timeouts under loss evict live ranks — fenced, rejoined, "
              "answer preserved — where phi-accrual adapts and evicts none; "
              "digests + invariants verified: {})",
              opt.app, opt.nodes, util::Table::fixed(opt.hb_period, 2),
              all_ok ? "yes" : "NO"))
          .c_str(),
      stdout);

  std::vector<std::string> kill_header{"detector", "scheme",  "exec_s", "views",
                                       "evictions", "detect_s", "forced", "digest"};
  util::Table kill_table(kill_header);
  index = 0;
  for (Detector detector : kill_detectors) {
    for (std::size_t s = 0; s < kill_columns; ++s) {
      const harness::ExperimentResult& r = kills[index++];
      kill_table.add_row({chklib::membership::to_string(detector),
                          std::string(to_string(r.scheme)),
                          util::Table::fixed(r.exec_time_s, 1),
                          std::to_string(r.views_established),
                          std::to_string(r.evictions),
                          util::Table::fixed(mean_latency_s(r), 2),
                          std::to_string(r.forced_recoveries),
                          r.digest == normal.digest ? "ok" : "BAD"});
    }
  }
  std::fputs(kill_table
                 .render("Coordinator killed mid-run per detector: the cluster "
                         "detects the death (detect_s = crash to evicting "
                         "view), elects a successor and the run completes "
                         "verified")
                 .c_str(),
             stdout);

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("membership"));
  doc.set("app", Value::string(opt.app));
  doc.set("nodes", Value::number(std::uint64_t{opt.nodes}));
  doc.set("seed", Value::number(opt.seed));
  doc.set("hb_period_s", Value::number(opt.hb_period));
  doc.set("phi_window", Value::number(static_cast<std::uint64_t>(opt.phi_window)));
  doc.set("normal_exec_s", Value::number(normal.exec_time_s));
  doc.set("all_verified", Value::boolean(all_ok));
  doc.set("binary_aggressive_wrongful", Value::number(binary_aggressive_wrongful));
  doc.set("phi_wrongful_at_max_loss", Value::number(phi_wrongful_at_max_loss));
  Value row_array = Value::array();
  index = 0;
  for (const GridRow& gr : grid) {
    Value entry = Value::object();
    entry.set("detector", Value::string(chklib::membership::to_string(gr.detector)));
    if (gr.detector == Detector::kBinaryTimeout) {
      entry.set("detect_timeout_s", Value::number(gr.knob));
    } else {
      entry.set("phi_threshold", Value::number(gr.knob));
    }
    entry.set("loss", Value::number(gr.loss));
    Value cell_array = Value::array();
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      cell_array.push_back(cell_json(r, r.digest == normal.digest));
    }
    entry.set("cells", std::move(cell_array));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  Value kill_array = Value::array();
  index = 0;
  for (Detector detector : kill_detectors) {
    for (std::size_t s = 0; s < kill_columns; ++s) {
      const harness::ExperimentResult& r = kills[index++];
      Value kv = cell_json(r, r.digest == normal.digest);
      kv.set("detector", Value::string(chklib::membership::to_string(detector)));
      kill_array.push_back(std::move(kv));
    }
  }
  doc.set("coordinator_kill", std::move(kill_array));
  bench::Verdict verdict("ablation_membership");
  verdict.check_document([&] { check_document(doc, opt, verdict); });
  obs::write_text_file(opt.json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", opt.json_out.c_str());
  return verdict.exit_code();
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("ablation_membership", err);
}
