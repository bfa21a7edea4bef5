// Fault-injection campaign: expected completion time under failures.
//
// The paper's tables compare the schemes' failure-free overhead; this
// driver compares what actually matters when failures happen — the
// expected completion time under an exponential (MTBF-parameterized)
// failure arrival process, with multiple failures per run, failures landing
// inside checkpoint stable-storage writes and failures striking mid-
// recovery. For each app the MTBF is swept as a fraction of the failure-
// free execution time; each (app, MTBF, scheme) cell runs `--runs` seeded
// campaign runs that differ only in the failure schedule.
//
//   ./campaign [--apps=SOR-384,NQUEENS-14] [--mtbf-fracs=0.35,0.7,1.4]
//              [--runs=4] [--max-failures=6] [--nodes=8] [--checkpoints=0]
//              [--intervals=5] [--seed=2026] [--campaign-seed=1]
//              [--link-loss=0] [--link-dup=0] [--link-corrupt=0]
//              [--link-delay=0] [--link-delay-mean=0.001] [--no-transport]
//              [--io-error=0] [--io-degrade=1] [--bitrot=0] [--keep-depth=0]
//              [--detect-timeout=0] [--hb-period=0.25] [--target-coordinator]
//              [--detector=binary|phi] [--phi-threshold=8] [--phi-window=32]
//              [--json-out=BENCH_campaign.json] [--quick]
//
// --intervals sets the checkpoint interval to normal_exec/intervals;
// --checkpoints=0 keeps checkpointing active until the app completes (the
// right setting when failures extend the run). --link-loss/--link-dup/
// --link-corrupt/--link-delay add per-frame link faults on top of the
// failure process; the reliable FIFO transport repairs them (disable it
// with --no-transport to expose the raw loss). --io-error/--io-degrade/
// --bitrot make the stable storage itself unreliable (transient write/read
// I/O errors, degraded-throughput windows, silent image corruption); the
// retrying storage client and verified multi-generation recovery absorb
// them, with --keep-depth (0 = auto) controlling how many generations
// retention keeps per rank. --detect-timeout=S (> 0) arms the cluster-
// membership service: failures go through heartbeat detection, quorum
// eviction and coordinator election instead of the oracle, with
// --hb-period setting the beacon period and --target-coordinator aiming
// every strike at the elected coordinator; the detector needs the
// reliable transport, so combining it with --no-transport is rejected.
// --detector picks how suspicion forms: "binary" (fixed timeout, the
// default) or "phi" (accrual detection adapting to the observed heartbeat
// inter-arrivals), with --phi-threshold (suspicion level, phi units) and
// --phi-window (inter-arrival samples); phi knobs on the binary detector
// are rejected rather than ignored.
// --quick shrinks the sweep for smoke testing
// (1 app, 2 MTBF points, 2 runs). Every run verifies the application
// digest against the failure-free baseline; the output is byte-identical
// across repeats with the same seeds.
//
// Exit 1 unless every check in check_document() holds: every run verified
// and (without --detect-timeout) its failures accounted for, each one
// recovered or interrupted by the next; with
// --max-failures >= 2, every run took >= 2 strikes including a mid-write
// and a during-recovery one; with --link-loss > 0, every run dropped
// frames and (transport on) retransmitted; with --io-error > 0, every run
// failed storage operations and retried them.
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "faultsim/campaign.hpp"
#include "obs/export.hpp"

namespace {

using namespace chk;
using bench::paper_schemes;

struct Options {
  std::vector<std::string> apps;
  std::vector<double> mtbf_fracs;
  std::uint32_t runs = 0;
  std::uint32_t max_failures = 0;
  std::size_t nodes = 0;
  std::uint32_t checkpoints = 0;
  double intervals = 0;
  std::uint64_t seed = 0;
  std::uint64_t campaign_seed = 0;
  chklib::LinkFaultConfig link_faults;
  xplorer::StorageFaultConfig storage_faults;
  std::uint32_t keep_depth = 0;
  std::optional<chklib::membership::MembershipConfig> membership;
  bool transport = true;
  bool target_coordinator = false;
  std::string json_out;
};

Options read_options(const util::Cli& cli) {
  const bool quick = cli.get_bool("quick", false);
  Options o;
  o.apps = cli.get_list("apps", quick ? "SOR-384" : "SOR-384,NQUEENS-14");
  for (const std::string& label : o.apps) bench::require_app("apps", label);
  o.mtbf_fracs =
      cli.get_doubles("mtbf-fracs", quick ? "0.4,0.8" : "0.35,0.7,1.4", 0.0, HUGE_VAL);
  o.runs = static_cast<std::uint32_t>(cli.get_int("runs", quick ? 2 : 4, 1));
  o.max_failures = static_cast<std::uint32_t>(cli.get_int("max-failures", 6, 0));
  o.nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1));
  o.checkpoints = static_cast<std::uint32_t>(cli.get_int("checkpoints", 0, 0));
  o.intervals = cli.get_double("intervals", 5.0);
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  o.campaign_seed = static_cast<std::uint64_t>(cli.get_int("campaign-seed", 1));
  o.link_faults.drop = cli.get_prob("link-loss", 0.0);
  o.link_faults.duplicate = cli.get_prob("link-dup", 0.0);
  o.link_faults.corrupt = cli.get_prob("link-corrupt", 0.0);
  o.link_faults.delay_prob = cli.get_prob("link-delay", 0.0);
  o.link_faults.delay_mean_s = cli.get_nonneg_double("link-delay-mean", 1e-3);
  o.link_faults.validate();
  const double io_error = cli.get_prob("io-error", 0.0);
  o.storage_faults.write_error = io_error;
  o.storage_faults.read_error = io_error;
  o.storage_faults.bitrot = cli.get_prob("bitrot", 0.0);
  o.storage_faults.degrade_factor = cli.get_nonneg_double("io-degrade", 1.0);
  o.storage_faults.validate();
  o.keep_depth = static_cast<std::uint32_t>(cli.get_int("keep-depth", 0, 0));
  const double detect_timeout = cli.get_nonneg_double("detect-timeout", 0.0);
  const double hb_period = cli.get_nonneg_double("hb-period", 0.25);
  const std::string detector_name = cli.get("detector", "binary");
  const auto detector = chklib::membership::parse_detector(detector_name);
  if (detector != chklib::membership::Detector::kPhiAccrual) {
    // Same discipline as get_prob: a phi knob on the binary detector is a
    // silently-ignored flag waiting to mislead — reject it loudly.
    for (const char* flag : {"phi-threshold", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --detector=phi (the binary "
                                    "detector has no phi knobs)");
      }
    }
  }
  if (detect_timeout > 0) {
    chklib::membership::MembershipConfig m;
    m.detect_timeout = des::Duration::seconds(detect_timeout);
    m.hb_period = des::Duration::seconds(hb_period);
    m.detector = detector;
    if (detector == chklib::membership::Detector::kPhiAccrual) {
      const double threshold = cli.get_nonneg_double("phi-threshold", 8.0);
      if (threshold <= 0) {
        throw std::invalid_argument("--phi-threshold must be positive");
      }
      m.accrual.threshold_milli = static_cast<std::int64_t>(threshold * 1000.0);
      m.accrual.window = static_cast<std::uint32_t>(cli.get_int("phi-window", 32, 1));
    }
    m.validate(o.nodes);
    o.membership = m;
  } else if (cli.has("detector") && detector_name != "binary") {
    throw std::invalid_argument(
        "--detector=phi needs --detect-timeout > 0 to arm the membership "
        "service (the detector has nothing to run on otherwise)");
  }
  o.transport = cli.get_bool("transport", true);
  o.target_coordinator = cli.get_bool("target-coordinator", false);
  if (o.membership.has_value() && !o.transport) {
    throw std::invalid_argument(
        "--detect-timeout requires the reliable transport — heartbeats over raw "
        "lossy links turn every detection timeout into a coin flip (drop "
        "--no-transport)");
  }
  if (o.target_coordinator && !o.membership.has_value()) {
    throw std::invalid_argument(
        "--target-coordinator needs --detect-timeout > 0 — without the "
        "membership service there is no elected coordinator to aim at");
  }
  o.json_out = cli.get_path("json-out").value_or("BENCH_campaign.json");
  return o;
}

/// The claims the campaign document makes, checked before it is written.
void check_document(const obs::json::Value& doc, const Options& opt, bench::Verdict& v) {
  v.expect(doc.at("table").as_string() == "campaign", "table is \"campaign\"");
  v.expect(doc.at("all_verified").as_bool(), "every run reproduced the failure-free digest");
  v.expect(doc.at("link_loss").as_double() == opt.link_faults.drop &&
               doc.at("link_dup").as_double() == opt.link_faults.duplicate,
           "document records the link-fault rates");
  v.expect(doc.at("reliable_transport").as_bool() == opt.transport,
           "document records the transport setting");
  v.expect(doc.at("io_error").as_double() == opt.storage_faults.write_error &&
               doc.at("bitrot").as_double() == opt.storage_faults.bitrot,
           "document records the storage-fault rates");
  v.expect(doc.at("io_degrade").as_double() == opt.storage_faults.degrade_factor,
           "document records the degrade factor");
  const auto& rows = doc.at("rows").items();
  v.expect(rows.size() == opt.apps.size() * opt.mtbf_fracs.size(), "one row per app x MTBF");
  const std::int64_t runs = doc.at("runs").as_int();
  v.expect(runs == static_cast<std::int64_t>(opt.runs), "document records --runs");
  for (const obs::json::Value& row : rows) {
    const std::string& app = row.at("app").as_string();
    const double normal_s = row.at("normal_exec_s").as_double();
    v.expect(row.at("mtbf_s").as_double() > 0 && normal_s > 0, "positive MTBF and T", app);
    const auto& cells = row.at("cells").items();
    v.expect(cells.size() == paper_schemes().size(), "one cell per paper scheme", app);
    for (std::size_t s = 0; s < cells.size() && s < paper_schemes().size(); ++s) {
      v.expect(cells[s].at("scheme").as_string() == to_string(paper_schemes()[s]),
               "cells in paper-scheme order", app);
    }
    for (const obs::json::Value& cell : cells) {
      const std::string where = app + " " + cell.at("scheme").as_string();
      const obs::json::Value& summary = cell.at("summary");
      const auto& outcomes = cell.at("runs").items();
      v.expect(summary.at("runs").as_int() == runs &&
                   outcomes.size() == static_cast<std::size_t>(runs),
               "summary and run list hold --runs runs", where);
      v.expect(summary.at("all_verified").as_bool(), "every run in the cell verified", where);
      v.expect(summary.at("mean_completion_s").as_double() >= normal_s,
               "failures never make a run faster than failure-free", where);
      for (const obs::json::Value& o : outcomes) {
        if (!v.expect_keys(o, {"run", "completion_s", "trace_hash", "failures",
                               "mid_write_failures", "overlap_failures", "recoveries",
                               "interrupted_recoveries", "recovery_time_s", "bytes_read",
                               "bytes_reread", "writes_discarded", "max_domino_depth",
                               "rolled_to_origin", "digest_ok", "retransmits",
                               "dups_suppressed", "corrupt_detected", "link_drops",
                               "aborted_rounds", "io_write_errors", "io_read_errors",
                               "bitrot_injected", "storage_retries",
                               "storage_write_failures", "ckpt_write_failures",
                               "corrupt_discarded", "generations_skipped",
                               "reclaimed_bytes"},
                           where)) {
          continue;
        }
        const auto count = [&o](const char* key) { return o.at(key).as_int(); };
        v.expect(o.at("digest_ok").as_bool(), "run reproduced the digest", where);
        // Under the membership service several strikes can share one
        // detection and its recovery, so only the oracle path has one
        // recovery (or interruption) per strike.
        if (!opt.membership.has_value()) {
          v.expect(count("recoveries") + count("interrupted_recoveries") == count("failures"),
                   "every strike recovered or was interrupted by the next", where);
        }
        v.expect(count("bytes_reread") <= count("bytes_read"),
                 "re-read bytes are a subset of read bytes", where);
        v.expect(bench::is_trace_hash(o.at("trace_hash").as_string()),
                 "16-hex trace hash", where);
        if (opt.max_failures >= 2) {
          v.expect(count("failures") >= 2, ">= 2 strikes per run", where);
          v.expect(count("mid_write_failures") >= 1, "a mid-write strike per run", where);
          v.expect(count("overlap_failures") >= 1, "a during-recovery strike per run", where);
        }
        if (opt.link_faults.drop > 0) {
          v.expect(count("link_drops") > 0, "the link model dropped frames", where);
          if (opt.transport) {
            v.expect(count("retransmits") > 0, "the transport repaired losses", where);
          }
        }
        if (opt.storage_faults.write_error > 0) {
          v.expect(count("io_write_errors") + count("io_read_errors") > 0,
                   "the storage model failed operations", where);
          v.expect(count("storage_retries") > 0, "the storage client retried", where);
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (const int rc = util::parse_flags("campaign", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }
  const std::size_t apps = opt.apps.size();
  const std::size_t fracs = opt.mtbf_fracs.size();
  const std::size_t columns = paper_schemes().size();

  // Failure-free baselines: the MTBF sweep and the checkpoint interval are
  // both expressed relative to each app's normal execution time, and the
  // baseline digest is the ground truth every faulted run must reproduce.
  std::printf("Baselines (no checkpointing, %zu nodes)...\n", opt.nodes);
  const auto normals = bench::parallel_map<harness::ExperimentResult>(apps, [&](std::size_t a) {
    harness::ExperimentConfig config = bench::row_config(harness::find_row(opt.apps[a]));
    config.machine.num_nodes = opt.nodes;
    config.seed = opt.seed;
    return harness::run_normal(config);
  });

  // One campaign per (app, mtbf, scheme) cell, app-major.
  const auto results = bench::parallel_map<faultsim::CampaignResult>(
      apps * fracs * columns, [&](std::size_t i) {
        const std::size_t a = i / (fracs * columns);
        const harness::Scheme scheme = paper_schemes()[i % columns];
        const harness::ExperimentResult& normal = normals[a];
        faultsim::CampaignConfig config;
        config.base = bench::row_config(harness::find_row(opt.apps[a]));
        config.base.scheme = scheme;
        config.base.machine.num_nodes = opt.nodes;
        config.base.seed = opt.seed;
        config.base.checkpoints = opt.checkpoints;
        config.base.interval = des::Duration::seconds(normal.exec_time_s / opt.intervals);
        config.mtbf =
            des::Duration::seconds(normal.exec_time_s * opt.mtbf_fracs[i / columns % fracs]);
        config.runs = opt.runs;
        config.campaign_seed = opt.campaign_seed;
        config.max_failures_per_run = opt.max_failures;
        config.expected_digest = normal.digest;
        // A run still going after 1000x the failure-free event count is
        // livelocked (with the transport off, a lost app message blocks its
        // receiver forever while checkpoint timers keep firing); the event
        // limit turns it into a SimError instead of a 2^40-event run.
        config.base.max_events = normal.events * 1000;
        if (opt.link_faults.enabled()) {
          config.link_faults = opt.link_faults;
          config.reliable_transport = opt.transport;
        }
        if (opt.storage_faults.enabled()) config.storage_faults = opt.storage_faults;
        config.membership = opt.membership;
        // The sweep always spans every scheme; independent schemes have no
        // coordinator to aim at, so they keep the uniform victim draw.
        config.target_coordinator = opt.target_coordinator && chklib::is_coordinated(scheme);
        config.keep_depth = opt.keep_depth;
        return faultsim::run_campaign(config);
      });

  // Expected-completion-time table: rows = app x MTBF, columns = schemes.
  std::vector<std::string> header{"app", "MTBF/T"};
  for (harness::Scheme scheme : paper_schemes()) header.emplace_back(to_string(scheme));
  util::Table table(header);
  bool all_verified = true;
  for (std::size_t i = 0; i < results.size(); i += columns) {
    const std::size_t a = i / (fracs * columns);
    std::vector<std::string> row{opt.apps[a],
                                 util::Table::fixed(opt.mtbf_fracs[i / columns % fracs], 2)};
    for (std::size_t s = 0; s < columns; ++s) {
      const faultsim::CampaignSummary& sum = results[i + s].summary;
      all_verified = all_verified && sum.all_verified;
      const double slowdown = sum.mean_completion_s / normals[a].exec_time_s;
      row.push_back(util::format("{} ({}x)", util::Table::fixed(sum.mean_completion_s, 1),
                                 util::Table::fixed(slowdown, 2)));
    }
    table.add_row(std::move(row));
  }
  std::fputs(
      table
          .render(util::format(
              "Expected completion time under failures (s, mean of {} runs; "
              "MTBF as a fraction of the failure-free time T; every run "
              "injects Poisson failures plus targeted mid-write and "
              "during-recovery strikes; digests verified: {})",
              opt.runs, all_verified ? "yes" : "NO"))
          .c_str(),
      stdout);

  // Machine-readable document: fixed iteration order, simulated quantities
  // only — byte-identical across repeats with the same seeds.
  using obs::json::Value;
  const auto& membership = opt.membership;
  const bool phi =
      membership.has_value() && membership->detector == chklib::membership::Detector::kPhiAccrual;
  Value doc = Value::object();
  doc.set("table", Value::string("campaign"));
  doc.set("nodes", Value::number(std::uint64_t{opt.nodes}));
  doc.set("runs", Value::number(std::uint64_t{opt.runs}));
  doc.set("max_failures_per_run", Value::number(std::uint64_t{opt.max_failures}));
  doc.set("seed", Value::number(opt.seed));
  doc.set("campaign_seed", Value::number(opt.campaign_seed));
  doc.set("link_loss", Value::number(opt.link_faults.drop));
  doc.set("link_dup", Value::number(opt.link_faults.duplicate));
  doc.set("link_corrupt", Value::number(opt.link_faults.corrupt));
  doc.set("link_delay", Value::number(opt.link_faults.delay_prob));
  doc.set("reliable_transport", Value::boolean(opt.transport));
  doc.set("io_error", Value::number(opt.storage_faults.write_error));
  doc.set("io_degrade", Value::number(opt.storage_faults.degrade_factor));
  doc.set("bitrot", Value::number(opt.storage_faults.bitrot));
  doc.set("keep_depth", Value::number(std::uint64_t{opt.keep_depth}));
  doc.set("detect_timeout_s",
          Value::number(membership.has_value() ? membership->detect_timeout.to_seconds()
                                               : 0.0));
  doc.set("hb_period_s",
          Value::number(membership.has_value() ? membership->hb_period.to_seconds()
                                               : 0.0));
  doc.set("detector",
          Value::string(membership.has_value()
                            ? chklib::membership::to_string(membership->detector)
                            : "off"));
  doc.set("phi_threshold",
          Value::number(phi ? static_cast<double>(membership->accrual.threshold_milli) / 1000.0
                            : 0.0));
  doc.set("phi_window",
          Value::number(phi ? std::uint64_t{membership->accrual.window} : std::uint64_t{0}));
  doc.set("target_coordinator", Value::boolean(opt.target_coordinator));
  doc.set("all_verified", Value::boolean(all_verified));
  Value row_array = Value::array();
  for (std::size_t i = 0; i < results.size(); i += columns) {
    const std::size_t a = i / (fracs * columns);
    const double frac = opt.mtbf_fracs[i / columns % fracs];
    Value entry = Value::object();
    entry.set("app", Value::string(opt.apps[a]));
    entry.set("normal_exec_s", Value::number(normals[a].exec_time_s));
    entry.set("mtbf_frac", Value::number(frac));
    entry.set("mtbf_s", Value::number(normals[a].exec_time_s * frac));
    Value cell_array = Value::array();
    for (std::size_t s = 0; s < columns; ++s) {
      const faultsim::CampaignResult& result = results[i + s];
      Value cv = Value::object();
      cv.set("scheme", Value::string(std::string(to_string(paper_schemes()[s]))));
      cv.set("summary", faultsim::summary_to_json(result.summary));
      Value run_array = Value::array();
      for (const faultsim::RunOutcome& outcome : result.outcomes) {
        run_array.push_back(faultsim::outcome_to_json(outcome));
      }
      cv.set("runs", std::move(run_array));
      cell_array.push_back(std::move(cv));
    }
    entry.set("cells", std::move(cell_array));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  bench::Verdict verdict("campaign");
  verdict.check_document([&] { check_document(doc, opt, verdict); });
  obs::write_text_file(opt.json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", opt.json_out.c_str());
  return verdict.exit_code();
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("campaign", err);
}
