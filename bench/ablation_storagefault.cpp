// Storage-fault ablation: scheme robustness and cost over unreliable
// stable storage.
//
// The paper treats the stable store as perfectly reliable; this sweep
// measures what absorbing storage misbehaviour costs. Each error point
// sets the per-operation write/read I/O-error probability to `rate`,
// silent bit-rot to rate/5 and a 1.5x degraded-throughput window process,
// then runs every paper scheme on the same app under an identical crash
// schedule (Poisson failures plus targeted mid-write and during-recovery
// strikes). The retrying storage client absorbs transient errors, failed
// rounds/intervals are skipped or re-initiated, and verified recovery
// falls back past rotted generations — so every run must still reproduce
// the failure-free digest.
//
//   ./ablation_storagefault [--app=SOR-384] [--rates=0.05,0.1,0.2]
//                           [--nodes=8] [--checkpoints=0] [--intervals=5]
//                           [--mtbf-frac=0.7] [--max-failures=3]
//                           [--seed=2026]
//                           [--json-out=BENCH_storagefault.json] [--quick]
//
// --quick shrinks the sweep (1 error point). Output is byte-identical
// across repeats with the same seed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"

namespace {

using namespace chk;
using bench::paper_schemes;

struct Options {
  std::string app;
  std::vector<double> rates;
  std::size_t nodes = 0;
  std::uint32_t checkpoints = 0;
  double intervals = 0;
  double mtbf_frac = 0;
  std::uint32_t max_failures = 0;
  std::uint64_t seed = 0;
  std::string json_out;
};

Options read_options(const util::Cli& cli) {
  const bool quick = cli.get_bool("quick", false);
  Options o;
  o.app = cli.get("app", "SOR-384");
  bench::require_app("app", o.app);
  o.rates = cli.get_doubles("rates", quick ? "0.1" : "0.05,0.1,0.2", 0.0, 1.0);
  o.nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1));
  o.checkpoints = static_cast<std::uint32_t>(cli.get_int("checkpoints", 0, 0));
  o.intervals = cli.get_double("intervals", 5.0);
  o.mtbf_frac = cli.get_double("mtbf-frac", 0.7);
  o.max_failures = static_cast<std::uint32_t>(cli.get_int("max-failures", 3, 0));
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  o.json_out = cli.get_path("json-out").value_or("BENCH_storagefault.json");
  return o;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (const int rc = util::parse_flags("ablation_storagefault", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }

  // Baseline: failure-free, perfect storage — sets the checkpoint interval,
  // the crash process MTBF and the digest every faulted run must compute.
  harness::ExperimentConfig base = bench::row_config(harness::find_row(opt.app));
  base.machine.num_nodes = opt.nodes;
  base.seed = opt.seed;
  base.checkpoints = opt.checkpoints;
  const harness::ExperimentResult normal = harness::run_normal(base);
  base.interval = des::Duration::seconds(normal.exec_time_s / opt.intervals);
  // Identical crash schedule at every error point: the fault plan's arrival
  // stream is schedule-independent, so the columns isolate pure storage-
  // fault cost under the same failures.
  faultsim::FaultPlan crashes;
  crashes.mtbf = des::Duration::seconds(normal.exec_time_s * opt.mtbf_frac);
  crashes.max_failures = opt.max_failures;
  crashes.stream = 1;
  base.faults = crashes;

  // Rate 0 first (the per-scheme reference: crashes but perfect storage),
  // then the sweep; all cells fan out and are collected in fixed order.
  std::vector<double> points;
  points.push_back(0.0);
  points.insert(points.end(), opt.rates.begin(), opt.rates.end());
  const std::size_t columns = paper_schemes().size();
  const auto results = bench::parallel_map<harness::ExperimentResult>(
      points.size() * columns, [&](std::size_t i) {
        const double rate = points[i / columns];
        harness::ExperimentConfig config = base;
        config.scheme = paper_schemes()[i % columns];
        if (rate > 0.0) {
          xplorer::StorageFaultConfig faults;
          faults.write_error = rate;
          faults.read_error = rate;
          faults.bitrot = rate / 5;
          faults.degrade_factor = 1.5;
          config.storage_faults = faults;
        }
        return harness::run_experiment(config);
      });

  bool all_ok = true;
  for (const harness::ExperimentResult& r : results) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }

  std::vector<std::string> header{"rate"};
  for (harness::Scheme scheme : paper_schemes()) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row{util::Table::fixed(points[p], 2)};
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      const double reference = results[s].exec_time_s;  // rate 0, same scheme
      const double overhead = (r.exec_time_s / reference - 1.0) * 100.0;
      row.push_back(util::format("{} ({}%) rty={} gen={}",
                                 util::Table::fixed(r.exec_time_s, 1),
                                 util::Table::fixed(overhead, 1), r.storage_retries,
                                 r.generations_skipped));
    }
    table.add_row(std::move(row));
  }
  std::fputs(
      table
          .render(util::format(
              "{} on {} nodes over unreliable stable storage (write/read "
              "error=rate, bit-rot=rate/5, 1.5x degraded windows; identical "
              "crash schedule per column, MTBF {}T, <= {} failures; exec "
              "time s, overhead vs the same scheme at rate 0, client "
              "retries, generation fallbacks; digests + invariants "
              "verified: {})",
              opt.app, opt.nodes, util::Table::fixed(opt.mtbf_frac, 2), opt.max_failures,
              all_ok ? "yes" : "NO"))
          .c_str(),
      stdout);

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("storagefault"));
  doc.set("app", Value::string(opt.app));
  doc.set("nodes", Value::number(std::uint64_t{opt.nodes}));
  doc.set("seed", Value::number(opt.seed));
  doc.set("mtbf_frac", Value::number(opt.mtbf_frac));
  doc.set("max_failures", Value::number(std::uint64_t{opt.max_failures}));
  doc.set("normal_exec_s", Value::number(normal.exec_time_s));
  doc.set("all_verified", Value::boolean(all_ok));
  Value row_array = Value::array();
  index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    Value entry = Value::object();
    entry.set("rate", Value::number(points[p]));
    Value cell_array = Value::array();
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      Value cv = Value::object();
      cv.set("scheme", Value::string(std::string(to_string(r.scheme))));
      cv.set("exec_s", Value::number(r.exec_time_s));
      cv.set("io_write_errors", Value::number(r.io_write_errors));
      cv.set("io_read_errors", Value::number(r.io_read_errors));
      cv.set("bitrot_injected", Value::number(r.bitrot_injected));
      cv.set("degraded_ops", Value::number(r.degraded_ops));
      cv.set("storage_retries", Value::number(r.storage_retries));
      cv.set("storage_write_failures", Value::number(r.storage_write_failures));
      cv.set("storage_read_failures", Value::number(r.storage_read_failures));
      cv.set("storage_retry_wait_s", Value::number(r.storage_retry_wait_s));
      cv.set("ckpt_write_failures", Value::number(r.ckpt_write_failures));
      cv.set("commit_write_failures", Value::number(std::uint64_t{r.commit_write_failures}));
      cv.set("corrupt_discarded", Value::number(r.corrupt_discarded));
      cv.set("generations_skipped", Value::number(std::uint64_t{r.generations_skipped}));
      cv.set("reclaimed_bytes", Value::number(r.reclaimed_bytes));
      cv.set("aborted_rounds", Value::number(std::uint64_t{r.aborted_rounds}));
      cv.set("committed_rounds", Value::number(std::uint64_t{r.committed_rounds}));
      cv.set("recoveries", Value::number(std::uint64_t{r.recoveries.size()}));
      cv.set("digest_ok", Value::boolean(r.digest == normal.digest));
      cv.set("invariant_violations", Value::number(r.invariant_violations));
      cell_array.push_back(std::move(cv));
    }
    entry.set("cells", std::move(cell_array));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  obs::write_text_file(opt.json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", opt.json_out.c_str());
  return all_ok ? 0 : 1;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("ablation_storagefault", err);
}
