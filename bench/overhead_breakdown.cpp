// Paper-style overhead breakdown: where does each scheme's failure-free
// overhead go?
//
// Runs the SOR benchmark under every checkpointing scheme with the obs
// tracer attached and prints the per-scheme attribution table (sync wait,
// memory copy, stable write, storage contention, logging, frozen stalls,
// CPU interference). The paper's central finding shows up directly: the
// stable-storage write dominates and the synchronization share is small.
//
//   ./overhead_breakdown [--n=256] [--iters=60] [--nodes=8] [--checkpoints=3]
//                        [--interval-s=<auto>] [--seed=2026]
//                        [--trace-out=<file>] [--metrics-out=<file>]
//                        [--trace-scheme=Coord_NBM] [--json-out=<file>]
//
// --trace-out writes the selected scheme's run as Chrome/Perfetto trace
// JSON (load with ui.perfetto.dev); --metrics-out writes its metrics
// snapshot + attribution; --json-out (default BENCH_overhead_breakdown.json)
// collects every scheme's breakdown machine-readably. Exit 1 unless the
// document holds all seven schemes and each scheme's summed buckets equal
// its total_s (within 1e-6 s).
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/sor.hpp"
#include "bench_common.hpp"
#include "obs/export.hpp"

namespace {

using namespace chk;

const std::vector<harness::Scheme>& all_schemes() {
  static const std::vector<harness::Scheme> schemes{
      harness::Scheme::kCoordNB,  harness::Scheme::kCoordNBS,
      harness::Scheme::kCoordNBM, harness::Scheme::kCoordNBMS,
      harness::Scheme::kIndep,    harness::Scheme::kIndepM,
      harness::Scheme::kIndepMS};
  return schemes;
}

obs::json::Value scheme_json(const harness::ExperimentResult& result,
                             const harness::ExperimentResult& normal) {
  using obs::json::Value;
  Value entry = Value::object();
  entry.set("scheme", Value::string(std::string(to_string(result.scheme))));
  entry.set("exec_time_s", Value::number(result.exec_time_s));
  entry.set("overhead_s", Value::number(result.exec_time_s - normal.exec_time_s));
  entry.set("trace_hash", Value::string(util::format("{:016x}", result.trace_hash)));
  entry.set("trace_events", Value::number(std::uint64_t{result.obs->trace.events.size()}));
  entry.set("attribution", obs::attribution_to_json(result.obs->attribution));
  return entry;
}

/// The claims the breakdown document makes, checked before it is written.
void check_document(const obs::json::Value& doc, bench::Verdict& v) {
  const auto& schemes = doc.at("schemes").items();
  v.expect(schemes.size() == all_schemes().size(), "one entry per scheme (7)");
  for (const obs::json::Value& scheme : schemes) {
    // The buckets partition each rank's measured overhead, so their sums
    // over ranks must too.
    const obs::json::Value& total = scheme.at("attribution").at("total");
    double sum = 0;
    for (const obs::Bucket& bucket : obs::kBuckets) sum += total.at(bucket.name).as_double();
    v.expect(std::fabs(sum - total.at("total_s").as_double()) < 1e-6,
             "buckets sum to total_s", scheme.at("scheme").as_string());
  }
}

struct Options {
  harness::ExperimentConfig base;
  std::optional<double> interval_s;
  std::string trace_scheme;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  std::string json_out;
};

Options read_options(const util::Cli& cli) {
  Options o;
  o.base.label = "SOR";
  o.base.app = apps::make_sor({
      .n = static_cast<std::size_t>(cli.get_int("n", 256, 1)),
      .iterations = static_cast<std::uint32_t>(cli.get_int("iters", 60, 0)),
  });
  o.base.machine.num_nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1));
  o.base.checkpoints = static_cast<std::uint32_t>(cli.get_int("checkpoints", 3, 0));
  o.base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  o.base.observe = true;
  if (cli.has("interval-s")) o.interval_s = cli.get_double("interval-s", 30.0);
  o.trace_scheme = cli.get("trace-scheme", "Coord_NBM");
  bool known = false;
  for (harness::Scheme scheme : all_schemes()) known = known || to_string(scheme) == o.trace_scheme;
  if (!known) {
    throw std::invalid_argument("--trace-scheme=" + o.trace_scheme +
                                " is not a checkpointing scheme");
  }
  o.trace_out = cli.get_path("trace-out");
  o.metrics_out = cli.get_path("metrics-out");
  o.json_out = cli.get_path("json-out").value_or("BENCH_overhead_breakdown.json");
  return o;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (const int rc = util::parse_flags("overhead_breakdown", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }
  harness::ExperimentConfig& base = opt.base;

  std::printf("Baseline run (no checkpointing, %zu nodes)...\n", base.machine.num_nodes);
  const auto normal = harness::run_normal(base);
  base.interval = des::Duration::seconds(
      opt.interval_s.value_or(normal.exec_time_s / (base.checkpoints + 1.0)));

  // Every scheme's run is independent: fan out, then report in fixed order.
  const auto& schemes = all_schemes();
  const auto results =
      bench::parallel_map<harness::ExperimentResult>(schemes.size(), [&](std::size_t i) {
        harness::ExperimentConfig config = base;
        config.scheme = schemes[i];
        return harness::run_experiment(config);
      });

  // Buckets are summed over ranks (rank-seconds); the comparable total is
  // the wall-clock overhead every rank experiences, overhead x num_ranks.
  // The difference is critical-path idle not chargeable to any one rank
  // (e.g. waiting on a neighbour that is checkpointing).
  util::Table table({"scheme", "overhead (s)", "rank-s", "sync wait", "mem copy",
                     "stable write", "contention", "logging", "frozen", "interference",
                     "attributed", "unattributed"});
  const double ranks = static_cast<double>(base.machine.num_nodes);
  for (const auto& result : results) {
    const obs::RankBuckets& total = result.obs->attribution.total;
    const double overhead = result.exec_time_s - normal.exec_time_s;
    table.add_row({std::string(to_string(result.scheme)), util::Table::fixed(overhead, 3),
                   util::Table::fixed(overhead * ranks, 3),
                   util::Table::fixed(total.sync_wait_s, 3),
                   util::Table::fixed(total.mem_copy_s, 3),
                   util::Table::fixed(total.stable_write_s, 3),
                   util::Table::fixed(total.storage_contention_s, 3),
                   util::Table::fixed(total.logging_s, 3),
                   util::Table::fixed(total.frozen_stall_s, 3),
                   util::Table::fixed(total.interference_s, 3),
                   util::Table::fixed(total.bucket_sum_s(), 3),
                   util::Table::fixed(overhead * ranks - total.bucket_sum_s(), 3)});
  }
  std::fputs(table.render(util::format(
                              "Overhead breakdown by scheme — SOR, {} checkpoints, "
                              "{} nodes (buckets summed over ranks; unattributed = "
                              "overhead x ranks - attributed, the critical-path "
                              "idle not chargeable to one rank)",
                              base.checkpoints, base.machine.num_nodes))
                 .c_str(),
             stdout);

  // Detailed exports for one selected scheme (read_options checked the name).
  const harness::ExperimentResult* selected = nullptr;
  for (const auto& result : results) {
    if (to_string(result.scheme) == opt.trace_scheme) selected = &result;
  }
  if (opt.trace_out) {
    const std::string& path = *opt.trace_out;
    obs::write_text_file(
        path, obs::to_chrome_trace(selected->obs->trace, base.machine.num_nodes).dump());
    std::printf("\nWrote %s (%s, %zu events; open with ui.perfetto.dev)\n", path.c_str(),
                opt.trace_scheme.c_str(), selected->obs->trace.events.size());
  }
  if (opt.metrics_out) {
    using obs::json::Value;
    Value doc = Value::object();
    doc.set("scheme", Value::string(opt.trace_scheme));
    doc.set("metrics", obs::metrics_to_json(selected->obs->metrics));
    doc.set("attribution", obs::attribution_to_json(selected->obs->attribution));
    obs::write_text_file(*opt.metrics_out, doc.dump() + "\n");
    std::printf("Wrote %s\n", opt.metrics_out->c_str());
  }

  // Machine-readable summary of the whole table.
  bench::Verdict verdict("overhead_breakdown");
  {
    using obs::json::Value;
    Value doc = Value::object();
    doc.set("table", Value::string("overhead_breakdown"));
    doc.set("app", Value::string(base.label));
    doc.set("nodes", Value::number(std::uint64_t{base.machine.num_nodes}));
    doc.set("checkpoints", Value::number(std::uint64_t{base.checkpoints}));
    doc.set("normal_exec_s", Value::number(normal.exec_time_s));
    Value entries = Value::array();
    for (const auto& result : results) entries.push_back(scheme_json(result, normal));
    doc.set("schemes", std::move(entries));
    verdict.check_document([&] { check_document(doc, verdict); });
    obs::write_text_file(opt.json_out, doc.dump() + "\n");
    std::printf("Wrote %s\n", opt.json_out.c_str());
  }
  return verdict.exit_code();
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("overhead_breakdown", err);
}
