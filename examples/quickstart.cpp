// Quickstart: run one of the paper's benchmarks (SOR) under the best
// coordinated scheme (Coord_NBMS: non-blocking, main-memory buffered,
// staggered) and print the failure-free overhead breakdown.
//
//   ./quickstart [--scheme=Coord_NBMS] [--n=512] [--iters=100]
//                [--interval-s=30] [--checkpoints=3] [--nodes=8] [--verify]
//                [--trace-out=<file>] [--metrics-out=<file>]
//
// --trace-out attaches the obs tracer and writes the run as Chrome/Perfetto
// trace JSON (load with ui.perfetto.dev); --metrics-out writes the metrics
// snapshot and the per-rank overhead attribution. Observation never changes
// the simulation: the trace hash is identical with these flags on or off.
#include <cstdio>
#include <optional>
#include <string>

#include "apps/sor.hpp"
#include "harness/experiment.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace chk;

struct Options {
  harness::ExperimentConfig config;
  std::optional<double> interval_s;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
};

Options read_options(const util::Cli& cli) {
  Options o;
  harness::ExperimentConfig& config = o.config;
  config.label = "SOR";
  config.app = apps::make_sor({
      .n = static_cast<std::size_t>(cli.get_int("n", 512, 1)),
      .iterations = static_cast<std::uint32_t>(cli.get_int("iters", 100, 0)),
  });
  config.scheme = chklib::scheme_from_string(cli.get("scheme", "Coord_NBMS"));
  config.checkpoints = static_cast<std::uint32_t>(cli.get_int("checkpoints", 3, 0));
  config.machine.num_nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1));
  config.verify = util::verify_requested(cli);
  if (cli.has("interval-s")) o.interval_s = cli.get_double("interval-s", 30.0);
  o.trace_out = cli.get_path("trace-out");
  o.metrics_out = cli.get_path("metrics-out");
  config.observe = o.trace_out.has_value() || o.metrics_out.has_value();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = util::parse_flags("quickstart", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }
  harness::ExperimentConfig& config = opt.config;

  std::printf("Running %s on %zu simulated T805 nodes...\n", config.label.c_str(),
              config.machine.num_nodes);
  const auto normal = harness::run_normal(config);
  // Default interval: a quarter of the failure-free run, so the requested
  // checkpoints comfortably fit (the paper used per-application intervals).
  config.interval = des::Duration::seconds(
      opt.interval_s.value_or(normal.exec_time_s / (config.checkpoints + 1.0)));
  const auto result = harness::run_experiment(config);

  util::Table table({"metric", "value"});
  table.add_row({"scheme", std::string(to_string(config.scheme))});
  table.add_row({"normal execution", util::Table::seconds(normal.exec_time_s)});
  table.add_row({"with checkpointing", util::Table::seconds(result.exec_time_s)});
  table.add_row({"overhead", util::Table::percent(
                                 result.exec_time_s / normal.exec_time_s - 1.0, 2)});
  table.add_row({"checkpoints taken", util::Table::integer(
                                          static_cast<long long>(result.local_checkpoints))});
  table.add_row({"app blocked (all ranks)", util::Table::seconds(result.app_blocked_s)});
  table.add_row({"sync (control) messages", util::Table::integer(
                                                static_cast<long long>(result.control_messages))});
  table.add_row({"sync (control) bytes", util::Table::bytes(
                                              static_cast<double>(result.control_bytes))});
  table.add_row({"checkpoint bytes written", util::Table::bytes(
                                                 static_cast<double>(result.bytes_written))});
  table.add_row({"peak stable storage", util::Table::bytes(
                                            static_cast<double>(result.peak_storage_bytes))});
  table.add_row({"disk queueing time", util::Table::seconds(result.disk_wait_s)});
  if (result.obs) {
    const obs::RankBuckets& attributed = result.obs->attribution.total;
    table.add_row({"  sync wait", util::Table::seconds(attributed.sync_wait_s)});
    table.add_row({"  memory copy", util::Table::seconds(attributed.mem_copy_s)});
    table.add_row({"  stable write", util::Table::seconds(attributed.stable_write_s)});
    table.add_row({"  storage contention",
                   util::Table::seconds(attributed.storage_contention_s)});
    table.add_row({"  logging", util::Table::seconds(attributed.logging_s)});
    table.add_row({"  frozen stalls", util::Table::seconds(attributed.frozen_stall_s)});
    table.add_row({"  CPU interference", util::Table::seconds(attributed.interference_s)});
  }
  table.add_row({"result digest", util::Table::fixed(result.digest.value_or(0.0), 0)});
  if (config.verify) {
    table.add_row({"invariant checks", util::Table::integer(
                                           static_cast<long long>(result.invariant_checks))});
    table.add_row({"invariant violations",
                   util::Table::integer(static_cast<long long>(result.invariant_violations))});
  }
  std::fputs(table.render("CHK-LIB quickstart").c_str(), stdout);

  if (result.obs) {
    if (opt.trace_out) {
      const std::string& path = *opt.trace_out;
      obs::write_text_file(
          path,
          obs::to_chrome_trace(result.obs->trace, config.machine.num_nodes).dump());
      std::printf("Wrote %s (%zu events; open with ui.perfetto.dev)\n", path.c_str(),
                  result.obs->trace.events.size());
    }
    if (opt.metrics_out) {
      using obs::json::Value;
      Value doc = Value::object();
      doc.set("scheme", Value::string(std::string(to_string(config.scheme))));
      doc.set("metrics", obs::metrics_to_json(result.obs->metrics));
      doc.set("attribution", obs::attribution_to_json(result.obs->attribution));
      const std::string& path = *opt.metrics_out;
      obs::write_text_file(path, doc.dump() + "\n");
      std::printf("Wrote %s\n", path.c_str());
    }
  }

  if (result.digest != normal.digest) {
    std::fputs("ERROR: checkpointing changed the application result!\n", stderr);
    return 1;
  }
  std::puts("Result verified: identical to the run without checkpointing.");
  return 0;
}
