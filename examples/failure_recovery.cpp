// Failure injection and rollback recovery, end to end.
//
// Runs the ASP benchmark with coordinated checkpointing, crashes a node
// mid-run, recovers from the last committed global checkpoint, and shows
// that the recomputed result is bit-identical to a failure-free run.
//
//   ./failure_recovery [--fail-at-frac=0.6] [--fail-rank=3] [--n=256] [--verify]
#include <cstdio>

#include "apps/asp.hpp"
#include "harness/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace chk;
  double fail_frac = 0;
  chklib::Rank fail_rank = 0;
  harness::ExperimentConfig config;
  config.label = "ASP";
  config.scheme = harness::Scheme::kCoordNB;
  config.checkpoints = 0;  // periodic until the run completes
  if (const int rc = util::parse_flags("failure_recovery", argc, argv, [&](const util::Cli& cli) {
        fail_frac = cli.get_double("fail-at-frac", 0.6);
        fail_rank = static_cast<chklib::Rank>(cli.get_int("fail-rank", 3, 0));
        config.app = apps::make_asp({.n = static_cast<std::size_t>(cli.get_int("n", 256, 1))});
        config.verify = util::verify_requested(cli);
      })) {
    return rc;
  }

  const auto normal = harness::run_normal(config);
  config.interval = des::Duration::seconds(normal.exec_time_s / 5.0);
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * fail_frac),
      fail_rank};

  std::printf("Failure-free run: %.2f s (digest %.0f)\n", normal.exec_time_s,
              normal.digest.value());
  std::printf("Crashing node %zu at t=%.2f s ...\n", std::size_t{fail_rank},
              normal.exec_time_s * fail_frac);

  const auto result = harness::run_experiment(config);
  if (result.recoveries.empty()) {
    std::fputs("no recovery happened (failure scheduled after completion?)\n", stderr);
    return 1;
  }
  const auto& report = result.recoveries.front();

  util::Table table({"metric", "value"});
  table.add_row({"failed at", util::Table::seconds(report.failed_at.to_seconds())});
  table.add_row({"committed epoch restored",
                 util::Table::integer(report.line.index[fail_rank])});
  table.add_row({"recovery latency (reads)", util::Table::seconds(
                                                 report.recovery_latency.to_seconds())});
  table.add_row({"rollback distance (failed rank)",
                 util::Table::seconds(report.rollback_distance[fail_rank].to_seconds())});
  table.add_row({"state bytes re-read", util::Table::bytes(
                                            static_cast<double>(report.bytes_read))});
  table.add_row({"channel messages replayed",
                 util::Table::integer(static_cast<long long>(report.channel_messages_replayed))});
  table.add_row({"total run time", util::Table::seconds(result.exec_time_s)});
  table.add_row({"vs failure-free", util::Table::percent(
                                        result.exec_time_s / normal.exec_time_s - 1.0, 1)});
  std::fputs(table.render("Coordinated rollback recovery").c_str(), stdout);

  if (result.digest != normal.digest) {
    std::fputs("ERROR: recovered run computed a different result!\n", stderr);
    return 1;
  }
  std::puts("Recovered result verified: bit-identical to the failure-free run.");
  return 0;
}
