// Ablation: the two optimization techniques of §2.2 — main-memory
// checkpointing (M) and checkpoint staggering (S) — applied separately and
// together, for both protocol classes.
//
// Paper's finding: "checkpoint staggering was only an effective solution
// when used together with the other optimization technique: main-memory
// checkpointing". Staggering a *blocking* write (Coord_NBS) serializes the
// stalls and is no better (often worse) than Coord_NB; staggering the
// *background* writes (Coord_NBMS) removes the stable-storage contention
// and wins decisively.
//
//   ./ablation_staggering        (no flags)
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

const std::vector<Scheme>& schemes() {
  static const std::vector<Scheme> all{
      Scheme::kCoordNB,   Scheme::kCoordNBS, Scheme::kCoordNBM,
      Scheme::kCoordNBMS, Scheme::kIndep,    Scheme::kIndepM,
      Scheme::kIndepMS,
  };
  return all;
}

void print_table(const std::vector<BenchRow>& rows, const Grid& grid) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = grid.normals[r];
    util::Table table({"scheme", "buffered?", "staggered?", "exec (s)", "overhead",
                       "app blocked (s)", "disk wait (s)"});
    for (std::size_t s = 0; s < schemes().size(); ++s) {
      const Scheme scheme = schemes()[s];
      const ExperimentResult& result = grid.cell(r, s);
      table.add_row({std::string(chklib::to_string(scheme)),
                     chklib::is_buffered(scheme) ? "yes" : "no",
                     chklib::is_staggered(scheme) ? "yes" : "no",
                     util::Table::fixed(result.exec_time_s, 1),
                     util::Table::percent(result.exec_time_s / normal.exec_time_s - 1.0, 2),
                     util::Table::fixed(result.app_blocked_s, 2),
                     util::Table::fixed(result.disk_wait_s, 2)});
    }
    std::fputs(table.render(util::format(
                                "Staggering x buffering ablation — {} (normal {:.1f} s)",
                                rows[r].label, normal.exec_time_s))
                   .c_str(),
               stdout);
    std::puts("");
  }
  // The headline checks, on the first row (SOR-1024); columns follow schemes().
  const double nb = grid.cell(0, 0).exec_time_s;
  const double nbs = grid.cell(0, 1).exec_time_s;
  const double nbm = grid.cell(0, 2).exec_time_s;
  const double nbms = grid.cell(0, 3).exec_time_s;
  std::printf("Staggering alone:       %+.1f %% change vs Coord_NB (paper: not effective)\n",
              (nbs / nb - 1.0) * 100.0);
  std::printf("Buffering alone:        %+.1f %% change vs Coord_NB\n",
              (nbm / nb - 1.0) * 100.0);
  std::printf("Buffering + staggering: %+.1f %% change vs Coord_NB (the paper's winner)\n",
              (nbms / nb - 1.0) * 100.0);
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("ablation_staggering", argc, argv)) return rc;
  const std::vector<BenchRow> rows{chk::harness::find_row("SOR-1024"),
                                   chk::harness::find_row("ISING-1024")};
  const Grid grid = run_grid(
      row_configs(rows), schemes().size(),
      [&](std::size_t r, std::size_t s, const ExperimentResult& normal) {
        ExperimentConfig config = row_config(rows[r]);
        config.scheme = schemes()[s];
        config.checkpoints = 3;
        config.interval = chk::des::Duration::seconds(normal.exec_time_s / 4.0);
        return config;
      });
  print_table(rows, grid);
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("ablation_staggering", err);
}
