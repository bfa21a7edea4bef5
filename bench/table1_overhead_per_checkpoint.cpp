// Table 1 of the paper: overhead per checkpoint (seconds) for the 21
// application configurations under Coord_NB, Indep, Coord_NBM, Indep_M and
// Coord_NBMS.
//
// Methodology (matching the paper's definition): run each configuration
// without checkpointing, then with exactly one checkpoint per process near
// mid-run; the overhead per checkpoint is the difference in completion
// time. Expected shape: Indep is NOT better than Coord_NB in most rows
// (autonomous checkpoints stall tightly-coupled neighbours once per node);
// Indep_M edges out Coord_NBM (spread background writes contend less); and
// Coord_NBMS beats everything.
//
//   ./table1_overhead_per_checkpoint        (no flags; writes BENCH_table1.json)
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table(const std::vector<BenchRow>& rows, const Grid& grid) {
  util::Table table({"Applications", "Coord NB", "Indep", "Coord NBM", "Indep M",
                     "Coord NBMS"});
  int nb_wins = 0, nb_comparisons = 0;
  int indep_m_wins = 0, m_comparisons = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> cells{rows[r].label};
    double nb = -1, indep = -1, nbm = -1, indep_m = -1;
    for (std::size_t s = 0; s < paper_schemes().size(); ++s) {
      const Scheme scheme = paper_schemes()[s];
      const double overhead = grid.cell(r, s).exec_time_s - grid.normals[r].exec_time_s;
      cells.push_back(util::Table::fixed(overhead, 2));
      if (scheme == Scheme::kCoordNB) nb = overhead;
      if (scheme == Scheme::kIndep) indep = overhead;
      if (scheme == Scheme::kCoordNBM) nbm = overhead;
      if (scheme == Scheme::kIndepM) indep_m = overhead;
    }
    if (nb >= 0 && indep >= 0) {
      ++nb_comparisons;
      nb_wins += (indep >= nb);
    }
    if (nbm >= 0 && indep_m >= 0) {
      ++m_comparisons;
      indep_m_wins += (indep_m <= nbm);
    }
    table.add_row(std::move(cells));
  }
  std::fputs(
      table.render("Table 1: overhead per checkpoint (seconds), 8 nodes").c_str(),
      stdout);
  std::printf("\nPaper's qualitative findings on this run:\n");
  std::printf("  Indep did not beat Coord_NB in %d of %d configurations"
              " (paper: 15 of 21).\n", nb_wins, nb_comparisons);
  std::printf("  Indep_M at least matched Coord_NBM in %d of %d configurations"
              " (paper: 12 of 15 decided).\n", indep_m_wins, m_comparisons);
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("table1_overhead_per_checkpoint", argc, argv)) {
    return rc;
  }
  const std::vector<BenchRow> rows = chk::harness::table1_rows();
  const Grid grid = run_grid(
      row_configs(rows), paper_schemes().size(),
      [&](std::size_t r, std::size_t s, const ExperimentResult& normal) {
        ExperimentConfig config = row_config(rows[r]);
        config.scheme = paper_schemes()[s];
        config.checkpoints = 1;
        config.interval = chk::des::Duration::seconds(normal.exec_time_s / 2.0);
        return config;
      });
  print_table(rows, grid);
  write_bench_json("BENCH_table1.json",
                   table_json("table1_overhead_per_checkpoint", rows, grid));
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("table1_overhead_per_checkpoint", err);
}
