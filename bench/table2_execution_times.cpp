// Table 2 of the paper: execution times of the checkpointing schemes.
//
// SOR and ISING run 100 iterations, NBODY simulates 10 steps (as in the
// paper); every application is checkpointed 3 times during its execution,
// with a per-application interval (the paper used 1-7 minutes; here the
// interval is a quarter of the failure-free execution time so three
// checkpoints always fit, and is printed alongside, as in the paper).
//
//   ./table2_execution_times        (no flags; writes BENCH_table2.json)
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table(const std::vector<BenchRow>& rows, const Grid& grid) {
  util::Table table({"", "Interval (s)", "NORMAL", "COORD NB", "INDEP", "COORD NBMS",
                     "INDEP M"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = grid.normals[r];
    std::vector<std::string> cells{rows[r].label};
    cells.push_back(util::Table::fixed(normal.exec_time_s / 4.0, 0));
    cells.push_back(util::Table::fixed(normal.exec_time_s, 1));
    for (std::size_t s = 0; s < grid.columns; ++s) {
      cells.push_back(util::Table::fixed(grid.cell(r, s).exec_time_s, 1));
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.render(
                 "Table 2: execution times (seconds), 3 checkpoints per run, 8 nodes")
                 .c_str(),
             stdout);
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("table2_execution_times", argc, argv)) return rc;
  const std::vector<BenchRow> rows = chk::harness::table23_rows();
  const Grid grid = run_grid(
      row_configs(rows), table23_schemes().size(),
      [&](std::size_t r, std::size_t s, const ExperimentResult& normal) {
        ExperimentConfig config = row_config(rows[r]);
        config.scheme = table23_schemes()[s];
        config.checkpoints = 3;
        config.interval = chk::des::Duration::seconds(normal.exec_time_s / 4.0);
        return config;
      });
  print_table(rows, grid);
  write_bench_json("BENCH_table2.json", table_json("table2_execution_times", rows, grid));
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("table2_execution_times", err);
}
