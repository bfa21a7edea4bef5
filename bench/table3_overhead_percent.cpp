// Table 3 of the paper: performance overhead (%) of the checkpointing
// schemes, same runs as Table 2, plus the paper's headline metric — the
// overhead reduction factor of Coord_NBMS relative to Coord_NB (the paper
// observed factors of 4 up to 17).
//
//   ./table3_overhead_percent        (no flags; writes BENCH_table3.json)
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table(const std::vector<BenchRow>& rows, const Grid& grid) {
  util::Table table({"", "Interval (s)", "COORD NB", "INDEP", "COORD NBMS", "INDEP M",
                     "NBMS gain vs NB"});
  double min_factor = 1e300, max_factor = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = grid.normals[r];
    std::vector<std::string> cells{rows[r].label};
    cells.push_back(util::Table::fixed(normal.exec_time_s / 4.0, 0));
    double nb_overhead = -1, nbms_overhead = -1;
    for (std::size_t s = 0; s < grid.columns; ++s) {
      const Scheme scheme = table23_schemes()[s];
      const double overhead = grid.cell(r, s).exec_time_s / normal.exec_time_s - 1.0;
      cells.push_back(util::Table::percent(overhead, 2));
      if (scheme == Scheme::kCoordNB) nb_overhead = overhead;
      if (scheme == Scheme::kCoordNBMS) nbms_overhead = overhead;
    }
    if (nb_overhead > 0 && nbms_overhead > 0) {
      const double factor = nb_overhead / nbms_overhead;
      cells.push_back(util::format("{:.1f}x", factor));
      // The paper's 4-17x range is over rows with substantive overhead;
      // near-zero overheads make the ratio meaningless.
      if (nb_overhead >= 0.02) {
        min_factor = std::min(min_factor, factor);
        max_factor = std::max(max_factor, factor);
      }
    } else {
      cells.push_back("-");
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.render("Table 3: performance overhead of the checkpointing schemes")
                 .c_str(),
             stdout);
  if (max_factor > 0) {
    std::printf(
        "\nCoord_NBMS reduces the overhead of Coord_NB by a factor of %.1f up to %.1f"
        " (paper: 4 up to 17).\n",
        min_factor, max_factor);
  }
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("table3_overhead_percent", argc, argv)) return rc;
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
  write_bench_json("BENCH_table3.json", table_json("table3_overhead_percent", rows, grid));
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("table3_overhead_percent", err);
}
