// Ablation: incremental checkpointing (the related-work technique of [13])
// on top of Coord_NBM, across applications with very different dirty-state
// profiles:
//   ISING — quenched couplings never change: deltas are small;
//   GAUSS — rows freeze as the pivot passes them: deltas shrink over time;
//   SOR   — every *reached* cell is dirtied each iteration, but heat
//           propagates one row per iteration, so early checkpoints of a
//           large cold grid still have large clean (exactly-zero) regions.
//
//   ./ablation_incremental        (no flags)
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

/// Columns of the grid: full images, then incremental.
constexpr bool kModes[] = {false, true};

void print_table(const std::vector<BenchRow>& rows, const Grid& grid) {
  util::Table table({"app", "mode", "overhead", "ckpt bytes written", "bytes saved"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = grid.normals[r];
    const ExperimentResult& full = grid.cell(r, 0);
    const ExperimentResult& inc = grid.cell(r, 1);
    for (bool incremental : kModes) {
      const auto& result = incremental ? inc : full;
      table.add_row({rows[r].label, incremental ? "incremental" : "full",
                     util::Table::percent(result.exec_time_s / normal.exec_time_s - 1.0, 2),
                     util::Table::bytes(static_cast<double>(result.bytes_written)),
                     incremental
                         ? util::Table::percent(
                               1.0 - static_cast<double>(inc.bytes_written) /
                                         static_cast<double>(full.bytes_written),
                               1)
                         : std::string("-")});
    }
    table.add_separator();
  }
  std::fputs(table.render("Incremental checkpointing on Coord_NBM "
                          "(6 checkpoints, full image every 3rd)")
                 .c_str(),
             stdout);
  std::puts("\nIncremental checkpointing attacks the same bottleneck the paper\n"
            "identified (checkpoint saving), and helps exactly where the dirty\n"
            "fraction is small — the mechanism behind [13]'s results.");
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("ablation_incremental", argc, argv)) return rc;
  const std::vector<BenchRow> rows{chk::harness::find_row("ISING-1024"),
                                   chk::harness::find_row("GAUSS-1024"),
                                   chk::harness::find_row("SOR-1024")};
  const Grid grid = run_grid(
      row_configs(rows), std::size(kModes),
      [&](std::size_t r, std::size_t m, const ExperimentResult& normal) {
        ExperimentConfig config = row_config(rows[r]);
        config.scheme = Scheme::kCoordNBM;
        config.checkpoints = 6;
        config.interval = chk::des::Duration::seconds(normal.exec_time_s / 7.0);
        config.incremental = kModes[m];
        config.full_every = 3;
        return config;
      });
  print_table(rows, grid);
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("ablation_incremental", err);
}
