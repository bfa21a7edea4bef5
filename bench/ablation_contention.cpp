// Ablation: the contention mechanism.
//
// The paper attributes Coord_NB's overhead to "the nearly simultaneous
// occurrence of all checkpoints, which is likely to result in contention
// for the communication network and the stable storage". A disk-bandwidth
// sweep makes the mechanism visible: SOR-768 with three checkpoints under
// Coord_NB, Indep, Coord_NBM and Coord_NBMS while the disk and host link
// run at x0.25 to x16 of their calibrated speed. As the disk gets faster,
// the NB/Indep gap and the benefit of staggering shrink (the bottleneck
// dissolves).
//
//   ./ablation_contention        (no flags)
#include <cstdio>

#include "apps/sor.hpp"
#include "bench_common.hpp"

namespace chk::bench {
namespace {

const std::vector<double>& disk_factors() {
  static const std::vector<double> factors{0.25, 0.5, 1.0, 2.0, 4.0, 16.0};
  return factors;
}

const std::vector<Scheme>& sweep_schemes() {
  static const std::vector<Scheme> all{Scheme::kCoordNB, Scheme::kIndep,
                                       Scheme::kCoordNBM, Scheme::kCoordNBMS};
  return all;
}

ExperimentConfig disk_config(double bandwidth_factor) {
  auto machine = xplorer::MachineConfig::parsytec_xplorer();
  machine.disk.bandwidth *= bandwidth_factor;
  machine.host_link.bandwidth *= bandwidth_factor;

  ExperimentConfig config;
  config.label = util::format("SOR/disk{:g}", bandwidth_factor);
  config.app = apps::make_sor({.n = 768, .iterations = 100});
  config.machine = machine;
  return config;
}

void print_table(const Grid& grid) {
  util::Table table({"disk speed", "NORMAL (s)", "Coord_NB (s)", "Indep (s)",
                     "Coord_NBM (s)", "Coord_NBMS (s)", "NB/NBMS"});
  for (std::size_t f = 0; f < disk_factors().size(); ++f) {
    const double normal = grid.normals[f].exec_time_s;
    // Overhead (s) per column of sweep_schemes().
    auto overhead = [&](std::size_t s) { return grid.cell(f, s).exec_time_s - normal; };
    const double nb = overhead(0);
    const double nbms = overhead(3);
    table.add_row({util::format("x{:g}", disk_factors()[f]), util::Table::fixed(normal, 1),
                   util::Table::fixed(nb, 2), util::Table::fixed(overhead(1), 2),
                   util::Table::fixed(overhead(2), 2), util::Table::fixed(nbms, 2),
                   nbms > 1e-6 ? util::format("{:.1f}x", nb / nbms) : "-"});
  }
  std::fputs(table.render("Overhead (s) vs stable-storage speed — SOR-768, 3 checkpoints")
                 .c_str(),
             stdout);
  std::puts("\nA slower disk amplifies exactly the contention the paper identifies;\n"
            "a fast disk dissolves it and the schemes converge.");
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("ablation_contention", argc, argv)) return rc;
  std::vector<ExperimentConfig> bases;
  for (double factor : disk_factors()) bases.push_back(disk_config(factor));
  const Grid grid = run_grid(
      bases, sweep_schemes().size(),
      [&](std::size_t f, std::size_t s, const ExperimentResult& normal) {
        ExperimentConfig config = bases[f];
        config.scheme = sweep_schemes()[s];
        config.checkpoints = 3;
        config.interval = chk::des::Duration::seconds(normal.exec_time_s / 4.0);
        return config;
      });
  print_table(grid);
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("ablation_contention", err);
}
