// Storage overhead: the paper's qualitative claim that independent
// checkpointing "implies a large storage overhead... several checkpoints
// have to be kept in stable storage, even if the recovery system makes use
// of some garbage collection algorithm", while coordinated checkpointing
// keeps exactly one committed generation.
//
// We run SOR (tightly coupled: the strict recovery line cannot advance, so
// GC reclaims nothing) and NQUEENS (loosely coupled: GC can reclaim) with
// 6 checkpoints and compare peak/final stable-storage footprints.
//
//   ./storage_overhead        (no flags)
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

struct Variant {
  const char* name;
  Scheme scheme;
  bool gc;
  chklib::LineMode gc_mode;
};

const std::vector<Variant>& variants() {
  static const std::vector<Variant> all{
      {"Coord_NB (commit GC)", Scheme::kCoordNB, false, chklib::LineMode::kStrict},
      {"Indep, no GC", Scheme::kIndep, false, chklib::LineMode::kStrict},
      {"Indep, GC strict", Scheme::kIndep, true, chklib::LineMode::kStrict},
      {"Indep, GC orphan-free", Scheme::kIndep, true, chklib::LineMode::kOrphanFree},
  };
  return all;
}

void print_table(const std::vector<BenchRow>& rows, const Grid& grid) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    util::Table table({"variant", "peak storage", "final storage", "ckpts kept",
                       "GC reclaimed"});
    for (std::size_t v = 0; v < variants().size(); ++v) {
      const ExperimentResult& result = grid.cell(r, v);
      table.add_row({variants()[v].name,
                     util::Table::bytes(static_cast<double>(result.peak_storage_bytes)),
                     util::Table::bytes(static_cast<double>(result.final_storage_bytes)),
                     util::Table::integer(static_cast<long long>(result.final_stored_checkpoints)),
                     util::Table::integer(static_cast<long long>(result.gc_reclaimed))});
    }
    std::fputs(table.render(util::format("Stable-storage footprint — {} (6 checkpoints, 8 nodes)",
                                         rows[r].label))
                   .c_str(),
               stdout);
    std::puts("");
  }
  std::puts("Coordinated keeps one committed generation (8 images). Independent\n"
            "accumulates generations; for the tightly coupled application even the\n"
            "garbage collector cannot reclaim them (the strict recovery line never\n"
            "advances) — the paper's storage-overhead argument.");
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("storage_overhead", argc, argv)) return rc;
  const std::vector<BenchRow> rows{chk::harness::find_row("SOR-768"),
                                   chk::harness::find_row("NQUEENS-14")};
  const Grid grid = run_grid(
      row_configs(rows), variants().size(),
      [&](std::size_t r, std::size_t v, const ExperimentResult& normal) {
        ExperimentConfig config = row_config(rows[r]);
        config.scheme = variants()[v].scheme;
        config.checkpoints = 6;
        config.interval = chk::des::Duration::seconds(normal.exec_time_s / 7.0);
        config.gc = variants()[v].gc;
        config.gc_mode = variants()[v].gc_mode;
        return config;
      });
  print_table(rows, grid);
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("storage_overhead", err);
}
