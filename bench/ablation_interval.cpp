// Ablation: overhead vs checkpoint interval.
//
// The paper varies the interval per application (1-7 minutes) and notes
// that frequent checkpointing inflates failure-free overhead (and that
// independent schemes checkpoint "very often" to fight the domino effect,
// making this worse). We sweep the number of checkpoints in a fixed-length
// SOR run and report overhead per scheme: it scales linearly with
// checkpoint count for the write-through schemes and much more slowly for
// the buffered + staggered one.
//
//   ./ablation_interval        (no flags; writes BENCH_ablation_interval.json)
#include <cstdio>
#include <map>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

const std::vector<Scheme>& sweep_schemes() {
  static const std::vector<Scheme> all{Scheme::kCoordNB, Scheme::kIndep,
                                       Scheme::kCoordNBMS};
  return all;
}

const std::vector<std::uint32_t>& sweep_counts() {
  static const std::vector<std::uint32_t> counts{1, 2, 4, 6, 8, 12};
  return counts;
}

ExperimentConfig point_config(const BenchRow& row, Scheme scheme,
                              std::uint32_t checkpoints, double normal_exec_s) {
  ExperimentConfig config = row_config(row);
  config.scheme = scheme;
  config.checkpoints = checkpoints;
  config.interval = des::Duration::seconds(normal_exec_s / (checkpoints + 1.0));
  return config;
}

/// Overhead (s) of point k (an index into sweep_counts()) under column s
/// (an index into sweep_schemes()); the grid's one row is SOR-1024.
double overhead(const Grid& grid, std::size_t k, std::size_t s) {
  return grid.cell(0, k * sweep_schemes().size() + s).exec_time_s -
         grid.normals[0].exec_time_s;
}

void print_table(const Grid& grid) {
  const double normal = grid.normals[0].exec_time_s;
  util::Table table({"checkpoints", "interval (s)", "Coord_NB (s)", "Indep (s)",
                     "Coord_NBMS (s)", "NB per ckpt"});
  for (std::size_t k = 0; k < sweep_counts().size(); ++k) {
    const std::uint32_t count = sweep_counts()[k];
    table.add_row({util::Table::integer(count), util::Table::fixed(normal / (count + 1.0), 0),
                   util::Table::fixed(overhead(grid, k, 0), 2),
                   util::Table::fixed(overhead(grid, k, 1), 2),
                   util::Table::fixed(overhead(grid, k, 2), 2),
                   util::Table::fixed(overhead(grid, k, 0) / count, 2)});
  }
  std::fputs(
      table.render("Overhead (s) vs checkpoint frequency — SOR-1024, fixed run length")
          .c_str(),
      stdout);
  std::puts("\nOverhead scales with checkpoint count; the per-checkpoint cost is\n"
            "stable (Table 1's metric), and Coord_NBMS keeps even frequent\n"
            "checkpointing affordable.");
}

void write_json(const Grid& grid) {
  using obs::json::Value;
  const ExperimentResult& normal = grid.normals[0];
  Value doc = Value::object();
  doc.set("table", Value::string("ablation_interval"));
  doc.set("row", Value::string("SOR-1024"));
  doc.set("normal", result_to_json(normal, nullptr));
  Value points = Value::array();
  for (std::size_t k = 0; k < sweep_counts().size(); ++k) {
    const std::uint32_t count = sweep_counts()[k];
    Value point = Value::object();
    point.set("checkpoints", Value::number(std::uint64_t{count}));
    point.set("interval_s", Value::number(normal.exec_time_s / (count + 1.0)));
    // Keyed by scheme name, emitted in name order.
    std::map<std::string, double> by_scheme;
    for (std::size_t s = 0; s < sweep_schemes().size(); ++s) {
      by_scheme[std::string(to_string(sweep_schemes()[s]))] = overhead(grid, k, s);
    }
    Value overheads = Value::object();
    for (const auto& [scheme, overhead_s] : by_scheme) {
      overheads.set(scheme, Value::number(overhead_s));
    }
    point.set("overhead_s", std::move(overheads));
    points.push_back(std::move(point));
  }
  doc.set("points", std::move(points));
  write_bench_json("BENCH_ablation_interval.json", doc);
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) try {
  using namespace chk::bench;
  if (const int rc = chk::util::parse_flags("ablation_interval", argc, argv)) return rc;
  const BenchRow row = chk::harness::find_row("SOR-1024");
  const std::size_t columns = sweep_schemes().size();
  // One row; columns are every (checkpoint count, scheme) point, count-major.
  const Grid grid = run_grid(
      {row_config(row)}, sweep_counts().size() * columns,
      [&](std::size_t, std::size_t c, const ExperimentResult& normal) {
        return point_config(row, sweep_schemes()[c % columns], sweep_counts()[c / columns],
                            normal.exec_time_s);
      });
  print_table(grid);
  write_json(grid);
  return 0;
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("ablation_interval", err);
}
