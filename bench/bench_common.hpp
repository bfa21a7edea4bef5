// The skeleton every bench/ driver is built on.
//
// A driver is a plain command-line program in three steps:
//   1. parse_flags() reads the driver's flags through util::Cli and rejects
//      bad values, unknown flags and stray arguments ("<driver>: <message>",
//      exit 2) before anything runs;
//   2. the independent simulations run through parallel_map / run_grid,
//      which fill pre-sized vectors, so output order never depends on
//      completion order or on the number of worker threads;
//   3. the driver prints its paper-style table and writes BENCH_<name>.json.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/catalog.hpp"
#include "harness/experiment.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace chk::bench {

using harness::BenchRow;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Scheme;

/// Builds the Cli, calls `read` (when set) to read every flag the driver
/// knows, then rejects any flag it did not read and any positional token.
/// A std::invalid_argument from either step is printed to stderr as
/// "<driver>: <message>". Returns 0 when the flags are good, else 2 — the
/// driver's exit code.
[[nodiscard]] int parse_flags(const char* driver, int argc, char** argv,
                              const std::function<void(const util::Cli&)>& read = {});

/// Run work(0..count-1) on a small thread pool (bounded by the hardware
/// concurrency); blocks until every item has finished. The first exception
/// propagates to the caller.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& work);

/// out[i] = work(i) for i in [0, count), computed through parallel_for.
template <class T>
[[nodiscard]] std::vector<T> parallel_map(std::size_t count,
                                          const std::function<T(std::size_t)>& work) {
  std::vector<T> out(count);
  parallel_for(count, [&](std::size_t i) { out[i] = work(i); });
  return out;
}

/// A grid of experiments: one failure-free baseline per row plus `columns`
/// cells per row, stored row-major.
struct Grid {
  std::vector<ExperimentResult> normals;
  std::vector<ExperimentResult> cells;
  std::size_t columns = 0;

  [[nodiscard]] const ExperimentResult& cell(std::size_t row, std::size_t column) const {
    return cells[row * columns + column];
  }
};

/// Runs the grid in two parallel phases. Phase 1 runs each row's baseline
/// (harness::run_normal(bases[row])); phase 2 runs every cell's config,
/// which may depend on its row's baseline (intervals are fractions of the
/// failure-free execution time).
using CellConfigFn =
    std::function<ExperimentConfig(std::size_t row, std::size_t column,
                                   const ExperimentResult& normal)>;
[[nodiscard]] Grid run_grid(const std::vector<ExperimentConfig>& bases, std::size_t columns,
                            const CellConfigFn& cell_config);

/// The baseline config of a catalog row: its label and application.
[[nodiscard]] ExperimentConfig row_config(const BenchRow& row);
/// row_config over a list of rows.
[[nodiscard]] std::vector<ExperimentConfig> row_configs(const std::vector<BenchRow>& rows);

/// One cell's standard metrics as a JSON object, plus the determinism hash.
/// `normal` adds the derived overhead fields when present.
[[nodiscard]] obs::json::Value result_to_json(const ExperimentResult& result,
                                              const ExperimentResult* normal);

/// The standard per-table document: one entry per row with the baseline
/// plus one cell per scheme column of `grid`.
[[nodiscard]] obs::json::Value table_json(const std::string& table,
                                          const std::vector<BenchRow>& rows,
                                          const Grid& grid);

/// Write `doc` to `path` and report the path on stdout.
void write_bench_json(const std::string& path, const obs::json::Value& doc);

/// The paper's five schemes in Table 1's column order.
[[nodiscard]] const std::vector<Scheme>& paper_schemes();
/// The scheme columns of Tables 2 and 3 (paper order).
[[nodiscard]] const std::vector<Scheme>& table23_schemes();

}  // namespace chk::bench
