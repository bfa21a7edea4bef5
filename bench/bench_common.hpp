// The skeleton every bench/ driver is built on.
//
// A driver is a plain command-line program in four steps:
//   1. util::parse_flags() reads the driver's flags and rejects bad values,
//      unknown flags and stray arguments ("<driver>: <message>", exit 2)
//      before anything runs;
//   2. the independent simulations run through parallel_map / run_grid,
//      which fill pre-sized vectors, so output order never depends on
//      completion order or on the number of worker threads;
//   3. the driver prints its paper-style table and builds BENCH_<name>.json;
//   4. a Verdict checks every claim the driver makes about its runs and its
//      document, and decides the exit code (1 on any failed check). The
//      run-twice ctest tests run the drivers, so these checks gate tier-1.
//      A simulation that throws des::SimError instead of finishing is
//      reported by simulation_failed(), also exit 1.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "des/simulator.hpp"
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

/// Throws std::invalid_argument "--<flag>: unknown app '<label>'" unless
/// `label` names a catalog row.
void require_app(std::string_view flag, const std::string& label);

/// A driver's exit verdict: the one place its checks land.
class Verdict {
 public:
  explicit Verdict(const char* driver) : driver_(driver) {}

  /// Records one check. A failed check prints
  /// "<driver>: check failed: <what> [<where>]" to stderr. Returns `ok`.
  bool expect(bool ok, std::string_view what, std::string_view where = {});
  /// expect() that the JSON object carries every key in `keys`.
  bool expect_keys(const obs::json::Value& object,
                   std::initializer_list<std::string_view> keys, std::string_view where = {});
  /// Runs `checks` over a built document. A missing key, a value of the
  /// wrong type or an out-of-range index fails the verdict instead of
  /// aborting the driver.
  void check_document(const std::function<void()>& checks);

  /// 0 when every check held, else 1.
  [[nodiscard]] int exit_code() const noexcept { return ok_ ? 0 : 1; }

 private:
  const char* driver_;
  bool ok_ = true;
};

/// True when `hash` is a 16-digit lower-case hex trace hash.
[[nodiscard]] bool is_trace_hash(const std::string& hash);

/// Run work(0..count-1) on a small thread pool (bounded by the hardware
/// concurrency); blocks until every started item has finished. Once an item
/// throws, no further items start, and the first exception propagates to
/// the caller.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& work);

/// The skeleton's last step: a des::SimError escaping a driver's runs (a
/// documented known limit failing fast, say) prints
/// "<driver>: simulation failed: <what>" on stderr; the driver exits 1.
/// Every driver's main is a function-try-block ending in
///   catch (const des::SimError& err) { return simulation_failed("<driver>", err); }
[[nodiscard]] int simulation_failed(const char* driver, const des::SimError& err);

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
