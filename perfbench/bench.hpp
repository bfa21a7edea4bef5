// Host-cost benchmark: shared types.
//
// The benchmark measures what it costs the host to produce the simulated
// results, never the simulated results themselves (those are checked, and
// for the default seed pinned bit-for-bit). Every host-time read in the
// benchmark goes through host_now() / cpu_times() below; none of it reaches
// the pinned-outputs file.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

// ---- host clocks ------------------------------------------------------------

/// Monotonic host seconds (steady clock, arbitrary origin).
[[nodiscard]] double host_now();

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
/// User and system CPU of the whole process (all threads) so far.
[[nodiscard]] CpuTimes cpu_times();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// ---- spans --------------------------------------------------------------------

/// One call the benchmark made into a layer, in host seconds.
struct Span {
  std::string name;   ///< the function called, e.g. "harness.run_experiment"
  std::string layer;  ///< the layer the call is there to measure
  std::string cell;   ///< cell id, e.g. "paper_tables/SOR-1024/Coord_NB"
  double start = 0;
  double end = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// In-memory span log. Disabled, it records nothing and costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Run `fn` inside a span and return its result.
  template <typename F>
  auto scoped(std::string name, std::string layer, std::string cell, F&& fn) {
    const int id = begin(std::move(name), std::move(layer), std::move(cell));
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->end(id); }
    } closer{this, id};
    return fn();
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  int begin(std::string name, std::string layer, std::string cell);
  void end(int id) noexcept;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A span's duration minus the part its direct children cover.
[[nodiscard]] double self_time(const std::vector<Span>& spans, std::size_t index);
/// Self time summed per layer.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);
/// Chrome-trace ("traceEvents", complete events) document; Perfetto opens it.
[[nodiscard]] chk::obs::json::Value chrome_trace(const std::vector<Span>& spans);

// ---- cells ----------------------------------------------------------------------

/// The simulated outputs of one cell plus the exact counts the per-layer
/// metrics sum. Everything here is a function of the inputs alone.
struct CellOutcome {
  std::string id;
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  double exec_time_s = 0;
  double digest = 0;
  // counts (chklib.comm, chklib.ckpt, chklib.recovery, chklib.membership)
  std::uint64_t app_messages = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t local_checkpoints = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t wrongful_evictions = 0;
  /// Empty when every seed-independent check passed.
  std::string error;
};

/// Compare the simulated outputs (hash, events, time, digest) of two runs
/// of the same cell; returns a description of the first difference or "".
[[nodiscard]] std::string diff_outputs(const CellOutcome& a, const CellOutcome& b);

/// One workload: inputs generated from the seed, a fixed cell set, and the
/// checks every seed must pass.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs, factories and reference digests. Called once per setup
  /// repetition; must leave the workload ready to run.
  virtual void setup(SpanLog& spans) = 0;
  /// Cells whose exact counts the timed cells cannot report run once here
  /// (untimed); each timed cell is then checked against its reference.
  virtual std::vector<CellOutcome> reference_pass(SpanLog& spans) {
    (void)spans;
    return {};
  }
  /// Run the fixed cell set once, serially, in a fixed order.
  virtual std::vector<CellOutcome> run_cells(SpanLog& spans) = 0;
  /// The generated inputs, for the "inputs are a pure function of the
  /// seed" check.
  [[nodiscard]] virtual chk::obs::json::Value describe_inputs() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// paper_tables cells are "paper_tables/<row>/<scheme>"; these list the rows,
/// the five schemes' names and the kNone baseline's name as the ids spell them.
[[nodiscard]] const std::vector<std::string>& paper_rows();
[[nodiscard]] const std::vector<std::string>& scheme_names();
[[nodiscard]] std::string baseline_name();

// ---- microcells -------------------------------------------------------------

/// One reported metric.
struct Measure {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Run every per-layer microcell once inside spans; returns its metrics in
/// a fixed order. A microcell whose own output check fails appends to
/// `errors`.
[[nodiscard]] std::vector<Measure> run_microcells(SpanLog& spans, std::uint64_t seed,
                                                  std::vector<std::string>& errors);

}  // namespace perfbench
