// Host-cost benchmark: command line, timed and traced runs, result line.
//
//   perfbench --workload <paper_tables|svc_steady|fault_campaign> --seed <n>
//             --seconds <s> --trace <0|1> [--expected-dir <dir>]
//             [--spans-out <file>] [--write-expected <dir>] [--dump-inputs]
//
// --trace 0 (timed run): sets the workload up several times (setup_s is
// the median), then runs the workload's fixed cell set serially, as many
// times as fit in --seconds (at least once), and reports the means over
// those repetitions. --trace 1 (traced run): one untraced repetition, one
// repetition with a span around every call into a layer, then the
// per-layer microcells; reports the per-layer metrics, the tracing
// overhead and the time no span covers, and writes the spans as a
// Chrome trace to --spans-out.
//
// The whole process runs on one CPU (see confine_to_one_cpu). Every cell's
// simulated outputs are checked (see cells.cpp); for the default seed they
// must also equal the pinned outputs in --expected-dir.
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics. The exit code is non-zero when any cell failed.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "util/format.hpp"

namespace perfbench {
namespace {

namespace json = chk::obs::json;

constexpr std::uint64_t kDefaultSeed = 1;
// Set-up repeats at least kSetupMinRepeats times and, while it is cheap,
// until kSetupMinSeconds have passed (a few milliseconds for svc_steady),
// so that setup_s is a median over many samples.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 101;
constexpr double kSetupMinSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string expected_dir = "perfbench/expected";
  std::string spans_out;
  std::string write_expected;
  bool dump_inputs = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dump-inputs") {
      opt.dump_inputs = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--expected-dir") {
      opt.expected_dir = value;
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else if (flag == "--write-expected") {
      opt.write_expected = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
  }
  return opt;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string hex(std::uint64_t v) { return chk::util::format("{:016x}", v); }

/// Attempted / failed bookkeeping; every failure is also printed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      std::printf("FAILED: %s\n", error.c_str());
    }
  }
};

// ---- pinned outputs -----------------------------------------------------------

/// The pinned-outputs file: simulated outputs only, one cell per line.
std::string pinned_doc(const std::string& workload, std::uint64_t seed,
                       const std::vector<CellOutcome>& cells) {
  std::string text = chk::util::format("{{\"workload\": \"{}\", \"seed\": {}, \"cells\": [\n",
                                       workload, seed);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json::Value entry = json::Value::object();
    entry.set("id", json::Value::string(cells[i].id));
    entry.set("trace_hash", json::Value::string(hex(cells[i].trace_hash)));
    entry.set("events", json::Value::number(cells[i].events));
    entry.set("exec_time_s", json::Value::number(cells[i].exec_time_s));
    entry.set("digest", json::Value::number(cells[i].digest));
    text += "  " + entry.dump() + (i + 1 < cells.size() ? ",\n" : "\n");
  }
  return text + "]}\n";
}

/// Pinned outputs by cell id; throws when the file is missing or malformed.
std::map<std::string, CellOutcome> load_pinned(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pinned outputs " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::Value::parse(text.str());
  std::map<std::string, CellOutcome> pinned;
  for (const json::Value& entry : doc.at("cells").items()) {
    CellOutcome cell;
    cell.id = entry.at("id").as_string();
    cell.trace_hash = std::stoull(entry.at("trace_hash").as_string(), nullptr, 16);
    cell.events = static_cast<std::uint64_t>(entry.at("events").as_int());
    cell.exec_time_s = entry.at("exec_time_s").as_double();
    cell.digest = entry.at("digest").as_double();
    pinned.emplace(cell.id, cell);
  }
  return pinned;
}

/// Every check on one batch of cells: the workload's own checks, the pinned
/// outputs (default seed) and agreement with the first batch (`first`).
void check_cells(const std::vector<CellOutcome>& cells, const std::vector<CellOutcome>* first,
                 const std::map<std::string, CellOutcome>* pinned, const char* what, Tally& tally) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOutcome& cell = cells[i];
    std::string error = cell.error.empty() ? "" : cell.id + ": " + cell.error;
    if (error.empty() && pinned != nullptr) {
      const auto it = pinned->find(cell.id);
      if (it == pinned->end()) {
        error = cell.id + ": no pinned outputs";
      } else if (const std::string diff = diff_outputs(cell, it->second); !diff.empty()) {
        error = diff + " differs from the pinned outputs";
      }
    }
    if (error.empty() && first != nullptr) {
      if (first->size() != cells.size()) {
        error = std::string(what) + ": cell count differs";
      } else if (const std::string diff = diff_outputs(cell, (*first)[i]); !diff.empty()) {
        error = diff + " differs between " + what;
      }
    }
    tally.record(error);
  }
}

struct Sums {
  std::uint64_t events = 0;
  std::uint64_t app_messages = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t local_checkpoints = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t wrongful_evictions = 0;
};

Sums sum(const std::vector<CellOutcome>& cells) {
  Sums s;
  for (const CellOutcome& c : cells) {
    s.events += c.events;
    s.app_messages += c.app_messages;
    s.control_messages += c.control_messages;
    s.retransmits += c.retransmits;
    s.bytes_written += c.bytes_written;
    s.local_checkpoints += c.local_checkpoints;
    s.recoveries += c.recoveries;
    s.bytes_read += c.bytes_read;
    s.heartbeats += c.heartbeats;
    s.wrongful_evictions += c.wrongful_evictions;
  }
  return s;
}

/// One repetition of the cell set, with its host cost.
struct Rep {
  std::vector<CellOutcome> cells;
  double host_s = 0;
  double user_s = 0;
  double sys_s = 0;
};

Rep run_rep(Workload& workload, SpanLog& spans) {
  Rep rep;
  const CpuTimes cpu0 = cpu_times();
  const double t0 = host_now();
  rep.cells = workload.run_cells(spans);
  rep.host_s = host_now() - t0;
  const CpuTimes cpu1 = cpu_times();
  rep.user_s = cpu1.user_s - cpu0.user_s;
  rep.sys_s = cpu1.sys_s - cpu0.sys_s;
  return rep;
}

void print_result(const Tally& tally, const std::vector<Measure>& metrics) {
  json::Value m = json::Value::object();
  for (const Measure& metric : metrics) {
    json::Value entry = json::Value::object();
    entry.set("value", json::Value::number(metric.value));
    entry.set("unit", json::Value::string(metric.unit));
    m.set(metric.name, std::move(entry));
  }
  json::Value doc = json::Value::object();
  doc.set("correct", json::Value::boolean(tally.failed == 0));
  doc.set("attempted", json::Value::number(tally.attempted));
  doc.set("failed", json::Value::number(tally.failed));
  doc.set("metrics", std::move(m));
  std::printf("%s\n", doc.dump().c_str());
}

void print_table(const char* title, const std::vector<Measure>& metrics) {
  std::printf("%s\n", title);
  for (const Measure& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Layers whose self time the traced run reports, in a fixed order.
const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers{
      "harness", "apps",     "svc",        "des", "xplorer", "comm",
      "ckpt",    "recovery", "membership", "obs", "verify"};
  return layers;
}

/// Confine the process, and so every process thread the simulator spawns
/// later, to the lowest CPU it may use. The simulator runs one thread at a
/// time (a baton), so one CPU costs no parallelism. On several CPUs every
/// hand-off is a cross-CPU wake-up whose latency follows the load of the
/// host: on a shared VM, wall time then reached up to 1.5x CPU time
/// between runs of the same inputs minutes apart.
void confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
  throw std::runtime_error("no CPU in the affinity mask");
}

int run(const Options& opt) {
  confine_to_one_cpu();
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
  SpanLog spans(opt.trace);
  SpanLog off(false);
  Tally tally;

  // Set-up, repeated: setup_s is the median.
  std::vector<double> setup_times;
  const double setup_start = host_now();
  while (static_cast<int>(setup_times.size()) < kSetupMinRepeats ||
         (host_now() - setup_start < kSetupMinSeconds &&
          static_cast<int>(setup_times.size()) < kSetupMaxRepeats)) {
    SpanLog& log = setup_times.empty() ? spans : off;
    const double t0 = host_now();
    log.scoped("bench.setup", "bench", opt.workload, [&] { workload->setup(log); });
    setup_times.push_back(host_now() - t0);
  }
  if (opt.dump_inputs) {
    std::printf("%s\n", workload->describe_inputs().dump().c_str());
    return 0;
  }

  const bool pin = opt.seed == kDefaultSeed && opt.write_expected.empty();
  std::map<std::string, CellOutcome> pinned;
  if (pin) pinned = load_pinned(opt.expected_dir + "/" + opt.workload + ".json");
  const auto* pinned_ptr = pin ? &pinned : nullptr;

  const std::vector<CellOutcome> references = spans.scoped(
      "bench.reference_pass", "bench", opt.workload, [&] { return workload->reference_pass(spans); });
  check_cells(references, nullptr, pinned_ptr, "reference", tally);

  std::vector<Measure> metrics;
  if (!opt.trace) {
    // Repeat while another repetition of the last one's length still fits
    // in --seconds; at least one runs.
    std::vector<Rep> reps;
    double peak_rss = 0;
    const double start = host_now();
    do {
      reps.push_back(run_rep(*workload, off));
      // Peak memory over set-up and the first repetition: a fixed amount of
      // work, whatever the number of repetitions that fit.
      if (reps.size() == 1) peak_rss = peak_rss_mb();
      check_cells(reps.back().cells, reps.size() > 1 ? &reps.front().cells : nullptr, pinned_ptr,
                  "repetitions", tally);
    } while (host_now() - start + reps.back().host_s <= opt.seconds);

    // Means over the repetitions, not medians. On one CPU a pass has no
    // long outliers, but the host's speed can stay at one of two levels for
    // tens of seconds, and a median then jumps with the share of passes at
    // each level (svc_steady host_s over ten seeds: 26 % spread as medians
    // of the same passes, 18 % as means).
    double host_sum = 0;
    double cpu_sum = 0;
    for (const Rep& rep : reps) {
      host_sum += rep.host_s;
      cpu_sum += rep.user_s + rep.sys_s;
    }
    const auto count = static_cast<double>(reps.size());
    const double host_s = host_sum / count;
    const auto events = static_cast<double>(sum(reps.front().cells).events);
    metrics = {
        {"host_s", host_s, "s"},
        {"cpu_s", cpu_sum / count, "s"},
        {"events_per_s", events / host_s, "1/s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"setup_s", median(setup_times), "s"},
    };
    const double failed_ratio =
        static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
    metrics.push_back({"ok_ratio", 1.0 - failed_ratio, "ratio"});
    std::printf("workload %s, seed %llu: %zu repetition(s) of %zu cells\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), reps.size(), reps.front().cells.size());
    std::printf("host_s per repetition:");
    for (const Rep& rep : reps) std::printf(" %.4f", rep.host_s);
    std::printf("\n");
    std::vector<Measure> shown = metrics;
    shown.push_back({"failed_ratio", failed_ratio, "ratio"});
    print_table("end-to-end (mean over repetitions; setup_s median over set-ups):", shown);
    if (!opt.write_expected.empty()) {
      const std::string path = opt.write_expected + "/" + opt.workload + ".json";
      std::ofstream(path) << pinned_doc(opt.workload, opt.seed, reps.front().cells);
      std::printf("wrote %s\n", path.c_str());
    }
  } else {
    const Rep untraced = run_rep(*workload, off);
    check_cells(untraced.cells, nullptr, pinned_ptr, "untraced", tally);
    int rep_span = -1;
    const Rep traced = spans.scoped("bench.traced_rep", "bench", opt.workload, [&] {
      rep_span = static_cast<int>(spans.spans().size()) - 1;
      return run_rep(*workload, spans);
    });
    check_cells(traced.cells, &untraced.cells, pinned_ptr, "the traced and untraced runs", tally);
    std::vector<std::string> errors;
    const std::vector<Measure> micro = spans.scoped(
        "bench.microcells", "bench", "microcells",
        [&] { return run_microcells(spans, opt.seed, errors); });
    // One attempt per microcell metric; each error fails one of them.
    for (std::size_t i = 0; i < std::max(micro.size(), errors.size()); ++i) {
      tally.record(i < errors.size() ? errors[i] : "");
    }
    // apps.host_s.* and proto.host_s.* split the paper_tables cells; the
    // traced run of any other workload runs that cell set once for them.
    int split_span = rep_span;
    if (opt.workload != "paper_tables") {
      const std::unique_ptr<Workload> tables = make_workload("paper_tables", opt.seed);
      std::map<std::string, CellOutcome> tables_pinned;
      if (pin) tables_pinned = load_pinned(opt.expected_dir + "/paper_tables.json");
      spans.scoped("bench.apps_split", "bench", "paper_tables", [&] {
        split_span = static_cast<int>(spans.spans().size()) - 1;
        tables->setup(spans);
        check_cells(tables->run_cells(spans), nullptr, pin ? &tables_pinned : nullptr,
                    "paper_tables", tally);
      });
    }

    const std::vector<Span>& all = spans.spans();
    const double unattributed = self_time(all, static_cast<std::size_t>(rep_span));
    // Per-row / per-scheme host seconds from the paper_tables cells' spans.
    std::map<std::string, double> cell_s;
    for (const Span& span : all) {
      if (span.parent == split_span) cell_s[span.cell] += span.end - span.start;
    }
    auto cell_host = [&](const std::string& row, const std::string& scheme) {
      const auto it = cell_s.find("paper_tables/" + row + "/" + scheme);
      return it == cell_s.end() ? 0.0 : it->second;
    };

    const Sums s = sum(untraced.cells);
    metrics = {
        {"des.events", static_cast<double>(s.events), "count"},
        {"des.sys_s", untraced.sys_s, "s"},
        {"host.user_s", untraced.user_s, "s"},
    };
    metrics.insert(metrics.end(), micro.begin(), micro.end());
    const std::vector<Measure> counts{
        {"comm.app_messages", static_cast<double>(s.app_messages), "count"},
        {"comm.control_messages", static_cast<double>(s.control_messages), "count"},
        {"comm.retransmits", static_cast<double>(s.retransmits), "count"},
        {"ckpt.bytes_written", static_cast<double>(s.bytes_written), "bytes"},
        {"ckpt.local_checkpoints", static_cast<double>(s.local_checkpoints), "count"},
        {"recovery.recoveries", static_cast<double>(s.recoveries), "count"},
        {"recovery.bytes_read", static_cast<double>(s.bytes_read), "bytes"},
        {"membership.heartbeats", static_cast<double>(s.heartbeats), "count"},
        {"membership.wrongful_evictions", static_cast<double>(s.wrongful_evictions), "count"},
    };
    metrics.insert(metrics.end(), counts.begin(), counts.end());
    const std::string baseline = baseline_name();
    for (const std::string& scheme : scheme_names()) {
      double delta = 0;
      for (const std::string& row : paper_rows()) {
        if (cell_host(row, baseline) > 0) delta += cell_host(row, scheme) - cell_host(row, baseline);
      }
      metrics.push_back({"proto.host_s." + scheme, delta, "s"});
    }
    for (const std::string& row : paper_rows()) {
      metrics.push_back({"apps.host_s." + row, cell_host(row, baseline), "s"});
    }
    const std::map<std::string, double> by_layer = self_time_by_layer(all);
    for (const std::string& layer : traced_layers()) {
      const auto it = by_layer.find(layer);
      metrics.push_back({"self_s." + layer, it == by_layer.end() ? 0.0 : it->second, "s"});
    }
    metrics.push_back({"trace.overhead_ratio", traced.host_s / untraced.host_s, "ratio"});
    metrics.push_back({"trace.unattributed_s", unattributed, "s"});

    std::printf("workload %s, seed %llu: traced run (%zu spans)\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), all.size());
    std::printf("  host_s untraced %.6f s, traced %.6f s (overhead x%.4f)\n", untraced.host_s,
                traced.host_s, traced.host_s / untraced.host_s);
    std::printf("self time per layer (all spans of this run):\n");
    for (const auto& [layer, self] : by_layer) {
      std::printf("  %-12s %12.6f s\n", layer.c_str(), self);
    }
    std::printf("  %-12s %12.6f s  (traced host_s minus its top-level spans)\n", "unattributed",
                unattributed);
    print_table("per-layer:", metrics);
    if (!opt.spans_out.empty()) {
      std::ofstream(opt.spans_out) << chrome_trace(all).dump() << "\n";
      std::printf("wrote %s\n", opt.spans_out.c_str());
    }
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = perfbench::parse(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& err) {
    // A cell that throws fails the run; no metrics are reported for it.
    std::printf("FAILED: %s\n", err.what());
    perfbench::print_result(perfbench::Tally{1, 1}, {});
    return 1;
  }
}
