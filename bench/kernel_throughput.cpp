// DES-kernel throughput: raw events/sec as a first-class, regression-gated
// benchmark.
//
// At 1000+ ranks with transport timers and tracing armed, the kernel's
// event queue and allocation behaviour are the hot path — before the five
// schemes can be measured at scale, the simulator itself must be. Each
// cell of the sweep builds a Simulator + Network + reliable Transport at
// one rank count, drives an ack-heavy neighbour-ring message workload
// (every cumulative ack cancels and re-arms the sender's RTO timer — the
// exact churn pattern that used to bloat the heap with dead events), plus
// an optional synthetic watchdog-style timer-churn load, with tracing on
// or off. The measured wall-clock events/sec goes to stdout; the JSON
// artifact holds only simulation-deterministic fields (event counts,
// trace hashes, queue high-water marks, compaction counts), so repeats
// with the same seed are byte-identical and CI can `cmp` them PR-over-PR.
//
//   ./kernel_throughput [--ranks=8,64,256] [--churn=0,8] [--iters=300]
//                       [--payload=32] [--seed=2026]
//                       [--json-out=BENCH_kernel.json] [--quick]
//
// Invariants checked in-driver (exit 1 otherwise):
//   * tracing on/off never changes trace_hash or the executed-event count;
//   * every sent envelope is delivered exactly once;
//   * the queue's live size stays O(armed timers): the dead fraction is
//     bounded by the kernel's compaction threshold, not by traffic volume
//     (peak <= 2x the live bound once cancels dwarf it, <= 4x in every
//     churn cell), and the compactor fires once cancels dwarf the bound;
//   * every RTO cancel matches an arm (check_document()).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <chrono>  // chklint:allow(no-ambient-nondeterminism): wall-clock events/sec is the measurement; none of it reaches the JSON artifact.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chklib/comm/transport.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"
#include "obs/json.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xplorer/config.hpp"
#include "xplorer/network.hpp"

namespace {

using namespace chk;

struct CellConfig {
  std::size_t ranks = 8;
  std::size_t churn = 0;  ///< watchdog-style timers re-armed per iteration
  bool tracing = false;
  std::size_t iters = 300;
  std::size_t payload = 32;
  std::uint64_t seed = 2026;
};

struct CellResult {
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0;
  std::int64_t end_time_ns = 0;
  std::uint64_t delivered = 0;
  std::size_t queue_peak = 0;
  std::uint64_t compactions = 0;
  std::uint64_t timers_armed = 0;
  std::uint64_t timers_cancelled = 0;
  double wall_s = 0;  ///< wall clock; stdout only, never serialized
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

/// Deterministic per-(rank, iteration) think-time in [1, 5] us: enough
/// spread that sends interleave rather than batch, pure arithmetic so the
/// schedule is a function of the seed alone.
des::Duration think_time(std::uint64_t seed, std::size_t rank, std::size_t iter) {
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(rank) << 32) ^ iter;
  const std::uint64_t h = util::splitmix64(state);
  return des::Duration::nanos(1'000 + static_cast<std::int64_t>(h % 4'000));
}

CellResult run_cell(const CellConfig& cc) {
  des::Simulator sim;
  obs::Tracer tracer;
  if (cc.tracing) sim.set_tracer(&tracer);

  xplorer::MachineConfig mc;
  mc.num_nodes = cc.ranks;
  xplorer::Network net(sim, mc);
  chklib::Transport transport(sim, net, chklib::TransportConfig{});
  if (cc.tracing) transport.set_tracer(&tracer);

  CellResult out;
  transport.set_deliver_app([&out](chklib::Envelope) { ++out.delivered; });

  // One process per rank: think, send to the ring neighbour (the ack path
  // cancels + re-arms the sender's RTO timer per delivery), and churn the
  // synthetic watchdog timers.
  std::vector<std::vector<des::EventHandle>> watchdogs(cc.ranks);
  for (std::size_t r = 0; r < cc.ranks; ++r) {
    watchdogs[r].resize(cc.churn);
    sim.spawn(util::format("rank{}", r), [&, r](des::Process& self) {
      for (std::size_t i = 0; i < cc.iters; ++i) {
        self.delay(think_time(cc.seed, r, i));
        chklib::Envelope env;
        env.src = r;
        env.dst = (r + 1) % cc.ranks;
        env.seq = i;
        env.payload.resize(cc.payload);
        transport.send_app(std::move(env));
        // Watchdog churn: cancel last iteration's timers, arm fresh ones
        // far in the future. None ever fires — each becomes a dead heap
        // entry the kernel must reclaim without waiting 50 ms.
        for (des::EventHandle& h : watchdogs[r]) {
          h.cancel();
          h = sim.schedule_after(des::Duration::millis(50), [] {});
        }
      }
      for (des::EventHandle& h : watchdogs[r]) h.cancel();
    });
  }

  // chklint:allow(no-ambient-nondeterminism): wall-clock events/sec is the
  // measurement itself; none of it reaches the JSON artifact.
  const auto wall_start = std::chrono::steady_clock::now();
  const des::RunResult run = sim.run();
  const auto wall_end = std::chrono::steady_clock::now();  // chklint:allow(no-ambient-nondeterminism): see above.
  if (run.reason != des::StopReason::kIdle) {
    throw std::runtime_error(util::format("cell did not drain: {}", to_string(run.reason)));
  }

  out.events = sim.events_executed();
  out.trace_hash = sim.trace_hash();
  out.end_time_ns = sim.now().to_nanos();
  out.queue_peak = sim.queue_peak();
  out.compactions = sim.compactions();
  out.timers_armed = transport.stats().rto_armed;
  out.timers_cancelled = transport.stats().rto_cancelled;
  out.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return out;
}

/// Strict comma-separated integer list with every value in [lo, hi].
std::vector<std::size_t> get_sizes(const util::Cli& cli, const std::string& key,
                                   const std::string& fallback, std::size_t lo,
                                   std::size_t hi) {
  std::vector<std::size_t> out;
  for (const double v : cli.get_doubles(key, fallback, static_cast<double>(lo),
                                        static_cast<double>(hi) + 1)) {
    if (v != std::floor(v)) {
      throw std::invalid_argument(util::format("--{}: expected integers, got {}", key, v));
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

/// Upper bound on the live (armed) queue entries of a cell.
std::size_t live_bound(std::size_t ranks, std::size_t churn) {
  return ranks * (churn + 8) + 256;
}

struct Options {
  std::vector<std::size_t> ranks;
  std::vector<std::size_t> churns;
  std::size_t iters = 0;
  std::size_t payload = 0;
  std::uint64_t seed = 0;
  std::string json_out;
};

Options read_options(const util::Cli& cli) {
  const bool quick = cli.get_bool("quick", false);
  Options o;
  o.ranks = get_sizes(cli, "ranks", quick ? "8,64" : "8,64,256", 2, 4096);
  o.churns = get_sizes(cli, "churn", "0,8", 0, 1024);
  o.iters = static_cast<std::size_t>(cli.get_int("iters", quick ? 60 : 300, 1));
  o.payload = static_cast<std::size_t>(cli.get_int("payload", 32, 0));
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));
  o.json_out = cli.get_path("json-out").value_or("BENCH_kernel.json");
  if (o.payload > 4096) throw std::invalid_argument("--payload must be <= 4096");
  return o;
}

/// The claims the kernel document makes, checked before it is written.
void check_document(const obs::json::Value& doc, const Options& opt, bench::Verdict& v) {
  v.expect(doc.at("table").as_string() == "kernel_throughput", "table is \"kernel_throughput\"");
  v.expect(doc.at("all_ok").as_bool(), "every in-driver cell check held");
  const auto& cells = doc.at("cells").items();
  v.expect(cells.size() == opt.ranks.size() * opt.churns.size(), "one cell per ranks x churn");
  const auto iters = static_cast<std::uint64_t>(doc.at("iters").as_int());
  std::size_t churned = 0;
  for (const obs::json::Value& cell : cells) {
    if (!v.expect_keys(cell, {"ranks", "churn", "events", "trace_hash", "end_time_ns",
                              "delivered", "queue_peak", "compactions", "rto_armed",
                              "rto_cancelled", "traced_matches"})) {
      continue;
    }
    const auto field = [&cell](const char* key) {
      return static_cast<std::uint64_t>(cell.at(key).as_int());
    };
    const std::string where = util::format("ranks={} churn={}", field("ranks"), field("churn"));
    v.expect(bench::is_trace_hash(cell.at("trace_hash").as_string()), "16-hex trace hash",
             where);
    v.expect(cell.at("traced_matches").as_bool(), "tracing left the schedule alone", where);
    v.expect(field("events") > 0 && field("delivered") > 0, "events ran and frames arrived",
             where);
    v.expect(field("rto_cancelled") <= field("rto_armed"), "every RTO cancel matches an arm",
             where);
    if (field("churn") == 0) continue;
    ++churned;
    // The heap-bloat regression gate: dead watchdog + RTO entries must be
    // reclaimed, not held to their fire time.
    const std::uint64_t bound = live_bound(field("ranks"), field("churn"));
    v.expect(field("queue_peak") <= 4 * bound, "churn-cell queue peak <= 4x the live bound",
             where);
    const std::uint64_t cancelled =
        field("rto_cancelled") + field("churn") * iters * field("ranks");
    if (cancelled > 4 * bound) {
      v.expect(field("compactions") > 0, "the compactor fired", where);
    }
  }
  const auto churn_levels = static_cast<std::size_t>(
      std::count_if(opt.churns.begin(), opt.churns.end(), [](std::size_t c) { return c > 0; }));
  v.expect(churned == opt.ranks.size() * churn_levels, "one churn cell per ranks x churn > 0");
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (const int rc = util::parse_flags("kernel_throughput", argc, argv,
                                       [&](const util::Cli& cli) { opt = read_options(cli); })) {
    return rc;
  }
  const std::size_t iters = opt.iters;

  struct Row {
    CellConfig config;
    CellResult traced;
    CellResult untraced;
  };
  // Deliberately serial, unlike the other drivers: the wall-clock rates are
  // the measurement, and concurrent cells would contend for the cores.
  std::vector<Row> rows;
  for (const std::size_t r : opt.ranks) {
    for (const std::size_t c : opt.churns) {
      Row row;
      row.config = CellConfig{.ranks = r, .churn = c, .tracing = false,
                              .iters = iters, .payload = opt.payload, .seed = opt.seed};
      row.untraced = run_cell(row.config);
      row.config.tracing = true;
      row.traced = run_cell(row.config);
      rows.push_back(std::move(row));
    }
  }

  bool all_ok = true;
  for (const Row& row : rows) {
    // Tracing is observation only: identical schedule, identical hash.
    if (row.traced.trace_hash != row.untraced.trace_hash ||
        row.traced.events != row.untraced.events ||
        row.traced.end_time_ns != row.untraced.end_time_ns) {
      std::fprintf(stderr, "kernel_throughput: tracing perturbed the schedule at ranks=%zu churn=%zu\n",
                   row.config.ranks, row.config.churn);
      all_ok = false;
    }
    // Exactly-once delivery of the whole request set.
    const auto expected = static_cast<std::uint64_t>(row.config.ranks * iters);
    if (row.traced.delivered != expected || row.untraced.delivered != expected) {
      std::fprintf(stderr, "kernel_throughput: lost deliveries at ranks=%zu churn=%zu\n",
                   row.config.ranks, row.config.churn);
      all_ok = false;
    }
    // Dead-event bound: the queue never holds more than compaction allows —
    // O(live timers), not O(cancelled traffic history).
    const std::uint64_t cancelled =
        row.untraced.timers_cancelled + static_cast<std::uint64_t>(row.config.churn) * iters * row.config.ranks;
    const std::size_t bound = live_bound(row.config.ranks, row.config.churn);
    if (cancelled > 4 * bound && row.untraced.queue_peak > 2 * bound) {
      std::fprintf(stderr,
                   "kernel_throughput: heap bloat at ranks=%zu churn=%zu "
                   "(peak %zu vs live bound %zu, %llu cancels)\n",
                   row.config.ranks, row.config.churn, row.untraced.queue_peak,
                   bound, static_cast<unsigned long long>(cancelled));
      all_ok = false;
    }
  }

  util::Table table({"ranks", "churn", "events", "ev/s (plain)", "ev/s (traced)",
                     "queue peak", "compactions", "rto arm/cancel"});
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.config.ranks), std::to_string(row.config.churn),
                   std::to_string(row.untraced.events),
                   util::format("{:.0f}", row.untraced.events_per_sec()),
                   util::format("{:.0f}", row.traced.events_per_sec()),
                   std::to_string(row.untraced.queue_peak),
                   std::to_string(row.untraced.compactions),
                   util::format("{}/{}", row.untraced.timers_armed,
                                row.untraced.timers_cancelled)});
  }
  std::fputs(table.render("kernel_throughput (events/sec measured on this machine's wall clock)").c_str(), stdout);

  // Deterministic artifact: simulation-schedule facts only (no wall clock).
  obs::json::Value doc = obs::json::Value::object();
  doc.set("table", obs::json::Value::string("kernel_throughput"));
  doc.set("seed", obs::json::Value::number(opt.seed));
  doc.set("iters", obs::json::Value::number(static_cast<std::uint64_t>(iters)));
  doc.set("payload", obs::json::Value::number(static_cast<std::uint64_t>(opt.payload)));
  doc.set("all_ok", obs::json::Value::boolean(all_ok));
  obs::json::Value cells = obs::json::Value::array();
  for (const Row& row : rows) {
    obs::json::Value cell = obs::json::Value::object();
    cell.set("ranks", obs::json::Value::number(static_cast<std::uint64_t>(row.config.ranks)));
    cell.set("churn", obs::json::Value::number(static_cast<std::uint64_t>(row.config.churn)));
    cell.set("events", obs::json::Value::number(row.untraced.events));
    cell.set("trace_hash", obs::json::Value::string(util::format("{:016x}", row.untraced.trace_hash)));
    cell.set("end_time_ns", obs::json::Value::number(row.untraced.end_time_ns));
    cell.set("delivered", obs::json::Value::number(row.untraced.delivered));
    cell.set("queue_peak", obs::json::Value::number(static_cast<std::uint64_t>(row.untraced.queue_peak)));
    cell.set("compactions", obs::json::Value::number(row.untraced.compactions));
    cell.set("rto_armed", obs::json::Value::number(row.untraced.timers_armed));
    cell.set("rto_cancelled", obs::json::Value::number(row.untraced.timers_cancelled));
    cell.set("traced_matches", obs::json::Value::boolean(
        row.traced.trace_hash == row.untraced.trace_hash));
    cells.push_back(std::move(cell));
  }
  doc.set("cells", std::move(cells));
  bench::Verdict verdict("kernel_throughput");
  verdict.check_document([&] { check_document(doc, opt, verdict); });
  obs::write_text_file(opt.json_out, doc.dump() + "\n");
  std::printf("wrote %s\n", opt.json_out.c_str());
  return verdict.exit_code();
} catch (const chk::des::SimError& err) {
  return chk::bench::simulation_failed("kernel_throughput", err);
}
