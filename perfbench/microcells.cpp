// Per-layer microcells: each drives one layer's own public API in
// isolation, so its host cost per operation can be read without the rest
// of the stack around it. Sizes are fixed (a few tens to hundreds of host
// milliseconds each); only the svc inputs depend on the seed.

#include <algorithm>
#include <cstring>
#include <functional>

#include "bench.hpp"
#include "chklib/ckpt/image.hpp"
#include "chklib/ckpt/registry.hpp"
#include "chklib/comm/transport.hpp"
#include "chklib/membership/accrual.hpp"
#include "chklib/recovery/line.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"
#include "harness/experiment.hpp"
#include "obs/tracer.hpp"
#include "svc/kvstore.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "xplorer/network.hpp"
#include "xplorer/storage.hpp"

namespace perfbench {

namespace des = chk::des;
namespace chklib = chk::chklib;
namespace xplorer = chk::xplorer;
using des::Duration;

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// Host seconds of `fn()` inside a span.
double timed(SpanLog& spans, const std::string& name, const std::string& layer,
             const std::function<void()>& fn) {
  return spans.scoped(name, layer, "microcell/" + name, [&] {
    const double t0 = host_now();
    fn();
    return host_now() - t0;
  });
}

/// `chains` callback chains, each rescheduling itself `steps` times.
double callback_ns(SpanLog& spans) {
  constexpr std::size_t kChains = 64;
  constexpr std::uint32_t kSteps = 20'000;
  des::Simulator sim;
  struct Chain {
    des::Simulator* sim;
    std::uint32_t left;
    void step() {
      if (left-- == 0) return;
      sim->schedule_after(Duration::nanos(10), [this] { step(); });
    }
  };
  std::vector<Chain> chains(kChains, Chain{&sim, kSteps});
  for (Chain& chain : chains) chain.step();
  const double s = timed(spans, "des.schedule_after_chain", "des", [&] { (void)sim.run(); });
  return s * 1e9 / static_cast<double>(sim.events_executed());
}

/// `procs` processes, each delaying `steps` times: one context switch per event.
double switch_ns(SpanLog& spans, std::size_t procs, std::uint32_t steps) {
  des::Simulator sim;
  for (std::size_t p = 0; p < procs; ++p) {
    sim.spawn(chk::util::format("p{}", p), [steps, p](des::Process& self) {
      for (std::uint32_t i = 0; i < steps; ++i) {
        self.delay(Duration::nanos(1 + static_cast<std::int64_t>(p % 3)));
      }
    });
  }
  const double s = timed(spans, chk::util::format("des.process_delay_p{}", procs), "des",
                         [&] { (void)sim.run(); });
  return s * 1e9 / static_cast<double>(sim.events_executed());
}

/// Spawn -> run -> exit -> teardown of empty processes.
double spawn_us(SpanLog& spans) {
  constexpr std::size_t kProcs = 256;
  const double s = timed(spans, "des.spawn_empty", "des", [] {
    des::Simulator sim;
    for (std::size_t p = 0; p < kProcs; ++p) sim.spawn("empty", [](des::Process&) {});
    (void)sim.run();
  });
  return s * 1e6 / static_cast<double>(kProcs);
}

/// 1 KiB application transfers on the 8-node mesh, 8 back-to-back chains.
double transfer_ns(SpanLog& spans) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kPerChain = 4'000;
  des::Simulator sim;
  const xplorer::MachineConfig mc = xplorer::MachineConfig::parsytec_xplorer();
  xplorer::Network net(sim, mc);
  std::vector<std::size_t> done(kNodes, 0);
  std::function<void(std::size_t)> send = [&](std::size_t src) {
    net.transfer(src, (src + 3) % kNodes, 1024, xplorer::Traffic::kApplication, [&, src] {
      if (++done[src] < kPerChain) send(src);
    });
  };
  for (std::size_t src = 0; src < kNodes; ++src) send(src);
  const double s = timed(spans, "xplorer.network_transfer", "xplorer", [&] { (void)sim.run(); });
  return s * 1e9 / static_cast<double>(kNodes * kPerChain);
}

/// 1 MiB stable-storage writes from the compute nodes, one after another.
double storage_write_us(SpanLog& spans, std::vector<std::string>& errors) {
  constexpr std::size_t kWrites = 16;
  des::Simulator sim;
  const xplorer::MachineConfig mc = xplorer::MachineConfig::parsytec_xplorer();
  xplorer::Network net(sim, mc);
  xplorer::StableStorage storage(sim, net, mc);
  std::vector<std::vector<std::byte>> blobs(kWrites, std::vector<std::byte>(kMiB, std::byte{0x5a}));
  std::size_t ok = 0;
  std::function<void(std::size_t)> write = [&](std::size_t i) {
    const std::string key = chk::util::format("w{}", i);
    storage.write(1 + i % 7, key, std::move(blobs[i]), [&, i, key](xplorer::IoStatus status) {
      if (status == xplorer::IoStatus::kOk && storage.size(key) == kMiB) ++ok;
      storage.erase(key);
      if (i + 1 < kWrites) write(i + 1);
    });
  };
  write(0);
  const double s = timed(spans, "xplorer.storage_write", "xplorer", [&] { (void)sim.run(); });
  if (ok != kWrites) errors.emplace_back("microcell xplorer.storage_write: a write failed");
  return s * 1e6 / static_cast<double>(kWrites);
}

/// Reliable-transport ring: every rank sends to its successor every 200 us
/// (simulated), driven by callbacks so no process switch is measured.
double transport_ns(SpanLog& spans, std::size_t ranks, std::size_t per_rank,
                    std::vector<std::string>& errors) {
  des::Simulator sim;
  xplorer::MachineConfig mc = xplorer::MachineConfig::parsytec_xplorer();
  mc.num_nodes = ranks;
  xplorer::Network net(sim, mc);
  chklib::Transport transport(sim, net, chklib::TransportConfig{});
  std::uint64_t delivered = 0;
  transport.set_deliver_app([&delivered](chklib::Envelope) { ++delivered; });
  std::vector<std::size_t> sent(ranks, 0);
  std::function<void(std::size_t)> send = [&](std::size_t r) {
    chklib::Envelope env;
    env.src = r;
    env.dst = (r + 1) % ranks;
    env.seq = sent[r];
    env.payload.resize(32);
    transport.send_app(std::move(env));
    if (++sent[r] < per_rank) sim.schedule_after(Duration::micros(200), [&send, r] { send(r); });
  };
  for (std::size_t r = 0; r < ranks; ++r) {
    sim.schedule_after(Duration::nanos(static_cast<std::int64_t>(r)), [&send, r] { send(r); });
  }
  const double s = timed(spans, chk::util::format("comm.transport_ring_r{}", ranks), "comm",
                         [&] { (void)sim.run(); });
  if (delivered != ranks * per_rank) {
    errors.emplace_back(chk::util::format("microcell comm ring r{}: {} of {} delivered", ranks,
                                          delivered, ranks * per_rank));
  }
  return s * 1e9 / static_cast<double>(std::max<std::uint64_t>(delivered, 1));
}

/// CheckpointRegistry capture and restore of one 1 MiB region.
void registry_gbps(SpanLog& spans, std::vector<Measure>& out, std::vector<std::string>& errors) {
  constexpr std::size_t kRounds = 200;
  std::vector<std::byte> state(kMiB);
  for (std::size_t i = 0; i < state.size(); ++i) state[i] = static_cast<std::byte>(i * 131);
  const std::vector<std::byte> original = state;
  chklib::CheckpointRegistry registry;
  registry.register_vector("state", state);
  std::vector<std::byte> blob;
  const double capture_s = timed(spans, "ckpt.registry_capture", "ckpt", [&] {
    for (std::size_t i = 0; i < kRounds; ++i) blob = registry.capture();
  });
  std::fill(state.begin(), state.end(), std::byte{0});
  const double restore_s = timed(spans, "ckpt.registry_restore", "ckpt", [&] {
    for (std::size_t i = 0; i < kRounds; ++i) registry.restore(blob);
  });
  if (state != original) errors.emplace_back("microcell ckpt registry: restore mismatch");
  const double gb = static_cast<double>(kRounds * kMiB) / 1e9;
  out.push_back({"ckpt.capture_gbps", gb / capture_s, "GB/s"});
  out.push_back({"ckpt.restore_gbps", gb / restore_s, "GB/s"});
}

/// CheckpointImage serialize + deserialize with a 1 MiB state blob.
double image_roundtrip_gbps(SpanLog& spans, std::vector<std::string>& errors) {
  constexpr std::size_t kRounds = 100;
  chklib::CheckpointImage image;
  image.rank = 3;
  image.index = 7;
  image.state.assign(kMiB, std::byte{0x3c});
  std::size_t restored = 0;
  const double s = timed(spans, "ckpt.image_roundtrip", "ckpt", [&] {
    for (std::size_t i = 0; i < kRounds; ++i) {
      const std::vector<std::byte> bytes = image.serialize();
      restored += chklib::CheckpointImage::deserialize(bytes).state.size();
    }
  });
  if (restored != kRounds * kMiB) errors.emplace_back("microcell ckpt image: roundtrip mismatch");
  return static_cast<double>(kRounds * kMiB) / 1e9 / s;
}

/// compute_recovery_line on 8 ranks x 64 checkpoints, strict and orphan-free.
double recovery_line_us(SpanLog& spans) {
  constexpr std::size_t kRanks = 8;
  constexpr std::uint32_t kCheckpoints = 64;
  constexpr std::size_t kCalls = 40;
  std::vector<chklib::ProcessHistory> histories(kRanks);
  std::vector<std::vector<std::uint64_t>> next_seq(kRanks, std::vector<std::uint64_t>(kRanks, 0));
  std::uint64_t state = 0x11ce;
  for (std::size_t p = 0; p < kRanks; ++p) {
    histories[p].rank = p;
    for (std::uint32_t c = 1; c <= kCheckpoints; ++c) histories[p].saved.push_back(c);
  }
  for (std::uint32_t interval = 0; interval < kCheckpoints; ++interval) {
    for (std::size_t p = 0; p < kRanks; ++p) {
      for (int m = 0; m < 2; ++m) {
        const std::uint64_t draw = chk::util::splitmix64(state);
        const std::size_t dst = (p + 1 + draw % (kRanks - 1)) % kRanks;
        const std::uint64_t seq = next_seq[p][dst]++;
        const auto recv_interval = static_cast<std::uint32_t>(interval + (draw >> 32) % 2);
        histories[p].sends.push_back(chklib::SendRecord{dst, seq, interval});
        histories[dst].recvs.push_back(chklib::RecvRecord{p, seq, interval, recv_interval});
      }
    }
  }
  std::uint64_t sink = 0;
  const double s = timed(spans, "recovery.compute_recovery_line", "recovery", [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      for (chklib::LineMode mode : {chklib::LineMode::kStrict, chklib::LineMode::kOrphanFree}) {
        sink += chklib::compute_recovery_line(histories, mode).rollbacks;
      }
    }
  });
  (void)sink;
  return s * 1e6 / static_cast<double>(2 * kCalls);
}

/// AccrualWindow::heard + phi_milli on a jittered 250 ms heartbeat stream.
double phi_ns(SpanLog& spans) {
  constexpr std::size_t kBeats = 400'000;
  const chklib::membership::AccrualConfig cfg;
  chklib::membership::AccrualWindow window;
  std::uint64_t state = 0xbea7;
  std::int64_t sink = 0;
  const double s = timed(spans, "membership.accrual_phi", "membership", [&] {
    std::int64_t now_ns = 0;
    for (std::size_t i = 0; i < kBeats; ++i) {
      now_ns += 250'000'000 + static_cast<std::int64_t>(chk::util::splitmix64(state) % 20'000'000);
      window.heard(cfg, des::TimePoint::from_nanos(now_ns));
      sink += window.phi_milli(cfg, des::TimePoint::from_nanos(now_ns + 100'000'000));
    }
  });
  (void)sink;
  return s * 1e9 / static_cast<double>(kBeats);
}

/// obs::Tracer::span appends.
double tracer_ns(SpanLog& spans) {
  constexpr std::size_t kSpans = 200'000;
  chk::obs::Tracer tracer;
  const double s = timed(spans, "obs.tracer_span", "obs", [&] {
    for (std::size_t i = 0; i < kSpans; ++i) {
      const auto t0 = static_cast<std::int64_t>(i) * 1000;
      tracer.span(chk::obs::EventKind::kRecvWait, static_cast<std::uint16_t>(i % 8), t0, t0 + 500);
    }
  });
  return s * 1e9 / static_cast<double>(tracer.size());
}

chk::svc::SvcParams svc_params() {
  chk::svc::SvcParams params;
  params.arrival_hz = 600.0;
  params.horizon_s = 4.0;
  return params;
}

/// svc_reference_digest per nominal request (rate x horizon x ranks).
double svc_reference_ns(SpanLog& spans, std::uint64_t seed) {
  constexpr std::size_t kRanks = 8;
  constexpr int kTrials = 5;
  const chk::svc::SvcParams params = svc_params();
  std::vector<double> trials;
  for (int i = 0; i < kTrials; ++i) {
    trials.push_back(spans.scoped("svc.svc_reference_digest", "svc", "microcell/svc.reference", [&] {
      const double t0 = host_now();
      (void)chk::svc::svc_reference_digest(params, kRanks, seed);
      return host_now() - t0;
    }));
  }
  std::sort(trials.begin(), trials.end());
  const double requests = params.arrival_hz * params.horizon_s * static_cast<double>(kRanks);
  return trials[trials.size() / 2] * 1e9 / requests;
}

/// One svc_steady cell (Coord_NBMS) plain, observed and verified: the host
/// cost of the tracer and of the invariant monitor, as ratios to plain.
void obs_verify_ratios(SpanLog& spans, std::uint64_t seed, std::vector<Measure>& out,
                       std::vector<std::string>& errors) {
  chk::svc::SvcParams params = svc_params();
  params.sink = std::make_shared<chk::svc::SvcMetrics>();
  chk::harness::ExperimentConfig config;
  config.label = "svc";
  config.app = chk::svc::make_svc(params);
  config.scheme = chk::harness::Scheme::kCoordNBMS;
  config.interval = Duration::seconds(0.8);
  config.checkpoints = 0;
  config.seed = seed;
  auto run = [&](const char* name, const char* layer, bool observe, bool verify) {
    config.observe = observe;
    config.verify = verify;
    std::uint64_t hash = 0;
    const double s = timed(spans, name, layer, [&] {
      const auto result = chk::harness::run_experiment(config);
      hash = result.trace_hash;
      if (verify && result.invariant_violations != 0) {
        errors.emplace_back("microcell verify: invariant violations in a svc cell");
      }
    });
    return std::pair{s, hash};
  };
  const auto plain = run("harness.run_experiment.plain", "obs", false, false);
  const auto observed = run("harness.run_experiment.observe", "obs", true, false);
  const auto verified = run("harness.run_experiment.verify", "verify", false, true);
  if (observed.second != plain.second || verified.second != plain.second) {
    errors.emplace_back("microcell obs/verify: observing or verifying changed trace_hash");
  }
  out.push_back({"obs.observe_ratio", observed.first / plain.first, "ratio"});
  out.push_back({"verify.monitor_ratio", verified.first / plain.first, "ratio"});
}

}  // namespace

std::vector<Measure> run_microcells(SpanLog& spans, std::uint64_t seed,
                                    std::vector<std::string>& errors) {
  std::vector<Measure> out{
      {"des.callback_ns", callback_ns(spans), "ns"},
      {"des.switch_ns.p8", switch_ns(spans, 8, 2'000), "ns"},
      {"des.switch_ns.p256", switch_ns(spans, 256, 100), "ns"},
      {"des.spawn_us", spawn_us(spans), "us"},
      {"xplorer.transfer_ns", transfer_ns(spans), "ns"},
      {"xplorer.storage_write_us", storage_write_us(spans, errors), "us"},
      {"comm.transport_ns.r8", transport_ns(spans, 8, 2'000, errors), "ns"},
      {"comm.transport_ns.r256", transport_ns(spans, 256, 60, errors), "ns"},
  };
  registry_gbps(spans, out, errors);
  out.push_back({"ckpt.image_roundtrip_gbps", image_roundtrip_gbps(spans, errors), "GB/s"});
  out.push_back({"recovery.line_us", recovery_line_us(spans), "us"});
  out.push_back({"membership.phi_ns", phi_ns(spans), "ns"});
  out.push_back({"obs.tracer_ns", tracer_ns(spans), "ns"});
  out.push_back({"svc.reference_ns_per_req", svc_reference_ns(spans, seed), "ns"});
  obs_verify_ratios(spans, seed, out, errors);
  return out;
}

}  // namespace perfbench
