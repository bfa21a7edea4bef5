// The three workloads: their seed-generated inputs, fixed cell sets and the
// checks every seed must pass.
#include <optional>
#include <stdexcept>

#include "apps/gauss.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "bench.hpp"
#include "faultsim/campaign.hpp"
#include "harness/catalog.hpp"
#include "harness/experiment.hpp"
#include "svc/kvstore.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace json = chk::obs::json;
using chk::des::Duration;
using chk::harness::ExperimentConfig;
using chk::harness::ExperimentResult;
using chk::harness::Scheme;

namespace {

/// The paper's five schemes, in the order every workload runs them.
const std::vector<Scheme>& paper_schemes() {
  static const std::vector<Scheme> schemes{Scheme::kCoordNB, Scheme::kCoordNBM,
                                           Scheme::kCoordNBMS, Scheme::kIndep,
                                           Scheme::kIndepM};
  return schemes;
}

/// Independent input seed per (benchmark seed, purpose).
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed ^ (purpose * 0x9e3779b97f4a7c15ULL);
  return chk::util::splitmix64(state);
}

std::string cell_id(const std::string& workload, const std::string& row, Scheme scheme) {
  return chk::util::format("{}/{}/{}", workload, row, chk::chklib::to_string(scheme));
}

CellOutcome outcome_of(std::string id, const ExperimentResult& result) {
  CellOutcome out;
  out.id = std::move(id);
  out.trace_hash = result.trace_hash;
  out.events = result.events;
  out.exec_time_s = result.exec_time_s;
  if (result.digest.has_value()) {
    out.digest = *result.digest;
  } else {
    out.error = "no result digest";
  }
  out.app_messages = result.app_messages;
  out.control_messages = result.control_messages;
  out.retransmits = result.retransmits;
  out.bytes_written = result.bytes_written;
  out.local_checkpoints = result.local_checkpoints;
  // Counted as faultsim::RunOutcome counts them, so the two agree.
  for (const auto& report : result.recoveries) {
    if (!report.interrupted) ++out.recoveries;
    out.bytes_read += report.bytes_read;
  }
  out.heartbeats = result.heartbeats_sent;
  out.wrongful_evictions = result.wrongful_evictions;
  return out;
}

void expect(CellOutcome& out, bool ok, const std::string& what) {
  if (!ok && out.error.empty()) out.error = what;
}

// ---- paper_tables -------------------------------------------------------------

/// Table 2/3 method: 3 checkpoints, interval = baseline exec / 4, 8 nodes.
class PaperTables final : public Workload {
 public:
  explicit PaperTables(std::uint64_t seed) : sim_seed_(derive(seed, 1)) {}

  void setup(SpanLog& spans) override {
    rows_.clear();
    for (const std::string& label : paper_rows()) {
      Row row;
      row.bench = spans.scoped("harness.find_row", "harness", label,
                               [&] { return chk::harness::find_row(label); });
      rows_.push_back(std::move(row));
    }
    rows_[0].reference = spans.scoped("apps.sor_reference_digest", "apps", "SOR-1024", [] {
      return chk::apps::sor_reference_digest({.n = 1024, .iterations = 100});
    });
    rows_[2].reference = spans.scoped("apps.gauss_reference_digest", "apps", "GAUSS-1024",
                                      [] { return chk::apps::gauss_reference_digest({.n = 1024}); });
    rows_[3].reference = spans.scoped("apps.tsp_reference_digest", "apps", "TSP",
                                      [] { return chk::apps::tsp_reference_digest({}); });
  }

  std::vector<CellOutcome> run_cells(SpanLog& spans) override {
    std::vector<CellOutcome> out;
    for (const Row& row : rows_) {
      ExperimentConfig config;
      config.label = row.bench.label;
      config.app = row.bench.app;
      config.seed = sim_seed_;
      const std::string none_id = cell_id("paper_tables", row.bench.label, Scheme::kNone);
      const ExperimentResult normal = spans.scoped(
          "harness.run_normal", "harness", none_id, [&] { return chk::harness::run_normal(config); });
      CellOutcome baseline = outcome_of(none_id, normal);
      if (row.reference.has_value()) {
        expect(baseline, baseline.digest == *row.reference,
               "baseline digest differs from the sequential reference");
      }
      out.push_back(baseline);
      config.checkpoints = 3;
      config.interval = Duration::seconds(normal.exec_time_s / 4.0);
      for (Scheme scheme : paper_schemes()) {
        config.scheme = scheme;
        const std::string id = cell_id("paper_tables", row.bench.label, scheme);
        CellOutcome cell = outcome_of(id, spans.scoped("harness.run_experiment", "harness", id, [&] {
          return chk::harness::run_experiment(config);
        }));
        expect(cell, cell.digest == baseline.digest, "checkpointed digest differs from kNone");
        out.push_back(std::move(cell));
      }
    }
    return out;
  }

  [[nodiscard]] json::Value describe_inputs() const override {
    json::Value doc = json::Value::object();
    json::Value rows = json::Value::array();
    for (const Row& row : rows_) rows.push_back(json::Value::string(row.bench.label));
    doc.set("rows", std::move(rows));
    doc.set("sim_seed", json::Value::string(chk::util::format("{:016x}", sim_seed_)));
    doc.set("checkpoints", json::Value::number(std::int64_t{3}));
    doc.set("interval", json::Value::string("baseline exec / 4"));
    return doc;
  }

 private:
  struct Row {
    chk::harness::BenchRow bench;
    std::optional<double> reference;  ///< sequential reference digest, where one exists
  };
  std::uint64_t sim_seed_;
  std::vector<Row> rows_;
};

// ---- svc_steady -----------------------------------------------------------------

class SvcSteady final : public Workload {
 public:
  explicit SvcSteady(std::uint64_t seed) : sim_seed_(derive(seed, 3)) {
    params_.arrival_hz = 600.0;
    params_.horizon_s = 4.0;
  }

  void setup(SpanLog& spans) override {
    params_.sink = std::make_shared<chk::svc::SvcMetrics>();
    app_ = spans.scoped("svc.make_svc", "svc", "svc_steady",
                        [&] { return chk::svc::make_svc(params_); });
    reference_ = spans.scoped("svc.svc_reference_digest", "svc", "svc_steady", [&] {
      return chk::svc::svc_reference_digest(params_, kRanks, sim_seed_);
    });
  }

  std::vector<CellOutcome> run_cells(SpanLog& spans) override {
    std::vector<CellOutcome> out;
    for (Scheme scheme : paper_schemes()) {
      *params_.sink = chk::svc::SvcMetrics{};
      ExperimentConfig config;
      config.label = "svc";
      config.app = app_;
      config.scheme = scheme;
      config.interval = Duration::seconds(0.8);
      config.checkpoints = 0;  // checkpoint until the service drains
      config.seed = sim_seed_;
      const std::string id = cell_id("svc_steady", "svc-600hz", config.scheme);
      CellOutcome cell = outcome_of(id, spans.scoped("harness.run_experiment", "harness", id, [&] {
        return chk::harness::run_experiment(config);
      }));
      expect(cell, cell.digest == reference_, "svc digest differs from svc_reference_digest");
      expect(cell, params_.sink->issued > 0 && params_.sink->completed == params_.sink->issued,
             "not every issued request completed");
      out.push_back(std::move(cell));
    }
    return out;
  }

  [[nodiscard]] json::Value describe_inputs() const override {
    json::Value doc = json::Value::object();
    doc.set("ranks", json::Value::number(static_cast<std::uint64_t>(kRanks)));
    doc.set("arrival_hz", json::Value::number(params_.arrival_hz));
    doc.set("horizon_s", json::Value::number(params_.horizon_s));
    doc.set("keys", json::Value::number(params_.keys));
    doc.set("interval_s", json::Value::number(0.8));
    doc.set("sim_seed", json::Value::string(chk::util::format("{:016x}", sim_seed_)));
    return doc;
  }

 private:
  static constexpr std::size_t kRanks = 8;
  std::uint64_t sim_seed_;
  chk::svc::SvcParams params_;
  chk::chklib::AppFn app_;
  double reference_ = 0;
};

// ---- fault_campaign ---------------------------------------------------------------

/// The experiment faultsim::run_one builds for run `run` of `config`
/// (mirrors src/faultsim/campaign.cpp). Run through harness::run_experiment
/// it yields the counts a RunOutcome omits; every timed run_one must then
/// reproduce its trace hash, which checks that this mirror is exact.
ExperimentConfig campaign_experiment(const chk::faultsim::CampaignConfig& config,
                                     std::uint32_t run) {
  ExperimentConfig experiment = config.base;
  experiment.failure.reset();
  chk::faultsim::FaultPlan plan;
  plan.mtbf = config.mtbf;
  plan.max_failures = config.max_failures_per_run;
  plan.stream = config.campaign_seed + run;
  plan.ensure_midwrite = config.ensure_midwrite;
  plan.ensure_during_recovery = config.ensure_during_recovery;
  plan.target_coordinator = config.target_coordinator;
  experiment.faults = plan;
  experiment.membership = config.membership;
  experiment.membership->stream = config.campaign_seed + run;
  experiment.link_faults = config.link_faults;
  experiment.link_faults->stream = config.campaign_seed + run;
  experiment.reliable_transport = config.reliable_transport;
  experiment.storage_faults = config.storage_faults;
  experiment.storage_faults->stream = config.campaign_seed + run;
  experiment.keep_depth = config.keep_depth;
  return experiment;
}

class FaultCampaign final : public Workload {
 public:
  explicit FaultCampaign(std::uint64_t seed)
      : sim_seed_(derive(seed, 4)), campaign_seed_(derive(seed, 5)) {}

  void setup(SpanLog& spans) override {
    ExperimentConfig base;
    base.label = "SOR-384";
    base.app = spans.scoped("harness.find_row", "harness", "SOR-384",
                            [] { return chk::harness::find_row("SOR-384").app; });
    base.seed = sim_seed_;
    const ExperimentResult normal = spans.scoped(
        "harness.run_normal", "harness", cell_id("fault_campaign", "SOR-384", Scheme::kNone),
        [&] { return chk::harness::run_normal(base); });
    const double reference = spans.scoped("apps.sor_reference_digest", "apps", "SOR-384", [] {
      return chk::apps::sor_reference_digest({.n = 384, .iterations = 100});
    });
    if (normal.digest != reference) {
      throw std::runtime_error("SOR-384 baseline digest differs from the sequential reference");
    }
    chk::chklib::LinkFaultConfig links;
    links.drop = kLinkLoss;
    chk::xplorer::StorageFaultConfig storage;
    storage.write_error = kIoError;
    storage.read_error = kIoError;
    storage.bitrot = kBitrot;
    chk::chklib::membership::MembershipConfig membership;
    membership.detector = chk::chklib::membership::Detector::kPhiAccrual;
    configs_.clear();
    for (std::size_t i = 0; i < paper_schemes().size(); ++i) {
      const Scheme scheme = paper_schemes()[i];
      chk::faultsim::CampaignConfig config;
      config.base = base;
      config.base.scheme = scheme;
      config.base.checkpoints = 0;
      config.base.interval = Duration::seconds(normal.exec_time_s / 5.0);
      config.mtbf = Duration::seconds(normal.exec_time_s * kMtbfFrac);
      config.runs = kRuns;
      // Each scheme draws its own failure schedules. Shared schedules would
      // make the five schemes' costs move together from seed to seed, and
      // the campaign's total host time would swing with the seed.
      config.campaign_seed = derive(campaign_seed_, i);
      config.expected_digest = reference;
      config.link_faults = links;
      config.storage_faults = storage;
      config.membership = membership;
      configs_.push_back(std::move(config));
    }
  }

  std::vector<CellOutcome> reference_pass(SpanLog& spans) override {
    references_.clear();
    for (const auto& config : configs_) {
      for (std::uint32_t run = 0; run < kRuns; ++run) {
        const std::string id = run_id(config, run);
        CellOutcome cell = outcome_of(id, spans.scoped("harness.run_experiment", "harness", id, [&] {
          return chk::harness::run_experiment(campaign_experiment(config, run));
        }));
        expect(cell, cell.digest == *config.expected_digest,
               "faulted digest differs from the fault-free reference");
        references_.push_back(std::move(cell));
      }
    }
    return references_;
  }

  std::vector<CellOutcome> run_cells(SpanLog& spans) override {
    std::vector<CellOutcome> out;
    std::size_t index = 0;
    for (const auto& config : configs_) {
      for (std::uint32_t run = 0; run < kRuns; ++run, ++index) {
        const std::string id = run_id(config, run);
        const chk::faultsim::RunOutcome outcome = spans.scoped(
            "faultsim.run_one", "faultsim", id, [&] { return chk::faultsim::run_one(config, run); });
        const CellOutcome& reference = references_.at(index);
        CellOutcome cell = reference;  // the counts a RunOutcome omits
        cell.error.clear();
        cell.trace_hash = outcome.trace_hash;
        cell.exec_time_s = outcome.completion_s;
        cell.retransmits = outcome.retransmits;
        cell.recoveries = outcome.recoveries;
        cell.bytes_read = outcome.bytes_read;
        cell.wrongful_evictions = outcome.wrongful_evictions;
        expect(cell, outcome.digest_ok, "campaign run did not reproduce the reference digest");
        expect(cell, outcome.failures > 0, "no failure was injected");
        expect(cell, outcome.wrongful_evictions == 0, "phi evicted a live rank");
        expect(cell,
               diff_outputs(cell, reference).empty() && cell.retransmits == reference.retransmits &&
                   cell.recoveries == reference.recoveries &&
                   cell.bytes_read == reference.bytes_read &&
                   cell.wrongful_evictions == reference.wrongful_evictions,
               "run_one differs from its harness::run_experiment reference");
        out.push_back(std::move(cell));
      }
    }
    return out;
  }

  [[nodiscard]] json::Value describe_inputs() const override {
    json::Value doc = json::Value::object();
    doc.set("app", json::Value::string("SOR-384"));
    doc.set("mtbf_frac", json::Value::number(kMtbfFrac));
    doc.set("runs", json::Value::number(static_cast<std::uint64_t>(kRuns)));
    doc.set("link_loss", json::Value::number(kLinkLoss));
    doc.set("io_error", json::Value::number(kIoError));
    doc.set("bitrot", json::Value::number(kBitrot));
    doc.set("detector", json::Value::string("phi"));
    doc.set("sim_seed", json::Value::string(chk::util::format("{:016x}", sim_seed_)));
    doc.set("campaign_seed", json::Value::string(chk::util::format("{:016x}", campaign_seed_)));
    return doc;
  }

 private:
  static constexpr std::uint32_t kRuns = 8;
  static constexpr double kMtbfFrac = 0.5;
  static constexpr double kLinkLoss = 0.01;
  static constexpr double kIoError = 0.02;
  static constexpr double kBitrot = 0.02;

  static std::string run_id(const chk::faultsim::CampaignConfig& config, std::uint32_t run) {
    return chk::util::format("fault_campaign/SOR-384/{}/run{}",
                             chk::chklib::to_string(config.base.scheme), run);
  }

  std::uint64_t sim_seed_;
  std::uint64_t campaign_seed_;
  std::vector<chk::faultsim::CampaignConfig> configs_;
  std::vector<CellOutcome> references_;
};

}  // namespace

std::string diff_outputs(const CellOutcome& a, const CellOutcome& b) {
  if (a.id != b.id) return "cell " + a.id + " vs " + b.id;
  if (a.trace_hash != b.trace_hash) return a.id + ": trace_hash";
  if (a.events != b.events) return a.id + ": events";
  if (a.exec_time_s != b.exec_time_s) return a.id + ": exec_time_s";
  if (a.digest != b.digest) return a.id + ": digest";
  return "";
}

const std::vector<std::string>& paper_rows() {
  static const std::vector<std::string> rows{"SOR-1024", "ISING-1024", "GAUSS-1024", "TSP",
                                             "NQUEENS-14"};
  return rows;
}

const std::vector<std::string>& scheme_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (Scheme scheme : paper_schemes()) out.emplace_back(to_string(scheme));
    return out;
  }();
  return names;
}

std::string baseline_name() { return std::string(to_string(Scheme::kNone)); }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_tables", "svc_steady", "fault_campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_tables") return std::make_unique<PaperTables>(seed);
  if (name == "svc_steady") return std::make_unique<SvcSteady>(seed);
  if (name == "fault_campaign") return std::make_unique<FaultCampaign>(seed);
  return nullptr;
}

}  // namespace perfbench
