#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/export.hpp"

namespace chk::bench {

void require_app(std::string_view flag, const std::string& label) {
  try {
    (void)harness::find_row(label);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(util::format("--{}: unknown app '{}'", flag, label));
  }
}

bool Verdict::expect(bool ok, std::string_view what, std::string_view where) {
  if (!ok) {
    ok_ = false;
    if (where.empty()) {
      std::fprintf(stderr, "%s: check failed: %.*s\n", driver_, static_cast<int>(what.size()),
                   what.data());
    } else {
      std::fprintf(stderr, "%s: check failed: %.*s [%.*s]\n", driver_,
                   static_cast<int>(what.size()), what.data(), static_cast<int>(where.size()),
                   where.data());
    }
  }
  return ok;
}

bool Verdict::expect_keys(const obs::json::Value& object,
                          std::initializer_list<std::string_view> keys, std::string_view where) {
  bool ok = true;
  for (const std::string_view key : keys) {
    ok = expect(object.contains(key), util::format("document carries key \"{}\"", key), where) &&
         ok;
  }
  return ok;
}

void Verdict::check_document(const std::function<void()>& checks) {
  try {
    checks();
  } catch (const std::exception& err) {
    expect(false, err.what());
  }
}

bool is_trace_hash(const std::string& hash) {
  return hash.size() == 16 && std::all_of(hash.begin(), hash.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& work) {
  if (count == 0) return;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(count, hw);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) work(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  std::vector<std::future<void>> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.push_back(std::async(std::launch::async, [&, count] {
      try {
        for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          work(i);
        }
      } catch (...) {
        next = count;  // hand out no further items
        const std::lock_guard lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    }));
  }
  for (auto& worker : pool) worker.get();
  if (failure) std::rethrow_exception(failure);
}

int simulation_failed(const char* driver, const des::SimError& err) {
  std::fprintf(stderr, "%s: simulation failed: %s\n", driver, err.what());
  return 1;
}

Grid run_grid(const std::vector<ExperimentConfig>& bases, std::size_t columns,
              const CellConfigFn& cell_config) {
  Grid grid;
  grid.columns = columns;
  grid.normals = parallel_map<ExperimentResult>(
      bases.size(), [&](std::size_t row) { return harness::run_normal(bases[row]); });
  grid.cells = parallel_map<ExperimentResult>(bases.size() * columns, [&](std::size_t i) {
    const std::size_t row = i / columns;
    return harness::run_experiment(cell_config(row, i % columns, grid.normals[row]));
  });
  return grid;
}

ExperimentConfig row_config(const BenchRow& row) {
  ExperimentConfig config;
  config.label = row.label;
  config.app = row.app;
  return config;
}

std::vector<ExperimentConfig> row_configs(const std::vector<BenchRow>& rows) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(rows.size());
  for (const BenchRow& row : rows) configs.push_back(row_config(row));
  return configs;
}

obs::json::Value result_to_json(const ExperimentResult& result,
                                const ExperimentResult* normal) {
  using obs::json::Value;
  Value cell = Value::object();
  cell.set("scheme", Value::string(std::string(to_string(result.scheme))));
  cell.set("exec_time_s", Value::number(result.exec_time_s));
  cell.set("events", Value::number(result.events));
  cell.set("trace_hash", Value::string(util::format("{:016x}", result.trace_hash)));
  cell.set("app_blocked_s", Value::number(result.app_blocked_s));
  cell.set("interference_s", Value::number(result.interference_s));
  cell.set("frozen_stall_s", Value::number(result.frozen_stall_s));
  cell.set("disk_wait_s", Value::number(result.disk_wait_s));
  cell.set("control_messages", Value::number(result.control_messages));
  cell.set("control_bytes", Value::number(result.control_bytes));
  cell.set("local_checkpoints", Value::number(result.local_checkpoints));
  cell.set("committed_rounds", Value::number(std::uint64_t{result.committed_rounds}));
  cell.set("bytes_written", Value::number(result.bytes_written));
  if (normal != nullptr && normal->exec_time_s > 0) {
    cell.set("overhead_s", Value::number(result.exec_time_s - normal->exec_time_s));
    cell.set("overhead_pct",
             Value::number((result.exec_time_s / normal->exec_time_s - 1.0) * 100.0));
  }
  return cell;
}

obs::json::Value table_json(const std::string& table, const std::vector<BenchRow>& rows,
                            const Grid& grid) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string(table));
  Value row_array = Value::array();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = grid.normals[r];
    Value entry = Value::object();
    entry.set("label", Value::string(rows[r].label));
    entry.set("approx_state_bytes", Value::number(rows[r].approx_state_bytes));
    entry.set("normal", result_to_json(normal, nullptr));
    Value cells = Value::array();
    for (std::size_t c = 0; c < grid.columns; ++c) {
      cells.push_back(result_to_json(grid.cell(r, c), &normal));
    }
    entry.set("cells", std::move(cells));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  return doc;
}

void write_bench_json(const std::string& path, const obs::json::Value& doc) {
  obs::write_text_file(path, doc.dump() + "\n");
  std::printf("\nWrote %s\n", path.c_str());
}

const std::vector<Scheme>& paper_schemes() {
  static const std::vector<Scheme> schemes{Scheme::kCoordNB, Scheme::kIndep,
                                           Scheme::kCoordNBM, Scheme::kIndepM,
                                           Scheme::kCoordNBMS};
  return schemes;
}

const std::vector<Scheme>& table23_schemes() {
  static const std::vector<Scheme> schemes{Scheme::kCoordNB, Scheme::kIndep,
                                           Scheme::kCoordNBMS, Scheme::kIndepM};
  return schemes;
}

}  // namespace chk::bench
