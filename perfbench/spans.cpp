// Host clocks and the benchmark's own span log.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "bench.hpp"

namespace perfbench {

namespace json = chk::obs::json;

// Host time is the measurement; it goes to stdout and the span file only,
// never into a simulated output or the pinned-outputs file.
double host_now() {
  const auto now = std::chrono::steady_clock::now();  // chklint:allow(no-ambient-nondeterminism): host time is what the benchmark measures.
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

CpuTimes cpu_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return CpuTimes{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int SpanLog::begin(std::string name, std::string layer, std::string cell) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), std::move(layer), std::move(cell), 0, 0, parent});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  spans_.back().start = host_now();
  return id;
}

void SpanLog::end(int id) noexcept {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = host_now();
  open_.pop_back();
}

double self_time(const std::vector<Span>& spans, std::size_t index) {
  const Span& span = spans[index];
  double covered = 0;
  for (const Span& child : spans) {
    if (child.parent == static_cast<int>(index)) covered += child.end - child.start;
  }
  return std::max(0.0, span.end - span.start - covered);
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans) {
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) by_layer[spans[i].layer] += self_time(spans, i);
  return by_layer;
}

json::Value chrome_trace(const std::vector<Span>& spans) {
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    json::Value args = json::Value::object();
    args.set("span", json::Value::number(static_cast<std::int64_t>(i)));
    args.set("parent", json::Value::number(static_cast<std::int64_t>(span.parent)));
    args.set("cell", json::Value::string(span.cell));
    json::Value event = json::Value::object();
    event.set("name", json::Value::string(span.name));
    event.set("cat", json::Value::string(span.layer));
    event.set("ph", json::Value::string("X"));
    event.set("ts", json::Value::number((span.start - origin) * 1e6));
    event.set("dur", json::Value::number((span.end - span.start) * 1e6));
    event.set("pid", json::Value::number(std::int64_t{1}));
    event.set("tid", json::Value::number(std::int64_t{1}));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::Value::string("ms"));
  return doc;
}

}  // namespace perfbench
