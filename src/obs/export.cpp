#include "obs/export.hpp"

#include <fstream>
#include <stdexcept>

#include "util/format.hpp"

namespace chk::obs {

namespace {

constexpr double kNsToUs = 1e-3;

json::Value event_args(const Event& e) {
  json::Value args = json::Value::object();
  args.set("t_ns", json::Value::number(e.t_ns));
  args.set("dur_ns", json::Value::number(e.dur_ns));
  args.set("aux", json::Value::number(e.aux));
  args.set("arg", json::Value::number(static_cast<std::int64_t>(e.arg)));
  args.set("kind", json::Value::number(static_cast<std::int64_t>(e.kind)));
  return args;
}

}  // namespace

json::Value to_chrome_trace(const Trace& trace, std::size_t num_ranks) {
  json::Value events = json::Value::array();

  for (std::size_t r = 0; r < num_ranks; ++r) {
    json::Value meta = json::Value::object();
    meta.set("name", json::Value::string("thread_name"));
    meta.set("ph", json::Value::string("M"));
    meta.set("pid", json::Value::number(std::int64_t{0}));
    meta.set("tid", json::Value::number(static_cast<std::int64_t>(r)));
    json::Value args = json::Value::object();
    args.set("name", json::Value::string(util::format("rank {}", r)));
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }

  for (const Event& e : trace.events) {
    json::Value ev = json::Value::object();
    ev.set("name", json::Value::string(std::string(to_string(e.kind))));
    ev.set("cat", json::Value::string("obs"));
    ev.set("ph", json::Value::string(is_span(e.kind) ? "X" : "i"));
    ev.set("ts", json::Value::number(static_cast<double>(e.t_ns) * kNsToUs));
    if (is_span(e.kind)) {
      ev.set("dur", json::Value::number(static_cast<double>(e.dur_ns) * kNsToUs));
    } else {
      ev.set("s", json::Value::string("t"));
    }
    ev.set("pid", json::Value::number(std::int64_t{0}));
    ev.set("tid", json::Value::number(static_cast<std::int64_t>(e.rank)));
    ev.set("args", event_args(e));
    events.push_back(std::move(ev));
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", json::Value::string("ms"));
  json::Value other = json::Value::object();
  other.set("trace_hash", json::Value::string(util::format("{:016x}", trace.hash)));
  other.set("num_ranks", json::Value::number(static_cast<std::int64_t>(num_ranks)));
  doc.set("otherData", std::move(other));
  return doc;
}

Trace parse_chrome_trace(const json::Value& doc) {
  Trace trace;
  for (const json::Value& ev : doc.at("traceEvents").items()) {
    if (ev.at("ph").as_string() == "M") continue;
    const json::Value& args = ev.at("args");
    Event e;
    e.t_ns = args.at("t_ns").as_int();
    e.dur_ns = args.at("dur_ns").as_int();
    e.aux = static_cast<std::uint64_t>(args.at("aux").as_int());
    e.arg = static_cast<std::uint32_t>(args.at("arg").as_int());
    e.kind = static_cast<EventKind>(args.at("kind").as_int());
    e.rank = static_cast<std::uint16_t>(ev.at("tid").as_int());
    trace.events.push_back(e);
  }
  trace.hash = hash_events(trace.events);
  return trace;
}

json::Value metrics_to_json(const MetricsSnapshot& snap) {
  json::Value doc = json::Value::object();

  json::Value counters = json::Value::object();
  for (const auto& [name, v] : snap.counters) counters.set(name, json::Value::number(v));
  doc.set("counters", std::move(counters));

  json::Value gauges = json::Value::object();
  for (const auto& [name, v] : snap.gauges) gauges.set(name, json::Value::number(v));
  doc.set("gauges", std::move(gauges));

  json::Value histograms = json::Value::object();
  for (const auto& [name, h] : snap.histograms) {
    json::Value hist = json::Value::object();
    json::Value edges = json::Value::array();
    for (const double e : h.edges) edges.push_back(json::Value::number(e));
    hist.set("edges", std::move(edges));
    json::Value counts = json::Value::array();
    for (const std::uint64_t c : h.counts) counts.push_back(json::Value::number(c));
    hist.set("counts", std::move(counts));
    hist.set("total_count", json::Value::number(h.total_count));
    hist.set("sum", json::Value::number(h.sum));
    histograms.set(name, std::move(hist));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

namespace {

json::Value buckets_to_json(const RankBuckets& b) {
  json::Value v = json::Value::object();
  for (const Bucket& bucket : kBuckets) {
    v.set(std::string(bucket.name), json::Value::number(b.*bucket.field));
  }
  v.set("blocked_total_s", json::Value::number(b.blocked_total_s));
  v.set("total_s", json::Value::number(b.total_s()));
  return v;
}

}  // namespace

json::Value attribution_to_json(const AttributionReport& report) {
  json::Value doc = json::Value::object();
  json::Value ranks = json::Value::array();
  for (const RankBuckets& b : report.ranks) ranks.push_back(buckets_to_json(b));
  doc.set("ranks", std::move(ranks));
  doc.set("total", buckets_to_json(report.total));
  return doc;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << text;
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace chk::obs
