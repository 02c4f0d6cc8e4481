#include "spans.hpp"

#include <algorithm>

#include "experiment/json_writer.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace trace = plurality::trace;
using plurality::JsonValue;

SpanLog::Id SpanLog::begin(std::string_view name, Id parent) {
  const std::uint32_t tid =
      trace::enabled() ? trace::local_sink().tid() : 0;
  const std::int64_t now = trace::now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  PC_EXPECTS(parent == kNone || parent < spans_.size());
  spans_.push_back(Span{std::string(name), tid, Interval{now, -1}, parent});
  return spans_.size() - 1;
}

void SpanLog::end(Id id) {
  const std::int64_t now = trace::now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  PC_EXPECTS(id < spans_.size());
  spans_[id].interval.end_ns = now;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::int64_t> SpanLog::self_ns_locked() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNone && span.interval.end_ns >= 0) {
      children[span.parent].push_back(span.interval);
    }
  }
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].interval.end_ns >= 0) {
      self[i] = self_time_ns(spans_[i].interval, children[i]);
    }
  }
  return self;
}

std::vector<double> SpanLog::self_seconds(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::int64_t> self = self_ns_locked();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && spans_[i].interval.end_ns >= 0) {
      out.push_back(static_cast<double>(self[i]) * 1e-9);
    }
  }
  return out;
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.interval.end_ns >= 0) {
      out.push_back(
          static_cast<double>(span.interval.end_ns - span.interval.begin_ns) *
          1e-9);
    }
  }
  return out;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::int64_t> self = self_ns_locked();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.interval.end_ns < 0) continue;
    Totals& t = out[span.name];
    ++t.count;
    t.total_s +=
        static_cast<double>(span.interval.end_ns - span.interval.begin_ns) *
        1e-9;
    t.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> spans = this->spans();

  // The trace layer's document re-bases its events to the earliest one.
  // The spans go on the same clock, and when a span opens earlier (the
  // set-up precedes every engine event) all events shift so that the
  // document still starts at 0.
  JsonValue doc = trace::Registry::instance().timeline_json();
  std::int64_t event_base = std::numeric_limits<std::int64_t>::max();
  trace::Registry::instance().for_each_sink([&](const trace::Sink& sink) {
    for (std::size_t i = 0; i < sink.timeline_size(); ++i) {
      event_base = std::min(event_base, sink.timeline_at(i).ts_ns);
    }
  });
  std::int64_t base = event_base;
  for (const Span& span : spans) base = std::min(base, span.interval.begin_ns);
  if (base == std::numeric_limits<std::int64_t>::max()) base = 0;
  const auto us = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };

  JsonValue events = JsonValue::array();
  const JsonValue& trace_events = *doc.find("traceEvents");
  for (std::size_t i = 0; i < trace_events.size(); ++i) {
    JsonValue entry = trace_events.at(i);
    entry["ts"] = entry.find("ts")->as_double() + us(event_base - base);
    events.push_back(std::move(entry));
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.interval.end_ns < 0) continue;
    JsonValue entry = JsonValue::object();
    entry["name"] = span.name;
    entry["cat"] = "perfbench";
    entry["ph"] = "X";
    entry["pid"] = 1;
    entry["tid"] = span.tid;
    entry["ts"] = us(span.interval.begin_ns - base);
    entry["dur"] = us(span.interval.end_ns - span.interval.begin_ns);
    JsonValue args = JsonValue::object();
    args["id"] = static_cast<std::uint64_t>(i);
    if (span.parent != kNone) {
      args["parent"] = static_cast<std::uint64_t>(span.parent);
    }
    entry["args"] = std::move(args);
    events.push_back(std::move(entry));
  }
  doc["traceEvents"] = std::move(events);

  JsonValue self = JsonValue::object();
  for (const auto& [name, t] : totals()) {
    JsonValue row = JsonValue::object();
    row["count"] = static_cast<std::uint64_t>(t.count);
    row["total_s"] = t.total_s;
    row["self_s"] = t.self_s;
    self[name] = std::move(row);
  }
  doc["otherData"]["span_totals"] = std::move(self);
  plurality::write_json_file(path, doc);
}

}  // namespace perfbench
