#pragma once

/// \file spans.hpp
/// The benchmark's own spans, recorded in memory around every call the
/// driver makes into a layer (graph.build, graph.csr, opinion.place,
/// core.construct, sim.run, one jobs.leaf per sweep leaf, ...). Each
/// span names the span that caused it, so a layer's self time is its
/// duration minus what its children cover. At the end the spans are
/// written, together with the trace layer's own shard, barrier, queue,
/// steal and park events, as one chrome://tracing document.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

class SpanLog {
 public:
  using Id = std::size_t;
  static constexpr Id kNone = std::numeric_limits<Id>::max();

  struct Span {
    std::string name;
    std::uint32_t tid = 0;  ///< the trace layer's id of the thread
    Interval interval;
    Id parent = kNone;
  };

  /// Per-name totals over every closed span of that name.
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Opens a span on the calling thread; thread-safe.
  Id begin(std::string_view name, Id parent);

  /// Closes a span opened by begin(); thread-safe.
  void end(Id id);

  /// A copy of every span recorded so far, in opening order.
  std::vector<Span> spans() const;

  /// Self seconds of each closed span named `name`, in opening order.
  std::vector<double> self_seconds(std::string_view name) const;

  /// Duration seconds of each closed span named `name`.
  std::vector<double> durations(std::string_view name) const;

  std::map<std::string, Totals> totals() const;

  /// Writes these spans plus every event the trace layer's registry
  /// holds as one chrome://tracing JSON file, timestamps re-based to the
  /// earliest event. Call while instrumented threads are quiescent.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<std::int64_t> self_ns_locked() const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a null log records nothing (the untraced pass).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name,
             SpanLog::Id parent = SpanLog::kNone)
      : log_(log), id_(log ? log->begin(name, parent) : SpanLog::kNone) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanLog::Id id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

}  // namespace perfbench
