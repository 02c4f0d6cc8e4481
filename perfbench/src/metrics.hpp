#pragma once

/// \file metrics.hpp
/// The benchmark driver's own arithmetic, kept apart from the driver so
/// tests/test_metrics.cpp can pin it: percentiles that carry their
/// sample count, a span's self time (its duration minus the part its
/// child spans cover), the failed-run fraction, and the tracing
/// overhead fraction.

#include <cstddef>
#include <cstdint>
#include <span>

namespace perfbench {

/// A percentile together with the number of samples it was taken from,
/// so every reported timing states how much data stands behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// The q-quantile (q in [0, 1]) of `samples` by linear interpolation
/// between order statistics (type 7, numpy's default). Requires at
/// least one sample.
Percentile percentile(std::span<const double> samples, double q);

/// A half-open time interval [begin_ns, end_ns).
struct Interval {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Nanoseconds of `parent` covered by the union of `children`, each
/// clipped to the parent. Overlapping children (parallel leaves on
/// several threads) count once.
std::int64_t covered_ns(Interval parent, std::span<const Interval> children);

/// A span's self time: its duration minus the part of it its child
/// spans cover.
std::int64_t self_time_ns(Interval parent, std::span<const Interval> children);

/// failed / attempted. Requires attempted >= 1 and failed <= attempted.
double failed_frac(std::uint64_t failed, std::uint64_t attempted);

/// (traced - untraced) / untraced: the relative cost of recording a
/// trace over the same work. Negative when noise outweighs the cost.
/// Requires untraced_s > 0.
double overhead_frac(double traced_s, double untraced_s);

}  // namespace perfbench
