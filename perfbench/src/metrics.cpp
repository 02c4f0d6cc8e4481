#include "metrics.hpp"

#include <algorithm>
#include <vector>

#include "stats/quantiles.hpp"
#include "support/assert.hpp"

namespace perfbench {

Percentile percentile(std::span<const double> samples, double q) {
  PC_EXPECTS(!samples.empty());
  PC_EXPECTS(q >= 0.0 && q <= 1.0);
  return Percentile{plurality::quantile(samples, q), samples.size()};
}

std::int64_t covered_ns(Interval parent, std::span<const Interval> children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& child : children) {
    const std::int64_t begin = std::max(child.begin_ns, parent.begin_ns);
    const std::int64_t end = std::min(child.end_ns, parent.end_ns);
    if (begin < end) clipped.push_back(Interval{begin, end});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin_ns < b.begin_ns;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.begin_ns;  // end of the union so far
  for (const Interval& child : clipped) {
    const std::int64_t begin = std::max(child.begin_ns, reach);
    if (child.end_ns > begin) covered += child.end_ns - begin;
    reach = std::max(reach, child.end_ns);
  }
  return covered;
}

std::int64_t self_time_ns(Interval parent,
                          std::span<const Interval> children) {
  PC_EXPECTS(parent.end_ns >= parent.begin_ns);
  return (parent.end_ns - parent.begin_ns) - covered_ns(parent, children);
}

double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  PC_EXPECTS(attempted >= 1);
  PC_EXPECTS(failed <= attempted);
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double overhead_frac(double traced_s, double untraced_s) {
  PC_EXPECTS(untraced_s > 0.0);
  return (traced_s - untraced_s) / untraced_s;
}

}  // namespace perfbench
