#include "sim/heterogeneous.hpp"

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "support/assert.hpp"

namespace plurality::clock_rates {

std::vector<double> uniform(std::uint64_t n) {
  PC_EXPECTS(n >= 1);
  return std::vector<double>(n, 1.0);
}

std::vector<double> two_speed(std::uint64_t n, double slow_fraction,
                              double slow_rate, Xoshiro256& rng) {
  PC_EXPECTS(n >= 1);
  PC_EXPECTS(slow_fraction >= 0.0 && slow_fraction < 1.0);
  PC_EXPECTS(slow_rate > 0.0 && slow_rate < 1.0);
  const double fast_rate =
      (1.0 - slow_fraction * slow_rate) / (1.0 - slow_fraction);
  std::vector<double> rates(n, fast_rate);
  const auto num_slow = static_cast<std::uint64_t>(
      slow_fraction * static_cast<double>(n));
  // Slow nodes are a uniform random subset (partial Fisher-Yates over
  // node indices).
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  for (std::uint64_t i = 0; i < num_slow; ++i) {
    const std::uint64_t j = i + uniform_below(rng, n - i);
    std::swap(order[i], order[j]);
    rates[order[i]] = slow_rate;
  }
  return rates;
}

std::vector<double> log_normal(std::uint64_t n, double sigma,
                               Xoshiro256& rng) {
  PC_EXPECTS(n >= 1);
  PC_EXPECTS(sigma >= 0.0);
  // E[exp(sigma Z)] = exp(sigma^2/2); divide it out for mean 1.
  const double normalizer = std::exp(sigma * sigma / 2.0);
  std::vector<double> rates(n);
  for (auto& r : rates) {
    r = std::exp(sigma * standard_normal(rng)) / normalizer;
  }
  return rates;
}

}  // namespace plurality::clock_rates
