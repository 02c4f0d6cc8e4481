#include "metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/assert.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatisticsAndCountsSamples) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  const Percentile p50 = percentile(xs, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 2.5);
  EXPECT_EQ(p50.samples, 4u);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0).value, 4.0);
  // Type 7: rank q * (n - 1) = 0.99 * 3 = 2.97 between 3 and 4.
  EXPECT_NEAR(percentile(xs, 0.99).value, 3.97, 1e-12);
}

TEST(Percentile, SingleSampleAndEmptyInput) {
  const std::vector<double> one = {7.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0.99).value, 7.5);
  EXPECT_EQ(percentile(one, 0.99).samples, 1u);
  EXPECT_THROW(percentile(std::vector<double>{}, 0.5),
               plurality::ContractViolation);
}

TEST(SelfTime, SpanMinusDisjointChildren) {
  const Interval parent{0, 100};
  const std::vector<Interval> children = {{10, 20}, {50, 80}};
  EXPECT_EQ(self_time_ns(parent, children), 100 - 10 - 30);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parallel sweep leaves on several threads overlap in time.
  const Interval parent{0, 100};
  const std::vector<Interval> children = {{10, 60}, {20, 40}, {50, 70}};
  EXPECT_EQ(covered_ns(parent, children), 60);
  EXPECT_EQ(self_time_ns(parent, children), 40);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const Interval parent{100, 200};
  const std::vector<Interval> children = {{50, 120}, {190, 260}, {300, 400}};
  EXPECT_EQ(self_time_ns(parent, children), 100 - 20 - 10);
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(self_time_ns(Interval{5, 17}, {}), 12);
}

TEST(FailedFrac, FailedOverAttempted) {
  EXPECT_DOUBLE_EQ(failed_frac(0, 4000), 0.0);
  EXPECT_DOUBLE_EQ(failed_frac(1, 4), 0.25);
  EXPECT_THROW(failed_frac(0, 0), plurality::ContractViolation);
  EXPECT_THROW(failed_frac(5, 4), plurality::ContractViolation);
}

TEST(OverheadFrac, RelativeToTheUntracedWall) {
  EXPECT_NEAR(overhead_frac(1.1, 1.0), 0.1, 1e-12);
  EXPECT_NEAR(overhead_frac(0.9, 1.0), -0.1, 1e-12);
  EXPECT_DOUBLE_EQ(overhead_frac(3.0, 2.0), 0.5);
  EXPECT_THROW(overhead_frac(1.0, 0.0), plurality::ContractViolation);
}

}  // namespace
}  // namespace perfbench
