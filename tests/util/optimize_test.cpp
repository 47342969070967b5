#include "util/optimize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/exhaustive_int_max.hpp"

namespace smac::util {
namespace {

TEST(GoldenSectionTest, FindsParabolaMax) {
  const auto r = golden_section_max(
      [](double x) { return -(x - 2.5) * (x - 2.5); }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.5, 1e-7);
  EXPECT_NEAR(r.fx, 0.0, 1e-12);
}

TEST(GoldenSectionTest, MaxAtBoundary) {
  const auto r = golden_section_max([](double x) { return x; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, 1.0, 1e-6);
}

TEST(GoldenSectionTest, RejectsInvertedRange) {
  EXPECT_THROW(golden_section_max([](double x) { return x; }, 1.0, 0.0),
               std::invalid_argument);
}

TEST(TernaryIntMaxTest, MatchesExhaustiveOnUnimodal) {
  auto f = [](std::int64_t w) {
    const double x = static_cast<double>(w);
    return -(x - 337.0) * (x - 337.0);
  };
  const auto t = ternary_int_max(f, 1, 4096);
  const auto e = exhaustive_int_max(f, 1, 4096);
  EXPECT_EQ(t.x, e.x);
  EXPECT_EQ(t.x, 337);
  EXPECT_LT(t.evaluations, e.evaluations / 10);
}

TEST(TernaryIntMaxTest, TinyRanges) {
  auto f = [](std::int64_t w) { return static_cast<double>(-w * w + 4 * w); };
  EXPECT_EQ(ternary_int_max(f, 2, 2).x, 2);
  EXPECT_EQ(ternary_int_max(f, 1, 3).x, 2);
  EXPECT_EQ(ternary_int_max(f, 1, 2).x, 2);
}

TEST(TernaryIntMaxTest, MaxAtEdges) {
  auto inc = [](std::int64_t w) { return static_cast<double>(w); };
  auto dec = [](std::int64_t w) { return static_cast<double>(-w); };
  EXPECT_EQ(ternary_int_max(inc, 1, 1000).x, 1000);
  EXPECT_EQ(ternary_int_max(dec, 1, 1000).x, 1);
}

TEST(ExhaustiveIntMaxTest, FindsGlobalOnMultimodal) {
  // Two peaks; exhaustive must find the taller at x = 90.
  auto f = [](std::int64_t w) {
    const double x = static_cast<double>(w);
    return std::exp(-(x - 20) * (x - 20) / 50.0) +
           1.5 * std::exp(-(x - 90) * (x - 90) / 50.0);
  };
  EXPECT_EQ(exhaustive_int_max(f, 1, 128).x, 90);
}

// Property sweep: ternary == exhaustive for a family of unimodal shapes.
class UnimodalSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnimodalSweep, TernaryMatchesExhaustive) {
  const int peak = GetParam();
  auto f = [&](std::int64_t w) {
    const double x = static_cast<double>(w);
    return -std::abs(x - peak) * (1.0 + 0.001 * std::abs(x - peak));
  };
  EXPECT_EQ(ternary_int_max(f, 1, 512).x, exhaustive_int_max(f, 1, 512).x);
}

INSTANTIATE_TEST_SUITE_P(PeakPositions, UnimodalSweep,
                         ::testing::Values(1, 2, 17, 100, 255, 256, 500, 511,
                                           512));

}  // namespace
}  // namespace smac::util
