#include "support/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace smac::util {
namespace {

TEST(FixedPointTest, ScalarContraction) {
  // x = cos(x): unique fixed point ~0.739085.
  auto F = [](const std::vector<double>& x) {
    return std::vector<double>{std::cos(x[0])};
  };
  const auto r = solve_fixed_point(F, {0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.7390851332151607, 1e-10);
}

TEST(FixedPointTest, VectorSystem) {
  // x = 0.5·cos(y), y = 0.5·sin(x): contraction on R².
  auto F = [](const std::vector<double>& v) {
    return std::vector<double>{0.5 * std::cos(v[1]), 0.5 * std::sin(v[0])};
  };
  const auto r = solve_fixed_point(F, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.5 * std::cos(r.x[1]), 1e-10);
  EXPECT_NEAR(r.x[1], 0.5 * std::sin(r.x[0]), 1e-10);
}

TEST(FixedPointTest, DampingStabilizesOscillation) {
  // x = 1 − x oscillates without damping; with damping it converges to 0.5.
  auto F = [](const std::vector<double>& x) {
    return std::vector<double>{1.0 - x[0]};
  };
  FixedPointOptions opts;
  opts.damping = 0.5;
  const auto r = solve_fixed_point(F, {0.0}, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.5, 1e-9);
}

TEST(FixedPointTest, UndampedOscillationDoesNotConverge) {
  auto F = [](const std::vector<double>& x) {
    return std::vector<double>{1.0 - x[0]};
  };
  FixedPointOptions opts;
  opts.damping = 0.0;
  opts.max_iterations = 100;
  const auto r = solve_fixed_point(F, {0.0}, opts);
  EXPECT_FALSE(r.converged);
}

TEST(FixedPointTest, RejectsBadDamping) {
  auto F = [](const std::vector<double>& x) { return x; };
  EXPECT_THROW(solve_fixed_point(F, {0.0}, {1.0, 1e-9, 10}),
               std::invalid_argument);
  EXPECT_THROW(solve_fixed_point(F, {0.0}, {-0.1, 1e-9, 10}),
               std::invalid_argument);
}

TEST(FixedPointTest, RejectsDimensionChange) {
  auto F = [](const std::vector<double>&) {
    return std::vector<double>{1.0, 2.0};
  };
  EXPECT_THROW(solve_fixed_point(F, {0.0}), std::invalid_argument);
}

TEST(FixedPointTest, IdentityConvergesImmediately) {
  auto F = [](const std::vector<double>& x) { return x; };
  const auto r = solve_fixed_point(F, {3.0, -1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

}  // namespace
}  // namespace smac::util
