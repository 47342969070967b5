#include "util/root_finding.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace smac::util {
namespace {

TEST(BisectTest, FindsLinearRoot) {
  const auto r = bisect([](double x) { return 2.0 * x - 1.0; }, -10.0, 10.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x, 0.5, 1e-9);
}

TEST(BisectTest, RejectsNonBracketingInterval) {
  EXPECT_FALSE(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0));
}

TEST(BisectTest, RejectsInvertedInterval) {
  EXPECT_FALSE(bisect([](double x) { return x; }, 1.0, -1.0));
}

TEST(BisectTest, ExactEndpointRoot) {
  const auto r = bisect([](double x) { return x - 2.0; }, 2.0, 5.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->x, 2.0);
}

TEST(BrentTest, FindsTranscendentalRoot) {
  // cos(x) = x near 0.739085.
  const auto r = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x, 0.7390851332151607, 1e-10);
}

TEST(BrentTest, FindsPolynomialRootFasterThanBisect) {
  auto f = [](double x) { return x * x * x - 2.0 * x - 5.0; };
  const auto rb = brent(f, 2.0, 3.0);
  const auto ri = bisect(f, 2.0, 3.0);
  ASSERT_TRUE(rb.has_value());
  ASSERT_TRUE(ri.has_value());
  EXPECT_NEAR(rb->x, 2.0945514815423265, 1e-10);
  EXPECT_LT(rb->iterations, ri->iterations);
}

TEST(BrentTest, RejectsNonBracketingInterval) {
  EXPECT_FALSE(brent([](double x) { return x * x + 0.5; }, -2.0, 2.0));
}

TEST(BrentTest, HandlesSteepFunction) {
  const auto r = brent([](double x) { return std::exp(20.0 * x) - 1.0; },
                       -1.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, 0.0, 1e-8);
}

TEST(BrentTest, NearFlatFunction) {
  const auto r =
      brent([](double x) { return 1e-14 * (x - 3.0); }, 0.0, 10.0,
            {1e-12, 1e-20, 500});
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, 3.0, 1e-6);
}

}  // namespace
}  // namespace smac::util
