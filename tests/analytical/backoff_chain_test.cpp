#include "analytical/backoff_chain.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/backoff_chain_oracle.hpp"

namespace smac::analytical {
namespace {

TEST(TransmissionProbabilityTest, NoCollisionsClosedForm) {
  // p = 0: τ = 2/(W+1).
  EXPECT_DOUBLE_EQ(transmission_probability(31, 0.0, 6), 2.0 / 32.0);
  EXPECT_DOUBLE_EQ(transmission_probability(1, 0.0, 6), 1.0);
  EXPECT_DOUBLE_EQ(transmission_probability(127, 0.0, 0), 2.0 / 128.0);
}

TEST(TransmissionProbabilityTest, MatchesBianchiClosedForm) {
  // τ = 2(1−2p)(1−p... equivalently eq. (2); compare against the explicit
  // closed form away from p = 1/2.
  for (int w : {8, 32, 128, 1024}) {
    for (double p : {0.05, 0.2, 0.35, 0.45, 0.6, 0.8}) {
      for (int m : {0, 3, 6}) {
        double sum = 0.0;
        for (int r = 0; r < m; ++r) sum += std::pow(2.0 * p, r);
        const double expected = 2.0 / (1.0 + w + p * w * sum);
        EXPECT_NEAR(transmission_probability(w, p, m), expected, 1e-14)
            << "w=" << w << " p=" << p << " m=" << m;
      }
    }
  }
}

TEST(TransmissionProbabilityTest, ContinuousAtPHalf) {
  // The (1−2p) closed form has a removable singularity at p = 1/2; the
  // implementation must be continuous through it.
  const double just_below = transmission_probability(32, 0.5 - 1e-9, 6);
  const double at = transmission_probability(32, 0.5, 6);
  const double just_above = transmission_probability(32, 0.5 + 1e-9, 6);
  EXPECT_NEAR(just_below, at, 1e-7);
  EXPECT_NEAR(just_above, at, 1e-7);
}

TEST(TransmissionProbabilityTest, HandlesPEqualOne) {
  // Limit p → 1: τ = 2/(1 + W·2^m) — every attempt collides, the node
  // lives at stage m.
  const double tau = transmission_probability(16, 1.0, 4);
  EXPECT_NEAR(tau, 2.0 / (1.0 + 16.0 * 16.0), 1e-12);
}

TEST(TransmissionProbabilityTest, MonotoneDecreasingInW) {
  for (double p : {0.0, 0.1, 0.3, 0.5, 0.9}) {
    double prev = transmission_probability(1, p, 6);
    for (int w = 2; w <= 2048; w *= 2) {
      const double cur = transmission_probability(w, p, 6);
      EXPECT_LT(cur, prev) << "w=" << w << " p=" << p;
      prev = cur;
    }
  }
}

TEST(TransmissionProbabilityTest, MonotoneDecreasingInP) {
  for (int w : {2, 16, 256}) {
    double prev = transmission_probability(w, 0.0, 6);
    for (double p = 0.1; p <= 1.0; p += 0.1) {
      const double cur = transmission_probability(w, p, 6);
      EXPECT_LT(cur, prev) << "w=" << w << " p=" << p;
      prev = cur;
    }
  }
}

TEST(TransmissionProbabilityTest, MoreStagesLowerTau) {
  // Extra doubling room keeps nodes backed off longer when p > 0.
  for (double p : {0.2, 0.5}) {
    EXPECT_GT(transmission_probability(32, p, 0),
              transmission_probability(32, p, 3));
    EXPECT_GT(transmission_probability(32, p, 3),
              transmission_probability(32, p, 8));
  }
}

TEST(TransmissionProbabilityTest, ContVariantAgreesOnIntegers) {
  for (int w : {1, 7, 100, 4096}) {
    EXPECT_DOUBLE_EQ(transmission_probability(w, 0.3, 6),
                     transmission_probability_cont(w, 0.3, 6));
  }
}

TEST(TransmissionProbabilityTest, RejectsBadArguments) {
  EXPECT_THROW(transmission_probability(0, 0.1, 6), std::invalid_argument);
  EXPECT_THROW(transmission_probability(8, -0.1, 6), std::invalid_argument);
  EXPECT_THROW(transmission_probability(8, 1.1, 6), std::invalid_argument);
  EXPECT_THROW(transmission_probability(8, 0.1, -1), std::invalid_argument);
  EXPECT_THROW(transmission_probability_cont(0.5, 0.1, 6),
               std::invalid_argument);
}

TEST(BackoffChainTest, RejectsBadArguments) {
  EXPECT_THROW(BackoffChain(0, 0.1, 6), std::invalid_argument);
  EXPECT_THROW(BackoffChain(8, 1.0, 6), std::invalid_argument);
  EXPECT_THROW(BackoffChain(8, -0.1, 6), std::invalid_argument);
  EXPECT_THROW(BackoffChain(8, 0.1, -2), std::invalid_argument);
}

TEST(BackoffChainTest, WindowDoublingCapsAtM) {
  const BackoffChain chain(16, 0.3, 3);
  EXPECT_EQ(chain.window_of_stage(0), 16);
  EXPECT_EQ(chain.window_of_stage(1), 32);
  EXPECT_EQ(chain.window_of_stage(3), 128);
  EXPECT_EQ(chain.window_of_stage(7), 128);  // clamped beyond m
}

TEST(BackoffChainTest, StationaryDistributionNormalizes) {
  for (int w : {2, 16, 64}) {
    for (double p : {0.0, 0.2, 0.5, 0.8}) {
      const BackoffChain chain(w, p, 4);
      EXPECT_NEAR(chain.total_mass(), 1.0, 1e-10)
          << "w=" << w << " p=" << p;
    }
  }
}

TEST(BackoffChainTest, TauEqualsSumOfStageHeads) {
  const BackoffChain chain(32, 0.25, 5);
  double heads = 0.0;
  for (int j = 0; j <= 5; ++j) heads += chain.stage_head(j);
  EXPECT_NEAR(chain.tau(), heads, 1e-12);
}

TEST(BackoffChainTest, TauMatchesClosedForm) {
  for (int w : {4, 32, 256}) {
    for (double p : {0.0, 0.15, 0.5, 0.9}) {
      const BackoffChain chain(w, p, 6);
      EXPECT_NEAR(chain.tau(), transmission_probability(w, p, 6), 1e-12);
    }
  }
}

TEST(BackoffChainTest, StageHeadsDecayGeometrically) {
  const double p = 0.3;
  const BackoffChain chain(16, p, 6);
  for (int j = 1; j < 6; ++j) {
    EXPECT_NEAR(chain.stage_head(j) / chain.stage_head(j - 1), p, 1e-12);
  }
  // The absorbing last stage accumulates the tail: q(m)/q(m−1) = p/(1−p).
  EXPECT_NEAR(chain.stage_head(6) / chain.stage_head(5), p / (1.0 - p),
              1e-12);
}

TEST(BackoffChainTest, CounterDistributionIsTriangular) {
  const BackoffChain chain(8, 0.2, 2);
  // Within a stage, q(j,k) decreases linearly in k.
  for (int j = 0; j <= 2; ++j) {
    const auto wj = chain.window_of_stage(j);
    for (int k = 1; k < wj; ++k) {
      EXPECT_LT(chain.stationary(j, k), chain.stationary(j, k - 1));
    }
    EXPECT_NEAR(chain.stationary(j, 0), chain.stage_head(j), 1e-15);
  }
}

TEST(BackoffChainTest, MeanCounterGrowsWithP) {
  const BackoffChain calm(32, 0.05, 6);
  const BackoffChain busy(32, 0.6, 6);
  EXPECT_GT(busy.mean_counter(), calm.mean_counter());
}

TEST(BackoffChainTest, StationaryRejectsOutOfRange) {
  const BackoffChain chain(8, 0.2, 2);
  EXPECT_THROW(chain.stationary(0, 8), std::invalid_argument);
  EXPECT_THROW(chain.stationary(0, -1), std::invalid_argument);
  EXPECT_THROW(chain.stage_head(3), std::invalid_argument);
  EXPECT_THROW(chain.window_of_stage(-1), std::invalid_argument);
}

}  // namespace
}  // namespace smac::analytical
