#include "sim/misbehavior_detector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "util/stats.hpp"

namespace smac::sim {
namespace {

// Standard normal CDF, the inverse normal_quantile is checked against.
double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

SimConfig make_config(std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  return config;
}

/// Verdicts of a detection on valid input.
std::vector<MisbehaviorVerdict> verdicts_of(const SimResult& observed,
                                            int w_agreed, int max_stage) {
  TryDetectResult result =
      try_detect_misbehavior(observed, w_agreed, max_stage);
  EXPECT_TRUE(result.ok());
  return std::move(result.verdicts);
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(util::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(util::normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(util::normal_quantile(0.99), 2.326347874, 1e-6);
  EXPECT_NEAR(util::normal_quantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(util::normal_quantile(1e-6), -4.753424, 1e-4);
  EXPECT_THROW(util::normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(util::normal_quantile(1.0), std::invalid_argument);
}

TEST(NormalQuantileTest, InvertsCdf) {
  for (double p : {0.001, 0.1, 0.3, 0.7, 0.95, 0.9999}) {
    EXPECT_NEAR(normal_cdf(util::normal_quantile(p)), p, 1e-8);
  }
}

TEST(DetectorTest, ValidatesInput) {
  SimResult empty;
  EXPECT_EQ(try_detect_misbehavior(empty, 64, 6).status,
            DetectStatus::kInvalidInput);
  Simulator sim(make_config(1), {64, 64});
  const auto r = sim.run_slots(1000);
  EXPECT_EQ(try_detect_misbehavior(r, 0, 6).status,
            DetectStatus::kInvalidInput);
  DetectorConfig bad;
  bad.significance = 0.0;
  EXPECT_EQ(try_detect_misbehavior(r, 64, 6, bad).status,
            DetectStatus::kInvalidInput);
  EXPECT_THROW(expected_detection_slots(64, 16, 5, 6, bad),
               std::invalid_argument);
  bad = DetectorConfig{};
  bad.tolerance = -0.1;
  EXPECT_EQ(try_detect_misbehavior(r, 64, 6, bad).status,
            DetectStatus::kInvalidInput);
  EXPECT_THROW(expected_detection_slots(64, 16, 5, 6, bad),
               std::invalid_argument);
  EXPECT_THROW(expected_detection_slots(64, 16, 1, 6), std::invalid_argument);
  EXPECT_THROW(expected_detection_slots(64, 16, 5, -1), std::invalid_argument);
}

TEST(DetectorTest, CompliantNetworkIsNotFlagged) {
  // 20 independent runs × 5 nodes at the agreed window: with 1%
  // significance and 5% tolerance the false-positive count stays tiny.
  int flags = 0;
  int tests = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Simulator sim(make_config(100 + seed), std::vector<int>(5, 64));
    const auto verdicts = verdicts_of(sim.run_slots(80000), 64, 6);
    for (const auto& v : verdicts) {
      ++tests;
      if (v.flagged) ++flags;
    }
  }
  EXPECT_LE(flags, 2) << "false positives out of " << tests;
}

TEST(DetectorTest, AggressiveCheaterIsFlagged) {
  std::vector<int> profile(5, 64);
  profile[2] = 16;  // cheats 4x
  Simulator sim(make_config(7), profile);
  const auto verdicts = verdicts_of(sim.run_slots(100000), 64, 6);
  EXPECT_TRUE(verdicts[2].flagged);
  EXPECT_GT(verdicts[2].z_score, verdicts[0].z_score);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i != 2) {
      EXPECT_FALSE(verdicts[i].flagged) << "node " << i;
    }
  }
}

TEST(DetectorTest, MarginalCheaterEscapesTolerance) {
  // W − 2 out of 64 raises τ by ~3%, inside the 5% tolerance band: the
  // detector must stay quiet (this is exactly the slack GTFT's β models).
  std::vector<int> profile(5, 64);
  profile[0] = 62;
  Simulator sim(make_config(8), profile);
  const auto verdicts = verdicts_of(sim.run_slots(200000), 64, 6);
  EXPECT_FALSE(verdicts[0].flagged);
}

TEST(DetectorTest, VerdictFieldsAreCoherent) {
  Simulator sim(make_config(9), std::vector<int>(4, 32));
  const auto verdicts = verdicts_of(sim.run_slots(50000), 32, 6);
  for (const auto& v : verdicts) {
    EXPECT_GT(v.tau_expected, 0.0);
    EXPECT_NEAR(v.tau_observed, v.tau_expected, 0.25 * v.tau_expected);
  }
}

TEST(TryDetectTest, ReportsInvalidInputInsteadOfThrowing) {
  SimResult empty;
  EXPECT_EQ(try_detect_misbehavior(empty, 64, 6).status,
            DetectStatus::kInvalidInput);
  Simulator sim(make_config(11), {64, 64});
  const auto observed = sim.run_slots(1000);
  EXPECT_EQ(try_detect_misbehavior(observed, 0, 6).status,
            DetectStatus::kInvalidInput);
  EXPECT_EQ(try_detect_misbehavior(observed, 64, -1).status,
            DetectStatus::kInvalidInput);
  DetectorConfig bad;
  bad.significance = 0.0;
  EXPECT_EQ(try_detect_misbehavior(observed, 64, 6, bad).status,
            DetectStatus::kInvalidInput);
  bad = DetectorConfig{};
  bad.tolerance = -0.1;
  EXPECT_EQ(try_detect_misbehavior(observed, 64, 6, bad).status,
            DetectStatus::kInvalidInput);
  // A significance too small to represent 1 − α in double would make the
  // quantile (and every downstream threshold) meaningless — invalid, and
  // the throwing expected_detection_slots agrees.
  bad = DetectorConfig{};
  bad.significance = 1e-300;
  EXPECT_EQ(try_detect_misbehavior(observed, 64, 6, bad).status,
            DetectStatus::kInvalidInput);
  EXPECT_THROW(expected_detection_slots(64, 16, 5, 6, bad),
               std::invalid_argument);
  EXPECT_STREQ(to_string(DetectStatus::kOk), "ok");
  EXPECT_STREQ(to_string(DetectStatus::kInvalidInput), "invalid-input");
}

TEST(TryDetectTest, HugeToleranceIsValidAndFlagsNobody) {
  // tolerance pushing the tolerated τ past 1 used to send the variance
  // through sqrt(negative) → NaN z-scores. It must clamp instead: valid
  // input, finite z, nobody flagged (no observable rate beats certainty).
  std::vector<int> profile(4, 64);
  profile[0] = 8;  // even a blatant cheater stays under a tolerated τ of 1
  Simulator sim(make_config(12), profile);
  DetectorConfig config;
  config.tolerance = 1e3;
  const auto result = try_detect_misbehavior(sim.run_slots(50000), 64, 6,
                                             config);
  ASSERT_TRUE(result.ok());
  for (const auto& v : result.verdicts) {
    EXPECT_TRUE(std::isfinite(v.z_score));
    EXPECT_FALSE(v.flagged);
  }
}

TEST(DetectionSlotsTest, SeverityShortensDetection) {
  const auto s_severe = expected_detection_slots(64, 8, 5, 6);
  const auto s_mild = expected_detection_slots(64, 48, 5, 6);
  ASSERT_GT(s_severe, 0u);
  ASSERT_GT(s_mild, 0u);
  EXPECT_LT(s_severe, s_mild);
}

TEST(DetectionSlotsTest, WithinToleranceIsUndetectable) {
  // Every w_cheat >= w_agreed is a zero-signal case, as is a cheat whose
  // τ excess stays inside the tolerance band.
  EXPECT_EQ(expected_detection_slots(64, 64, 5, 6), 0u);
  EXPECT_EQ(expected_detection_slots(64, 65, 5, 6), 0u);
  EXPECT_EQ(expected_detection_slots(64, 63, 5, 6), 0u);  // ~1.5% excess
  // Cheating *upward* is never flagged either (one-sided test).
  EXPECT_EQ(expected_detection_slots(64, 256, 5, 6), 0u);
}

TEST(DetectionSlotsTest, VanishingExcessHitsTheCapNotUndefinedBehavior) {
  // Tune the tolerance so the cheat's τ exceeds the tolerated rate by a
  // sliver (~1e-10 relative): the sample-size formula blows past uint64
  // and must return the sentinel instead of casting a non-representable
  // double (undefined behavior).
  const double tau_compliant = analytical::try_homogeneous_tau(64, 5, 6).tau;
  std::vector<int> profile(5, 64);
  profile[0] = 16;
  const double tau_cheat =
      analytical::try_solve_network(profile, 6).state.tau[0];
  ASSERT_GT(tau_cheat, tau_compliant);
  DetectorConfig config;
  config.tolerance = tau_cheat * (1.0 - 1e-10) / tau_compliant - 1.0;
  EXPECT_EQ(expected_detection_slots(64, 16, 5, 6, config),
            kDetectionSlotsCap);
}

TEST(DetectionSlotsTest, BoundaryPowerStaysFiniteAndOrdered) {
  // One ulp from certainty is still a valid power: the quantile is large
  // but finite, and the budget only grows with the demanded power.
  const auto p90 = expected_detection_slots(64, 16, 5, 6, {}, 0.9);
  const auto extreme = expected_detection_slots(
      64, 16, 5, 6, {}, std::nextafter(1.0, 0.0));
  EXPECT_GT(extreme, p90);
  EXPECT_LT(extreme, kDetectionSlotsCap);
}

TEST(DetectionSlotsTest, PowerRaisesTheBudget) {
  const auto p50 = expected_detection_slots(64, 16, 5, 6, {}, 0.5);
  const auto p90 = expected_detection_slots(64, 16, 5, 6, {}, 0.9);
  const auto p99 = expected_detection_slots(64, 16, 5, 6, {}, 0.99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  EXPECT_THROW(expected_detection_slots(64, 16, 5, 6, {}, 0.0),
               std::invalid_argument);
}

TEST(DetectionSlotsTest, PredictionMatchesSimulatedDetection) {
  // At ~3x the 95%-power budget a 4x cheater should be flagged nearly
  // always (the chain's attempt process is slightly overdispersed vs the
  // Bernoulli approximation, hence the margin); far below the budget,
  // rarely.
  const auto predicted = expected_detection_slots(64, 16, 5, 6, {}, 0.95);
  ASSERT_GT(predicted, 0u);
  std::vector<int> profile(5, 64);
  profile[0] = 16;

  int flagged_long = 0;
  int flagged_short = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Simulator sim_long(make_config(300 + seed), profile);
    if (verdicts_of(sim_long.run_slots(3 * predicted), 64, 6)[0]
            .flagged) {
      ++flagged_long;
    }
    Simulator sim_short(make_config(400 + seed), profile);
    if (verdicts_of(sim_short.run_slots(std::max<std::uint64_t>(
                               predicted / 16, 20)),
                           64, 6)[0]
            .flagged) {
      ++flagged_short;
    }
  }
  EXPECT_GE(flagged_long, 7);
  EXPECT_LE(flagged_short, 4);
}

}  // namespace
}  // namespace smac::sim
