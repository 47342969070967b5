// Unit tests of the sequential SPRT/CUSUM detector: Wald geometry,
// non-throwing edges, the structural noise margin, flag latency, and the
// rehabilitation contract. The numeric pins use the default agreement of
// the enforcement bench (W* = 19, n = 6, RTS/CTS geometry): tau0 ≈ 0.070,
// tau1 ≈ 0.123, break-even ≈ 0.094 — see docs/ENFORCEMENT.md.
#include "sim/online_detector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace smac::sim {
namespace {

constexpr int kW = 19;      // the RTS/CTS n = 6 efficient agreement
constexpr int kN = 6;
constexpr int kM = 6;

OnlineDetector make(OnlineDetectorConfig config = {}) {
  return OnlineDetector(config, kW, kN, kM, kN);
}

TEST(OnlineDetectorConfigTest, ValidityChecksEveryField) {
  EXPECT_TRUE(OnlineDetectorConfig{}.valid());
  OnlineDetectorConfig c;
  c.significance = 0.0;
  EXPECT_FALSE(c.valid());
  c = {};
  c.significance = 1.0;
  EXPECT_FALSE(c.valid());
  c = {};
  c.significance = 1e-300;  // 1 − α collapses to 1.0 in double
  EXPECT_FALSE(c.valid());
  c = {};
  c.miss_rate = 0.0;
  EXPECT_FALSE(c.valid());
  c = {};
  c.tolerance = -0.01;
  EXPECT_FALSE(c.valid());
  c = {};
  c.cheat_factor = 1.0;  // "cheat" identical to the agreement
  EXPECT_FALSE(c.valid());
  c = {};
  c.evidence_decay = 1.0;
  EXPECT_FALSE(c.valid());
  c = {};
  c.slots_per_stage = 0;
  EXPECT_FALSE(c.valid());
}

TEST(OnlineDetectorTest, CtorRejectsBadArguments) {
  const OnlineDetectorConfig ok;
  EXPECT_THROW(OnlineDetector(ok, 0, kN, kM, kN), std::invalid_argument);
  EXPECT_THROW(OnlineDetector(ok, kW, 1, kM, kN), std::invalid_argument);
  EXPECT_THROW(OnlineDetector(ok, kW, kN, -1, kN), std::invalid_argument);
  EXPECT_THROW(OnlineDetector(ok, kW, kN, kM, 0), std::invalid_argument);
  OnlineDetectorConfig bad;
  bad.significance = 0.0;
  EXPECT_THROW(make(bad), std::invalid_argument);
  // A tolerance wide enough to swallow the design cheat leaves the SPRT
  // with nothing to test for.
  bad = {};
  bad.tolerance = 10.0;
  EXPECT_THROW(make(bad), std::invalid_argument);
}

TEST(OnlineDetectorTest, WaldGeometryMatchesTheDesignRates) {
  const auto d = make();
  // A = log((1−β)/α), B = log(β/(1−α)) for α = 0.01, β = 0.10.
  EXPECT_NEAR(d.flag_threshold(), std::log(0.90 / 0.01), 1e-12);
  EXPECT_NEAR(d.evidence_floor(), std::log(0.10 / 0.99), 1e-12);
  EXPECT_GT(d.tau_alt(), d.tau_null());
  // The break-even rate sits strictly between the hypotheses: compliant
  // observations push evidence down, cheat-rate observations push it up.
  EXPECT_GT(d.break_even_tau(), d.tau_null());
  EXPECT_LT(d.break_even_tau(), d.tau_alt());
}

TEST(OnlineDetectorTest, TryObserveRejectsInvalidInputUntouched) {
  auto d = make();
  EXPECT_EQ(d.try_observe(kN, 1.0, 100), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.try_observe(0, 1.0, 0), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.try_observe(0, -1.0, 100), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.try_observe(0, 101.0, 100), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.try_observe(0, std::nan(""), 100), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.try_observe_window(0, 0), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.try_observe_window(kN, 16), DetectStatus::kInvalidInput);
  EXPECT_EQ(d.verdict(0).observations, 0);  // state untouched
  EXPECT_THROW(d.verdict(kN), std::out_of_range);
  EXPECT_THROW(d.rehabilitate(kN), std::out_of_range);
}

TEST(OnlineDetectorTest, CompliantReadingsNeverFlagEvenUnderNoise) {
  // Noisy window reads of magnitude ±4 around the agreement (15..23) all
  // imply a τ below the break-even rate: every increment is negative, the
  // evidence pins at the floor, and no amount of noise can flag. This is
  // the structural margin behind the false-positive calibration.
  auto d = make();
  for (int k = 0; k < 200; ++k) {
    const int w = 15 + (k % 9);  // cycles the whole noise band
    ASSERT_EQ(d.try_observe_window(0, w), DetectStatus::kOk);
    ASSERT_FALSE(d.flagged(0)) << "stage " << k << " w=" << w;
    EXPECT_LE(d.verdict(0).evidence, 0.0);
    EXPECT_GE(d.verdict(0).evidence, d.evidence_floor() - 1e-12);
  }
  EXPECT_EQ(d.flags_raised(), 0);
}

TEST(OnlineDetectorTest, DesignCheatRateFlagsWithinTwoStages) {
  // Attempt counts at the design cheat rate τ1 cross the Wald threshold
  // almost immediately.
  auto d = make();
  const std::uint64_t slots = 200;
  int stages = 0;
  while (!d.flagged(0) && stages < 10) {
    ASSERT_EQ(d.try_observe(0, d.tau_alt() * static_cast<double>(slots),
                            slots),
              DetectStatus::kOk);
    ++stages;
  }
  EXPECT_TRUE(d.flagged(0));
  EXPECT_LE(stages, 2);
  EXPECT_EQ(d.verdict(0).flagged_at, stages - 1);
}

TEST(OnlineDetectorTest, QuarterWindowCheatFlagsWithinThreeStages) {
  // The roster's short-sighted deviant plays W*/4: its window readings
  // imply a τ well past break-even.
  auto d = make();
  int stages = 0;
  while (!d.flagged(1) && stages < 10) {
    ASSERT_EQ(d.try_observe_window(1, kW / 4), DetectStatus::kOk);
    ++stages;
  }
  EXPECT_TRUE(d.flagged(1));
  EXPECT_LE(stages, 3);
}

TEST(OnlineDetectorTest, FlagLatchesAndFreezesEvidence) {
  auto d = make();
  while (!d.flagged(0)) {
    ASSERT_EQ(d.try_observe_window(0, 2), DetectStatus::kOk);
  }
  const double at_flag = d.verdict(0).evidence;
  const int obs_at_flag = d.verdict(0).observations;
  // Subsequent compliant reads are frozen no-ops until rehabilitation.
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(d.try_observe_window(0, kW), DetectStatus::kOk);
  }
  EXPECT_TRUE(d.flagged(0));
  EXPECT_DOUBLE_EQ(d.verdict(0).evidence, at_flag);
  EXPECT_EQ(d.verdict(0).observations, obs_at_flag);
  EXPECT_EQ(d.flags_raised(), 1);
}

TEST(OnlineDetectorTest, RehabilitationClearsStateButNotTheCounter) {
  auto d = make();
  while (!d.flagged(0)) {
    ASSERT_EQ(d.try_observe_window(0, 2), DetectStatus::kOk);
  }
  d.rehabilitate(0);
  EXPECT_FALSE(d.flagged(0));
  EXPECT_EQ(d.verdict(0).observations, 0);
  EXPECT_DOUBLE_EQ(d.verdict(0).evidence, 0.0);
  EXPECT_EQ(d.verdict(0).flagged_at, -1);
  // A repeat offender is re-flagged by fresh evidence...
  while (!d.flagged(0)) {
    ASSERT_EQ(d.try_observe_window(0, 2), DetectStatus::kOk);
  }
  EXPECT_EQ(d.flags_raised(), 2);  // ...and the cumulative count remembers.
  // Other opponents were never touched.
  EXPECT_EQ(d.verdict(1).observations, 0);
}

TEST(OnlineDetectorTest, EvidenceFloorBoundsComplianceCredit) {
  // A long compliant streak must not bank unbounded credit: after 50
  // clean stages the evidence sits at the floor, and a subsequent cheat
  // is flagged almost as fast as from a cold start.
  auto fresh = make();
  int cold = 0;
  while (!fresh.flagged(0)) {
    ASSERT_EQ(fresh.try_observe_window(0, kW / 4), DetectStatus::kOk);
    ++cold;
  }
  auto credited = make();
  for (int k = 0; k < 50; ++k) {
    ASSERT_EQ(credited.try_observe_window(0, kW), DetectStatus::kOk);
  }
  EXPECT_NEAR(credited.verdict(0).evidence, credited.evidence_floor(), 1e-9);
  int warm = 0;
  while (!credited.flagged(0)) {
    ASSERT_EQ(credited.try_observe_window(0, kW / 4), DetectStatus::kOk);
    ++warm;
  }
  EXPECT_LE(warm, cold + 1);
}

TEST(OnlineDetectorTest, SuspectStreakTracksPositiveIncrements) {
  auto d = make();
  ASSERT_EQ(d.try_observe_window(0, kW / 4), DetectStatus::kOk);
  EXPECT_EQ(d.verdict(0).suspect_streak, 1);
  // A compliant read resets the streak.
  ASSERT_EQ(d.try_observe_window(0, kW), DetectStatus::kOk);
  EXPECT_EQ(d.verdict(0).suspect_streak, 0);
}

}  // namespace
}  // namespace smac::sim
