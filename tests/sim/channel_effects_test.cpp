// Channel-noise (PER), capture effect, and backoff-policy ablations.
#include <gtest/gtest.h>

#include <cmath>

#include "analytical/backoff_chain.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/utility.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace smac::sim {
namespace {

SimConfig make_config(std::uint64_t seed = 1) {
  SimConfig config;
  config.seed = seed;
  return config;
}

// ---- Packet error rate ----

TEST(PerTest, ParametersValidatePer) {
  phy::Parameters p = phy::Parameters::paper();
  p.packet_error_rate = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.packet_error_rate = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.packet_error_rate = 0.3;
  EXPECT_NO_THROW(p.validate());
}

TEST(PerTest, SolverEscalatesOnCombinedFailure) {
  // With PER > 0 nodes retry more, so τ drops even without extra nodes.
  const double tau_clean = analytical::homogeneous_tau(64, 5, 6, 0.0);
  const double tau_noisy = analytical::homogeneous_tau(64, 5, 6, 0.3);
  EXPECT_LT(tau_noisy, tau_clean);
  // Single node: failure probability equals PER exactly.
  const double tau_single = analytical::homogeneous_tau(64, 1, 6, 0.3);
  EXPECT_NEAR(tau_single, analytical::transmission_probability_cont(64, 0.3, 6),
              1e-12);
}

TEST(PerTest, SolverRejectsBadPer) {
  EXPECT_THROW(analytical::homogeneous_tau(64, 5, 6, 1.0),
               std::invalid_argument);
  EXPECT_THROW(analytical::solve_network({32, 32}, 6, {}, -0.1),
               std::invalid_argument);
}

TEST(PerTest, SimulatorMatchesModelUnderNoise) {
  const double per = 0.2;
  SimConfig config = make_config(11);
  config.params.packet_error_rate = per;
  Simulator sim(config, std::vector<int>(5, 64));
  const auto r = sim.run_slots(400000);

  const auto model = analytical::solve_network_homogeneous(64, 5, 6, per);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(r.measured_tau[i], model.tau[0], 0.06 * model.tau[0]);
    // measured_p counts collisions AND corrupted frames: compare with the
    // combined failure probability.
    const double fail = 1.0 - (1.0 - model.p[0]) * (1.0 - per);
    EXPECT_NEAR(r.measured_p[i], fail, 0.05);
  }
  // Error slots appear in roughly PER proportion of clean transmissions.
  const double error_fraction =
      static_cast<double>(r.error_slots) /
      static_cast<double>(r.error_slots + r.success_slots);
  EXPECT_NEAR(error_fraction, per, 0.03);
}

TEST(PerTest, NoisyChannelLowersUtilityAndThroughput) {
  SimConfig clean = make_config(12);
  SimConfig noisy = make_config(12);
  noisy.params.packet_error_rate = 0.3;
  Simulator sim_clean(clean, std::vector<int>(5, 79));
  Simulator sim_noisy(noisy, std::vector<int>(5, 79));
  const auto rc = sim_clean.run_slots(200000);
  const auto rn = sim_noisy.run_slots(200000);
  EXPECT_LT(rn.throughput, rc.throughput);
  EXPECT_LT(rn.payoff_rate[0], rc.payoff_rate[0]);
}

TEST(PerTest, NoiseShiftsEfficientNeDownward) {
  // The optimal per-slot transmission probability τ* balances idle time
  // against collision time — a channel property PER barely touches. But
  // PER makes the backoff chain escalate (corrupted frames look like
  // collisions to the sender), depressing τ at every configured window;
  // recovering τ* therefore needs a *smaller* window, so the efficient NE
  // shifts down as the channel gets noisier — while the achievable
  // utility of course drops.
  phy::Parameters clean = phy::Parameters::paper();
  phy::Parameters noisy = clean;
  noisy.packet_error_rate = 0.4;
  double best_clean = -1e30, best_noisy = -1e30;
  int w_star_clean = 0, w_star_noisy = 0;
  for (int w = 20; w <= 800; w += 4) {
    const double uc = analytical::homogeneous_utility_rate(
        w, 10, clean, phy::AccessMode::kBasic);
    const double un = analytical::homogeneous_utility_rate(
        w, 10, noisy, phy::AccessMode::kBasic);
    if (uc > best_clean) { best_clean = uc; w_star_clean = w; }
    if (un > best_noisy) { best_noisy = un; w_star_noisy = w; }
  }
  EXPECT_LT(best_noisy, best_clean);
  EXPECT_LT(w_star_noisy, w_star_clean);
  // The windows should roughly compensate the escalation: τ at the noisy
  // optimum stays near τ at the clean optimum.
  const double tau_clean = analytical::homogeneous_tau(w_star_clean, 10, 6, 0.0);
  const double tau_noisy =
      analytical::homogeneous_tau(w_star_noisy, 10, 6, 0.4);
  EXPECT_NEAR(tau_noisy, tau_clean, 0.35 * tau_clean);
}

// ---- Capture effect ----

TEST(CaptureTest, ValidatesProbability) {
  SimConfig config = make_config();
  config.capture_probability = 1.5;
  EXPECT_THROW(Simulator(config, {32, 32}), std::invalid_argument);
  config.capture_probability = -0.1;
  EXPECT_THROW(Simulator(config, {32, 32}), std::invalid_argument);
  config.capture_probability = std::nan("");
  EXPECT_THROW(Simulator(config, {32, 32}), std::invalid_argument);
}

TEST(CaptureTest, RescuesCollisionsAndRaisesThroughput) {
  SimConfig plain = make_config(13);
  SimConfig capture = make_config(13);
  capture.capture_probability = 0.5;
  Simulator sim_plain(plain, std::vector<int>(10, 16));
  Simulator sim_capture(capture, std::vector<int>(10, 16));
  const auto rp = sim_plain.run_slots(200000);
  const auto rc = sim_capture.run_slots(200000);
  EXPECT_EQ(rp.capture_slots, 0u);
  EXPECT_GT(rc.capture_slots, 0u);
  EXPECT_GT(rc.throughput, rp.throughput);
  // Captured slots are a subset of successes.
  EXPECT_LE(rc.capture_slots, rc.success_slots);
}

TEST(CaptureTest, FullCaptureEliminatesPureCollisions) {
  SimConfig config = make_config(14);
  config.capture_probability = 1.0;
  Simulator sim(config, std::vector<int>(5, 8));
  const auto r = sim.run_slots(100000);
  EXPECT_EQ(r.collision_slots, 0u);
  EXPECT_GT(r.capture_slots, 0u);
}

TEST(CaptureTest, UniformCaptureSoftensTheAggressorsPremium) {
  // Uniform-winner capture hands contested slots to a random contender.
  // The aggressor is party to almost every collision, but so is whichever
  // conformer it collided with — and conformers previously earned nothing
  // from those slots. Relative to its baseline, the conformer gains more,
  // so the aggressor's payoff premium *shrinks* as capture strengthens.
  auto premium = [&](double capture_p) {
    SimConfig config = make_config(15);
    config.capture_probability = capture_p;
    Simulator sim(config, {16, 128, 128, 128});
    const auto r = sim.run_slots(300000);
    return r.payoff_rate[0] / r.payoff_rate[1];
  };
  const double plain = premium(0.0);
  const double strong = premium(0.8);
  EXPECT_GT(plain, 1.0);   // aggression still pays in both regimes
  EXPECT_GT(strong, 1.0);
  EXPECT_LT(strong, plain);
}

// ---- Backoff policies ----

TEST(BackoffPolicyTest, ConstantPolicyNeverAdapts) {
  DcfNode node(16, 6, util::Rng(1), BackoffPolicy::kConstant);
  node.on_collision();
  node.on_collision();
  EXPECT_EQ(node.current_window(), 16);
  EXPECT_EQ(node.stage(), 0);
}

TEST(BackoffPolicyTest, MildIncreasesAndDecays) {
  DcfNode node(16, 6, util::Rng(2), BackoffPolicy::kMild);
  EXPECT_EQ(node.current_window(), 16);
  node.on_collision();
  const auto after_collision = node.current_window();
  EXPECT_GT(after_collision, 16);    // ×1.5-ish
  EXPECT_LE(after_collision, 16 * 64);
  node.on_success();
  EXPECT_EQ(node.current_window(), after_collision - 1);  // linear decrease
  // Decay floors at the configured window.
  for (int i = 0; i < 100; ++i) node.on_success();
  EXPECT_EQ(node.current_window(), 16);
}

TEST(BackoffPolicyTest, MildCapsAtMaxStageWindow) {
  DcfNode node(16, 2, util::Rng(3), BackoffPolicy::kMild);
  for (int i = 0; i < 50; ++i) node.on_collision();
  EXPECT_LE(node.current_window(), 16 << 2);
}

TEST(BackoffPolicyTest, SetCwResetsMildWindow) {
  DcfNode node(16, 6, util::Rng(4), BackoffPolicy::kMild);
  node.on_collision();
  node.set_cw(32);
  EXPECT_EQ(node.current_window(), 32);
}

double mean_jain(BackoffPolicy policy, int w, std::uint64_t slots,
                 int seeds) {
  util::RunningStats jain;
  for (int seed = 0; seed < seeds; ++seed) {
    SimConfig config = make_config(30 + static_cast<std::uint64_t>(seed));
    config.backoff_policy = policy;
    Simulator sim(config, std::vector<int>(10, w));
    const auto r = sim.run_slots(slots);
    std::vector<double> successes;
    for (const auto& node : r.node) {
      successes.push_back(static_cast<double>(node.successes));
    }
    jain.add(util::jain_fairness(successes));
  }
  return jain.mean();
}

TEST(BackoffPolicyTest, MildImprovesVeryShortTermFairness) {
  // MACAW's regime: over a few hundred slots BEB lets the recent winner
  // keep a small window while losers sit in deep backoff; MILD's gentle
  // ×1.5/−1 adjustments keep windows comparable. (Over long horizons the
  // ranking flips — MILD's slow decay leaves windows dispersed — see
  // MildSlowDecayHurtsLongRunFairness.)
  EXPECT_GT(mean_jain(BackoffPolicy::kMild, 4, 500, 12),
            mean_jain(BackoffPolicy::kBinaryExponential, 4, 500, 12));
  EXPECT_GT(mean_jain(BackoffPolicy::kMild, 16, 500, 12),
            mean_jain(BackoffPolicy::kBinaryExponential, 16, 500, 12));
}

TEST(BackoffPolicyTest, MildSlowDecayHurtsLongRunFairness) {
  EXPECT_LT(mean_jain(BackoffPolicy::kMild, 16, 20000, 8),
            mean_jain(BackoffPolicy::kBinaryExponential, 16, 20000, 8));
}

TEST(BackoffPolicyTest, TinyConstantWindowCausesLockout) {
  // W = 2 with no adaptation: whoever wins keeps drawing from {0, 1}
  // against losers doing the same — long-run channel capture by a lucky
  // node (Jain index collapses), the failure BEB exists to prevent.
  EXPECT_LT(mean_jain(BackoffPolicy::kConstant, 2, 20000, 8), 0.6);
  EXPECT_GT(mean_jain(BackoffPolicy::kBinaryExponential, 2, 20000, 8), 0.9);
}

TEST(BackoffPolicyTest, PoliciesDeliverComparableThroughput) {
  // Sanity: the ablation alternatives remain functional MAC protocols.
  for (auto policy : {BackoffPolicy::kBinaryExponential, BackoffPolicy::kMild,
                      BackoffPolicy::kConstant}) {
    SimConfig config = make_config(40);
    config.backoff_policy = policy;
    Simulator sim(config, std::vector<int>(10, 64));
    const auto r = sim.run_slots(100000);
    EXPECT_GT(r.throughput, 0.5) << static_cast<int>(policy);
  }
}

}  // namespace
}  // namespace smac::sim
