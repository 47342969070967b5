// End-to-end "trust pipeline" integration: the §V.C search establishes the
// agreement, the ref-[3]-style detector guards it, and evidence-gated
// GTFT enforces it — the full operational story the paper sketches across
// §IV, §V.C and its citation of [3].
#include <gtest/gtest.h>

#include "game/equilibrium.hpp"
#include "sim/adaptive_runtime.hpp"
#include "sim/cw_estimator.hpp"
#include "sim/misbehavior_detector.hpp"
#include "sim/search_protocol.hpp"

namespace smac {
namespace {

TEST(TrustPipelineTest, SearchThenGuardThenEnforce) {
  const int n = 5;
  const phy::Parameters params = phy::Parameters::paper();
  const auto mode = phy::AccessMode::kRtsCts;
  const game::StageGame stage_game(params, mode);
  const int w_star = game::EquilibriumFinder(stage_game, n).efficient_cw();

  // --- Phase 1: the network searches for its efficient NE (§V.C). ---
  sim::SimConfig config;
  config.mode = mode;
  config.seed = 99;
  sim::Simulator simulator(config, std::vector<int>(n, 4));
  sim::SearchConfig search;
  search.w_start = 4;
  search.settle_us = 1e5;
  search.measure_us = 8e6;
  search.patience = 3;
  search.improvement_epsilon = 0.005;
  const auto found = sim::run_search(simulator, 0, search);
  const int w_agreed = found.w_found;
  // The agreement sits on the W_c* payoff plateau.
  const double u_found = stage_game.homogeneous_utility_rate(w_agreed, n);
  const double u_star = stage_game.homogeneous_utility_rate(w_star, n);
  ASSERT_GE(u_found, 0.93 * u_star);

  // --- Phase 2: the detector certifies the network compliant. ---
  const auto clean = simulator.run_slots(150000);
  const sim::TryDetectResult certified =
      sim::try_detect_misbehavior(clean, w_agreed, params.max_backoff_stage);
  ASSERT_TRUE(certified.ok());
  for (const auto& verdict : certified.verdicts) {
    EXPECT_FALSE(verdict.flagged);
  }

  // --- Phase 3: a cheater joins; detector-gated GTFT players flag and
  //     punish it. ---
  sim::SimConfig enforce_config;
  enforce_config.mode = mode;
  enforce_config.seed = 100;
  const int w_cheat = std::max(1, w_agreed / 4);
  sim::AdaptiveRuntime runtime(
      enforce_config, static_cast<std::size_t>(n),
      [&](std::size_t i, auto estimates,
          auto flags) -> std::unique_ptr<game::Strategy> {
        if (i == n - 1) {
          return std::make_unique<game::ConstantStrategy>(w_cheat);
        }
        return std::make_unique<sim::DetectorGtft>(w_agreed, estimates,
                                                   flags);
      },
      6e6);
  const auto enforced = runtime.play(6);

  bool cheater_flagged = false;
  for (const auto& flags : enforced.flags_per_stage) {
    cheater_flagged |= flags.back();
  }
  EXPECT_TRUE(cheater_flagged);
  // Retaliation: honest players end at or near the cheater's window.
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_LE(enforced.history.back().cw[static_cast<std::size_t>(i)],
              w_cheat * 2);
  }
  // And the whole episode demonstrates §V.D economics: the cheater's
  // post-retaliation stage payoff is below what conforming at w_agreed
  // paid before it joined.
  const double u_conform = stage_game.homogeneous_stage_utility(w_agreed, n);
  const double u_after = enforced.history.back().utility.back();
  EXPECT_LT(u_after, u_conform);
}

}  // namespace
}  // namespace smac
