// The forgiving rules' per-stage cost does not grow with the stage index.
//
// contrite-tft and forgiving-gtft read a bounded suffix of the history
// (strategies.hpp), so an enforced repeated game of 16·H stages under
// observation faults and churn costs about 16 times one of H stages. Each
// test times both horizons in one process and bounds their ratio at 64:
// linear cost reads about 16 (18–30 in a RelWithDebInfo build on a 4-core
// x86 host), a decision that rescans the whole history (Θ(H²) per game)
// about 256 (263 and 321 there). A ratio of two runs in the same process
// stays meaningful under sanitizers and through the slow phases of a
// shared host, where an absolute time limit would not.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "fault/fault_injector.hpp"
#include "game/equilibrium.hpp"
#include "game/reaction.hpp"
#include "game/repeated_game.hpp"
#include "phy/parameters.hpp"

namespace smac::game {
namespace {

constexpr std::size_t kPlayers = 5;
constexpr int kShortHorizon = 1000;
constexpr int kLongHorizon = 16 * kShortHorizon;
constexpr double kMaxRatio = 64.0;

using Population = std::vector<std::unique_ptr<Strategy>> (*)(int w_coop);

/// One game's setting: a pure population at the agreed window under
/// enforcement, with `plan`'s observation faults and churn.
struct Setting {
  Population population;
  fault::FaultPlan plan;
};

/// The enforced tournament's churn: 1 % crashes, 30 % recoveries a stage.
fault::FaultPlan churn_plan() {
  fault::FaultPlan plan;
  plan.churn.crash_rate = 0.01;
  plan.churn.recover_rate = 0.3;
  return plan;
}

/// Wall time of one game of `stages` stages.
double play_ms(const StageGame& game, const Setting& setting, int w_coop,
               int stages) {
  RepeatedGameEngine engine(game, setting.population(w_coop));
  ReactionConfig reaction;
  reaction.w_agreed = w_coop;
  engine.set_enforcement(reaction);
  fault::FaultInjector injector(setting.plan, kPlayers, 0x40e1);
  const auto t0 = std::chrono::steady_clock::now();
  const RepeatedGameResult result = engine.play(stages, &injector);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(result.history.size(), static_cast<std::size_t>(stages));
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best of `runs` identical games: the one the host disturbed least.
double best_ms(const StageGame& game, const Setting& setting, int w_coop,
               int stages, int runs) {
  double best = play_ms(game, setting, w_coop, stages);
  for (int r = 1; r < runs; ++r) {
    best = std::min(best, play_ms(game, setting, w_coop, stages));
  }
  return best;
}

void expect_flat_per_stage_cost(const Setting& setting) {
  const StageGame game(phy::Parameters::paper(), phy::AccessMode::kBasic);
  const int w_star =
      EquilibriumFinder(game, static_cast<int>(kPlayers)).efficient_cw();
  // The long games run first: the first one fills the solve cache that
  // every later game reads (a short game replays a long one's first
  // stages, same seed).
  const double long_ms = best_ms(game, setting, w_star, kLongHorizon, 2);
  const double short_ms = best_ms(game, setting, w_star, kShortHorizon, 3);
  EXPECT_LT(long_ms, kMaxRatio * short_ms)
      << setting.population(w_star).front()->name() << ": " << short_ms
      << " ms at " << kShortHorizon << " stages, " << long_ms << " ms at "
      << kLongHorizon;
}

TEST(StrategyHorizonTest, ForgivingGtftPerStageCostIsFlat) {
  // The enforced tournament's plan: ±4 window noise on 5 % of the
  // observations stays under the averaged trigger, so every stage is
  // clean and the streak spans the whole history.
  Setting setting{[](int w_coop) {
                    return make_forgiving_gtft_population(kPlayers, w_coop,
                                                          0.9, 3, 2, 2);
                  },
                  churn_plan()};
  setting.plan.observation.noise_probability = 0.05;
  setting.plan.observation.noise_magnitude = 4;
  expect_flat_per_stage_cost(setting);
}

TEST(StrategyHorizonTest, ContriteTftPerStageCostIsFlat) {
  // Any read below the standing reference ends contrite-tft's streak, so
  // window noise keeps it short; 5 % lost observations (the last belief
  // stands in) leave every stage clean, and the streak spans the whole
  // history.
  Setting setting{[](int w_coop) {
                    return make_contrite_population(kPlayers, w_coop, 3);
                  },
                  churn_plan()};
  setting.plan.observation.loss_probability = 0.05;
  expect_flat_per_stage_cost(setting);
}

}  // namespace
}  // namespace smac::game
