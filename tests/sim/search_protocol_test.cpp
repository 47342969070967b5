#include "sim/search_protocol.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "analytical/utility.hpp"
#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"

namespace smac::sim {
namespace {

SimConfig rts_config(std::uint64_t seed) {
  SimConfig config;
  config.mode = phy::AccessMode::kRtsCts;
  config.seed = seed;
  return config;
}

// RTS/CTS keeps W_c* small (≈ a dozen for n = 5) so searches with step 1
// finish quickly in tests.
int efficient_cw_rts(int n) {
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);
  return game::EquilibriumFinder(game, n).efficient_cw();
}

// Model utility rate at a common window — the yardstick for search
// quality. The payoff landscape around W_c* is a wide plateau (the paper's
// own "robust and tolerant" observation), so asserting near-optimal
// *payoff* is the meaningful check; pinning the exact window is not.
double model_payoff(int w, int n) {
  return analytical::homogeneous_utility_rate(
      w, n, phy::Parameters::paper(), phy::AccessMode::kRtsCts);
}

SearchConfig fast_search(int w_start) {
  SearchConfig config;
  config.w_start = w_start;
  config.settle_us = 5e4;
  config.measure_us = 4e6;
  config.patience = 3;
  return config;
}

TEST(SearchProtocolTest, ValidatesArguments) {
  Simulator sim(rts_config(1), std::vector<int>(5, 16));
  SearchConfig config;
  config.w_start = 0;
  EXPECT_THROW(run_search(sim, 0, config), std::invalid_argument);
  config = SearchConfig{};
  config.step = 0;
  EXPECT_THROW(run_search(sim, 0, config), std::invalid_argument);
  config = SearchConfig{};
  config.patience = 0;
  EXPECT_THROW(run_search(sim, 0, config), std::invalid_argument);
  // Durations must be finite (an infinite one never ends) and epsilon a
  // number >= 0.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.0, kInf, kNaN}) {
    config = SearchConfig{};
    config.measure_us = bad;
    EXPECT_THROW(run_search(sim, 0, config), std::invalid_argument) << bad;
  }
  for (const double bad : {-1.0, kInf, kNaN}) {
    config = SearchConfig{};
    config.settle_us = bad;
    EXPECT_THROW(run_search(sim, 0, config), std::invalid_argument) << bad;
  }
  for (const double bad : {-0.1, kNaN}) {
    config = SearchConfig{};
    config.improvement_epsilon = bad;
    EXPECT_THROW(run_search(sim, 0, config), std::invalid_argument) << bad;
  }
  config = SearchConfig{};
  EXPECT_THROW(run_search(sim, 99, config), std::invalid_argument);
}

TEST(SearchProtocolTest, RightSearchFindsNearOptimalPayoff) {
  const int n = 5;
  const int w_star = efficient_cw_rts(n);
  Simulator sim(rts_config(2), std::vector<int>(n, 4));
  const SearchResult r = run_search(sim, 0, fast_search(4));
  EXPECT_FALSE(r.used_left_search);
  EXPECT_FALSE(r.hit_step_limit);
  EXPECT_GT(r.w_found, 4);  // it moved off the congested start
  EXPECT_GE(model_payoff(r.w_found, n), 0.93 * model_payoff(w_star, n));
  // All nodes end on the broadcast window.
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    EXPECT_EQ(sim.cw(i), r.w_found);
  }
}

TEST(SearchProtocolTest, LeftSearchFindsNearOptimalFromAbove) {
  // The 802.11 payoff curve is so flat (even W = 500 keeps ~85% of the
  // n = 5 basic-mode peak) that detecting the downhill direction needs a
  // low-noise regime: long measurement windows, a coarse step so the true
  // per-move gain (~2.5%) exceeds the improvement threshold, and an
  // epsilon that filters residual noise. The first right-probe then fails
  // and the protocol walks left onto the plateau.
  const int n = 5;
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kBasic);
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
  auto basic_payoff = [&](int w) {
    return analytical::homogeneous_utility_rate(
        w, n, phy::Parameters::paper(), phy::AccessMode::kBasic);
  };
  SimConfig config;
  config.mode = phy::AccessMode::kBasic;
  config.seed = 3;
  Simulator sim(config, std::vector<int>(n, 500));
  SearchConfig search;
  search.w_start = 500;
  search.step = 64;
  search.patience = 2;
  search.settle_us = 1e6;
  search.measure_us = 4e8;
  search.improvement_epsilon = 0.015;
  const SearchResult r = run_search(sim, 0, search);
  EXPECT_TRUE(r.used_left_search);
  EXPECT_LT(r.w_found, 400);
  EXPECT_GE(basic_payoff(r.w_found), 0.93 * basic_payoff(w_star));
}

TEST(SearchProtocolTest, StartAtOptimumStaysNear) {
  const int n = 5;
  const int w_star = efficient_cw_rts(n);
  Simulator sim(rts_config(4), std::vector<int>(n, w_star));
  const SearchResult r = run_search(sim, 0, fast_search(w_star));
  EXPECT_GE(model_payoff(r.w_found, n), 0.95 * model_payoff(w_star, n));
}

TEST(SearchProtocolTest, TraceIsRecorded) {
  Simulator sim(rts_config(5), std::vector<int>(5, 8));
  const SearchResult r = run_search(sim, 0, fast_search(8));
  EXPECT_EQ(static_cast<int>(r.trace.size()), r.steps);
  EXPECT_GE(r.steps, 2);
  EXPECT_GT(r.elapsed_us, 0.0);
  EXPECT_EQ(r.trace.front().w, 8);
}

TEST(SearchProtocolTest, StepLimitIsHonored) {
  Simulator sim(rts_config(6), std::vector<int>(5, 4));
  SearchConfig config = fast_search(4);
  config.max_steps = 3;
  const SearchResult r = run_search(sim, 0, config);
  EXPECT_TRUE(r.hit_step_limit);
  EXPECT_LE(r.steps, 3);
}

TEST(SearchProtocolTest, LargerStepStillLandsOnPlateau) {
  const int n = 5;
  const int w_star = efficient_cw_rts(n);
  Simulator sim(rts_config(7), std::vector<int>(n, 4));
  SearchConfig config = fast_search(4);
  config.step = 4;
  const SearchResult r = run_search(sim, 0, config);
  EXPECT_GE(model_payoff(r.w_found, n), 0.90 * model_payoff(w_star, n));
}

TEST(SearchProtocolTest, AnyLeaderFindsThePlateau) {
  const int n = 5;
  const int w_star = efficient_cw_rts(n);
  for (std::size_t leader : {0u, 2u, 4u}) {
    Simulator sim(rts_config(8 + leader), std::vector<int>(n, 6));
    const SearchResult r = run_search(sim, leader, fast_search(6));
    EXPECT_GE(model_payoff(r.w_found, n), 0.92 * model_payoff(w_star, n))
        << "leader=" << leader;
  }
}

TEST(SearchProtocolTest, LongerMeasurementTightensTheResult) {
  // With a long measurement window the search should land very close to
  // the plateau top.
  const int n = 5;
  const int w_star = efficient_cw_rts(n);
  Simulator sim(rts_config(12), std::vector<int>(n, 6));
  SearchConfig config = fast_search(6);
  config.measure_us = 1.5e7;
  const SearchResult r = run_search(sim, 0, config);
  EXPECT_GE(model_payoff(r.w_found, n), 0.96 * model_payoff(w_star, n));
}

}  // namespace
}  // namespace smac::sim
