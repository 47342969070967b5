#include "game/rate_game.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "analytical/throughput.hpp"
#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"

namespace smac::game {
namespace {

RateGameConfig base_config(double ber = 0.0) {
  RateGameConfig config;
  config.n = 10;
  config.bit_error_rate = ber;
  return config;
}

TEST(RateGameTest, ValidatesConfiguration) {
  RateGameConfig bad = base_config();
  bad.n = 1;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  bad = base_config();
  bad.bit_error_rate = 1.0;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  bad = base_config();
  bad.min_payload_bits = 0.0;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  bad = base_config();
  bad.max_payload_bits = 10.0;
  bad.min_payload_bits = 100.0;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  // Non-finite input is rejected, not turned into a silent answer.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  bad = base_config();
  bad.bit_error_rate = nan;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  bad = base_config();
  bad.max_payload_bits = inf;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  bad = base_config();
  bad.max_payload_bits = nan;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
  bad = base_config();
  bad.min_payload_bits = nan;
  EXPECT_THROW(RateGame{bad}, std::invalid_argument);
}

TEST(RateGameTest, DefaultsToMacGameEfficientWindow) {
  const RateGame game(base_config());
  const StageGame mac(phy::Parameters::paper(), phy::AccessMode::kBasic);
  EXPECT_EQ(game.common_window(), EquilibriumFinder(mac, 10).efficient_cw());
  EXPECT_GT(game.tau(), 0.0);
  EXPECT_LT(game.tau(), 1.0);
}

TEST(RateGameTest, TauIsTheHomogeneousPriceAtTheConfiguredPer) {
  // W* comes from a StageGame at PER 0.2 (116 for the default config), so
  // τ must be that window's homogeneous fixed point at PER 0.2 as well,
  // bit for bit, not the PER-0 root (0.014679 where this one is 0.010777).
  RateGameConfig config = base_config();
  config.params.packet_error_rate = 0.2;
  const RateGame game(config);
  const analytical::HomogeneousPoint point = analytical::homogeneous_point(
      game.common_window(), config.n, config.params, config.mode);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(game.tau()),
            std::bit_cast<std::uint64_t>(point.tau))
      << game.tau() << " vs " << point.tau;
}

TEST(RateGameTest, RejectsBadProfiles) {
  const RateGame game(base_config());
  EXPECT_THROW(game.utility_rates({1024.0}), std::invalid_argument);
  std::vector<double> out_of_range(10, 1024.0);
  out_of_range[3] = 1e9;
  EXPECT_THROW(game.utility_rates(out_of_range), std::invalid_argument);
  std::vector<double> not_a_number(10, 1024.0);
  not_a_number[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(game.utility_rates(not_a_number), std::invalid_argument);
}

TEST(RateGameTest, LongerFramesWinSharedClockAtZeroBer) {
  // Without bit errors, utility rises with payload (amortized overhead):
  // the race-to-max regime.
  const RateGame game(base_config());
  EXPECT_GT(game.homogeneous_utility_rate(8184.0),
            game.homogeneous_utility_rate(2048.0));
  EXPECT_GT(game.homogeneous_utility_rate(32768.0),
            game.homogeneous_utility_rate(8184.0));
  EXPECT_NEAR(game.efficient_payload(), game.config().max_payload_bits,
              game.config().max_payload_bits * 0.01);
}

TEST(RateGameTest, BitErrorsCreateInteriorOptimum) {
  const RateGame game(base_config(1e-5));
  const double l_star = game.efficient_payload();
  EXPECT_GT(l_star, game.config().min_payload_bits * 1.5);
  EXPECT_LT(l_star, game.config().max_payload_bits * 0.9);
  // Unimodality around the optimum.
  EXPECT_GT(game.homogeneous_utility_rate(l_star),
            game.homogeneous_utility_rate(l_star * 0.5));
  EXPECT_GT(game.homogeneous_utility_rate(l_star),
            game.homogeneous_utility_rate(l_star * 2.0));
}

TEST(RateGameTest, HigherBerShrinksOptimalFrames) {
  const double l_low = RateGame(base_config(1e-6)).efficient_payload();
  const double l_high = RateGame(base_config(1e-4)).efficient_payload();
  EXPECT_GT(l_low, l_high);
}

TEST(RateGameTest, LongFramesImposeExternalities) {
  // One jumbo sender slows everyone: the others' utility drops relative
  // to the all-moderate profile (the collision/clock externality).
  const RateGame game(base_config(1e-5));
  std::vector<double> moderate(10, 8184.0);
  std::vector<double> with_jumbo = moderate;
  with_jumbo[0] = 60000.0;
  const auto u_moderate = game.utility_rates(moderate);
  const auto u_jumbo = game.utility_rates(with_jumbo);
  EXPECT_LT(u_jumbo[1], u_moderate[1]);
}

TEST(RateGameTest, SelfishEquilibriumAtOrAboveSocialOptimum) {
  // The Tan-Guttag gap: the symmetric best-response fixed point uses
  // frames at least as long as the social optimum because part of a long
  // frame's collision cost lands on the others.
  const RateGame game(base_config(2e-5));
  const double l_social = game.efficient_payload();
  const double l_selfish = game.equilibrium_payload();
  EXPECT_GE(l_selfish, l_social * 0.999);
  // And the equilibrium is a best response to itself.
  std::vector<double> profile(10, l_selfish);
  EXPECT_NEAR(game.best_response(profile, 0), l_selfish,
              std::max(2.0, l_selfish * 1e-3));
}

TEST(RateGameTest, SelfishEquilibriumCostsSocialWelfare) {
  const RateGame game(base_config(2e-5));
  const double l_social = game.efficient_payload();
  const double l_selfish = game.equilibrium_payload();
  if (l_selfish > l_social * 1.01) {  // gap exists at this BER
    EXPECT_LT(game.homogeneous_utility_rate(l_selfish),
              game.homogeneous_utility_rate(l_social));
  }
}

TEST(RateGameTest, RtsCtsRemovesLengthExternality) {
  // Under RTS/CTS, collisions never carry data frames, so one node's
  // frame length no longer inflates the others' collision costs. The
  // jumbo externality should be far weaker than in basic mode.
  RateGameConfig basic_cfg = base_config(1e-5);
  RateGameConfig rts_cfg = base_config(1e-5);
  rts_cfg.mode = phy::AccessMode::kRtsCts;

  auto externality = [](const RateGame& game) {
    std::vector<double> moderate(10, 8184.0);
    std::vector<double> with_jumbo = moderate;
    with_jumbo[0] = 60000.0;
    const double before = game.utility_rates(moderate)[1];
    const double after = game.utility_rates(with_jumbo)[1];
    return (before - after) / before;  // relative harm to a bystander
  };
  const double harm_basic = externality(RateGame(basic_cfg));
  const double harm_rts = externality(RateGame(rts_cfg));
  EXPECT_GT(harm_basic, 0.0);
  // The bystander still loses clock share to the longer success slots,
  // but the collision externality is gone: harm must drop.
  EXPECT_LT(harm_rts, harm_basic);
}

TEST(RateGameTest, BestResponseValidatesSelf) {
  const RateGame game(base_config());
  std::vector<double> profile(10, 1024.0);
  EXPECT_THROW(game.best_response(profile, 10), std::invalid_argument);
}

}  // namespace
}  // namespace smac::game
