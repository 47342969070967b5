#include "phy/energy.hpp"

#include <gtest/gtest.h>

#include "analytical/fixed_point_solver.hpp"

namespace smac::phy {
namespace {

const Parameters kParams = Parameters::paper();

TEST(PowerProfileTest, ValidatesDraws) {
  PowerProfile p;
  EXPECT_NO_THROW(p.validate());
  p.tx_mw = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PowerProfile{};
  p.idle_mw = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ExchangeEnergyTest, BasicSuccessMatchesHandComputation) {
  const PowerProfile power;
  const EnergyBreakdown e =
      successful_exchange_energy(kParams, AccessMode::kBasic, power);
  // tx: (400 + 8184) µs at 1900 mW → mJ.
  EXPECT_NEAR(e.tx_mj, 1900.0 * 8584.0 * 1e-9 * 1e3, 1e-6);
  // rx: 240 µs ACK at 1340 mW.
  EXPECT_NEAR(e.rx_mj, 1340.0 * 240.0 * 1e-9 * 1e3, 1e-6);
  EXPECT_GT(e.total_mj(), e.tx_mj);
}

TEST(ExchangeEnergyTest, RtsCtsCollisionIsCheapEnergyToo) {
  const PowerProfile power;
  const double basic =
      collided_attempt_energy(kParams, AccessMode::kBasic, power).total_mj();
  const double rts =
      collided_attempt_energy(kParams, AccessMode::kRtsCts, power).total_mj();
  // Basic collisions burn the whole frame; RTS collisions only the RTS.
  EXPECT_GT(basic, 15.0 * rts);
}

TEST(ExchangeEnergyTest, RtsCtsSuccessCostsMoreThanBasic) {
  const PowerProfile power;
  const double basic =
      successful_exchange_energy(kParams, AccessMode::kBasic, power).total_mj();
  const double rts = successful_exchange_energy(kParams, AccessMode::kRtsCts,
                                                power).total_mj();
  EXPECT_GT(rts, basic);  // handshake overhead
  EXPECT_LT(rts, 1.2 * basic);
}

TEST(NodePowerDrawTest, ValidatesState) {
  const PowerProfile power;
  EXPECT_THROW(node_power_draw_mw({}, {}, kParams, AccessMode::kBasic, power),
               std::invalid_argument);
  EXPECT_THROW(node_power_draw_mw({0.1}, {0.1, 0.2}, kParams,
                                  AccessMode::kBasic, power),
               std::invalid_argument);
}

TEST(NodePowerDrawTest, BoundedByRadioStates) {
  const PowerProfile power;
  const auto state =
      analytical::try_solve_network(std::vector<int>(5, 64), 6).state;
  const auto draw =
      node_power_draw_mw(state.tau, state.p, kParams, AccessMode::kBasic,
                         power);
  for (double mw : draw) {
    EXPECT_GT(mw, 0.5 * power.idle_mw);  // mostly-busy channel ≥ rx-ish draw
    EXPECT_LT(mw, power.tx_mw);          // nobody transmits all the time
  }
}

TEST(NodePowerDrawTest, AggressorBurnsMore) {
  const PowerProfile power;
  const auto state = analytical::try_solve_network({8, 256}, 6).state;
  const auto draw =
      node_power_draw_mw(state.tau, state.p, kParams, AccessMode::kBasic,
                         power);
  EXPECT_GT(draw[0], draw[1]);
}

TEST(NodePowerDrawTest, QuietChannelApproachesIdleDraw) {
  const PowerProfile power;
  // Two nodes with enormous windows: the channel is mostly σ-slots.
  const auto state = analytical::try_solve_network({4096, 4096}, 6).state;
  const auto draw =
      node_power_draw_mw(state.tau, state.p, kParams, AccessMode::kBasic,
                         power);
  EXPECT_NEAR(draw[0], power.idle_mw, 0.25 * power.idle_mw);
}

TEST(EquivalentCostTest, ValidatesArguments) {
  const PowerProfile power;
  EXPECT_THROW(equivalent_transmission_cost(kParams, AccessMode::kBasic, power,
                                            -0.1, 1.0),
               std::invalid_argument);
  EXPECT_THROW(equivalent_transmission_cost(kParams, AccessMode::kBasic, power,
                                            0.1, -1.0),
               std::invalid_argument);
}

TEST(EquivalentCostTest, InterpolatesBetweenEventEnergies) {
  const PowerProfile power;
  const double e0 = equivalent_transmission_cost(kParams, AccessMode::kBasic,
                                                 power, 0.0, 1.0);
  const double e1 = equivalent_transmission_cost(kParams, AccessMode::kBasic,
                                                 power, 1.0, 1.0);
  const double mid = equivalent_transmission_cost(kParams, AccessMode::kBasic,
                                                  power, 0.5, 1.0);
  EXPECT_NEAR(mid, 0.5 * (e0 + e1), 1e-12);
  EXPECT_DOUBLE_EQ(
      equivalent_transmission_cost(kParams, AccessMode::kBasic, power, 0.5,
                                   0.0),
      0.0);
}

TEST(EquivalentCostTest, PaperCostCorrespondsToPlausibleEnergyPrice) {
  // The paper's e = 0.01 with g = 1: at WaveLAN power draws one basic-mode
  // attempt costs ~16.5 mJ — e = 0.01 corresponds to pricing energy at
  // ~0.0006 gain/mJ. This test pins the bridge formula rather than the
  // physics: cost scales linearly in the price.
  const PowerProfile power;
  const double price = 6e-4;
  const double e = equivalent_transmission_cost(kParams, AccessMode::kBasic,
                                                power, 0.1, price);
  EXPECT_GT(e, 0.001);
  EXPECT_LT(e, 0.1);
  EXPECT_NEAR(equivalent_transmission_cost(kParams, AccessMode::kBasic, power,
                                           0.1, 2.0 * price),
              2.0 * e, 1e-12);
}

}  // namespace
}  // namespace smac::phy
