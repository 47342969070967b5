#include "analytical/throughput.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace smac::analytical {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();

TEST(ChannelMetricsTest, RejectsEmptyInput) {
  EXPECT_THROW(channel_metrics({}, kParams, phy::AccessMode::kBasic),
               std::invalid_argument);
}

TEST(ChannelMetricsTest, SingleNodeNeverCollides) {
  const ChannelMetrics m =
      channel_metrics({0.1}, kParams, phy::AccessMode::kBasic);
  EXPECT_NEAR(m.p_tr, 0.1, 1e-12);
  EXPECT_NEAR(m.p_s, 1.0, 1e-12);
  EXPECT_NEAR(m.per_node_success[0], 0.1, 1e-12);
}

TEST(ChannelMetricsTest, SymmetricTwoNodeCloseForm) {
  const double tau = 0.2;
  const ChannelMetrics m =
      channel_metrics({tau, tau}, kParams, phy::AccessMode::kBasic);
  EXPECT_NEAR(m.p_tr, 1.0 - 0.8 * 0.8, 1e-12);
  EXPECT_NEAR(m.per_node_success[0], 0.2 * 0.8, 1e-12);
  EXPECT_NEAR(m.p_s, 2 * 0.2 * 0.8 / m.p_tr, 1e-12);
}

TEST(ChannelMetricsTest, SlotLengthIsConvexCombination) {
  const ChannelMetrics m =
      channel_metrics({0.05, 0.1, 0.02}, kParams, phy::AccessMode::kBasic);
  const phy::SlotTimes t = kParams.slot_times(phy::AccessMode::kBasic);
  EXPECT_GT(m.t_slot_us, t.sigma_us);
  EXPECT_LT(m.t_slot_us, t.ts_us);
  // Explicit reconstruction.
  const double succ = std::accumulate(m.per_node_success.begin(),
                                      m.per_node_success.end(), 0.0);
  const double expect = (1 - m.p_tr) * t.sigma_us + succ * t.ts_us +
                        (m.p_tr - succ) * t.tc_us;
  EXPECT_NEAR(m.t_slot_us, expect, 1e-9);
}

TEST(ChannelMetricsTest, PerNodeThroughputSumsToTotal) {
  const ChannelMetrics m = channel_metrics({0.02, 0.05, 0.01, 0.03}, kParams,
                                           phy::AccessMode::kBasic);
  const double sum = std::accumulate(m.per_node_throughput.begin(),
                                     m.per_node_throughput.end(), 0.0);
  EXPECT_NEAR(sum, m.throughput, 1e-12);
}

TEST(ChannelMetricsTest, ThroughputBounded) {
  for (double tau : {0.001, 0.01, 0.1, 0.5}) {
    const ChannelMetrics m = channel_metrics(std::vector<double>(10, tau),
                                             kParams, phy::AccessMode::kBasic);
    EXPECT_GE(m.throughput, 0.0);
    EXPECT_LE(m.throughput, 1.0);
  }
}

TEST(ChannelMetricsTest, BianchiSaturationThroughputBallpark) {
  // Bianchi (2000) reports basic-access saturation throughput around
  // 0.8–0.85 for W = 32, m = 5-ish networks at these parameters. Verify
  // the model lands in that neighborhood.
  const ChannelMetrics m =
      homogeneous_channel_metrics(32, 10, kParams, phy::AccessMode::kBasic);
  EXPECT_GT(m.throughput, 0.55);
  EXPECT_LT(m.throughput, 0.90);
}

TEST(ChannelMetricsTest, RtsCtsMoreRobustUnderContention) {
  // With many aggressive nodes, RTS/CTS throughput should beat basic
  // (cheap collisions) — the paper's §V.F motivation.
  const ChannelMetrics basic = homogeneous_channel_metrics(
      16, 50, kParams, phy::AccessMode::kBasic);
  const ChannelMetrics rts = homogeneous_channel_metrics(
      16, 50, kParams, phy::AccessMode::kRtsCts);
  EXPECT_GT(rts.throughput, basic.throughput);
}

TEST(ChannelMetricsTest, HomogeneousMetricsSolveAtTheConfiguredPer) {
  // Noise losses escalate the backoff like collisions do, so the fixed
  // point, and with it the slot length, depends on the parameters' PER.
  phy::Parameters noisy = kParams;
  noisy.packet_error_rate = 0.2;
  const NetworkState at_per =
      try_solve_network(std::vector<int>(5, 55), noisy.max_backoff_stage, {},
                        0.2)
          .state;
  const ChannelMetrics want =
      channel_metrics(at_per.tau, noisy, phy::AccessMode::kBasic);
  const ChannelMetrics got =
      homogeneous_channel_metrics(55, 5, noisy, phy::AccessMode::kBasic);
  EXPECT_DOUBLE_EQ(got.t_slot_us, want.t_slot_us);
  EXPECT_NEAR(got.t_slot_us, 1021.87, 0.01);  // 1347.46 if solved at PER 0
}

TEST(ChannelMetricsTest, AsymmetricTauFavorsAggressor) {
  const ChannelMetrics m =
      channel_metrics({0.2, 0.05}, kParams, phy::AccessMode::kBasic);
  EXPECT_GT(m.per_node_success[0], m.per_node_success[1]);
  EXPECT_GT(m.per_node_throughput[0], m.per_node_throughput[1]);
}

TEST(ChannelMetricsTest, AllSilentChannelIsIdle) {
  const ChannelMetrics m =
      channel_metrics({0.0, 0.0}, kParams, phy::AccessMode::kBasic);
  EXPECT_DOUBLE_EQ(m.p_tr, 0.0);
  EXPECT_DOUBLE_EQ(m.throughput, 0.0);
  EXPECT_DOUBLE_EQ(m.t_slot_us, kParams.sigma_us);
}

}  // namespace
}  // namespace smac::analytical
