// Non-saturated traffic: Poisson arrivals with per-node queues (an
// extension beyond the paper's saturation assumption; the saturated
// default must remain bit-identical).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace smac::sim {
namespace {

SimConfig poisson_config(double rate_pps, std::uint64_t seed = 1) {
  SimConfig config;
  config.arrival_rate_pps = rate_pps;
  config.seed = seed;
  return config;
}

TEST(PoissonRngTest, MeanAndVarianceMatch) {
  util::Rng rng(5);
  for (double mean : {0.3, 3.0, 12.0, 80.0}) {
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int kDraws = 60000;
    for (int i = 0; i < kDraws; ++i) {
      const auto v = static_cast<double>(rng.poisson(mean));
      sum += v;
      sum_sq += v * v;
    }
    const double m = sum / kDraws;
    const double var = sum_sq / kDraws - m * m;
    EXPECT_NEAR(m, mean, 0.05 * mean + 0.02) << "mean=" << mean;
    EXPECT_NEAR(var, mean, 0.10 * mean + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(NonSaturatedTest, RejectsNegativeRate) {
  EXPECT_THROW(Simulator(poisson_config(-1.0), {32}), std::invalid_argument);
  EXPECT_THROW(Simulator(poisson_config(std::nan("")), {32}),
               std::invalid_argument);
  EXPECT_THROW(
      Simulator(poisson_config(std::numeric_limits<double>::infinity()), {32}),
      std::invalid_argument);
}

TEST(NonSaturatedTest, SaturatedDefaultUnchanged) {
  // arrival_rate_pps = 0 must reproduce the original saturated behaviour
  // exactly (same seeds, same counters).
  SimConfig saturated;
  saturated.seed = 9;
  Simulator a(saturated, {32, 64});
  Simulator b(saturated, {32, 64});
  const auto ra = a.run_slots(20000);
  const auto rb = b.run_slots(20000);
  EXPECT_EQ(ra.node[0].attempts, rb.node[0].attempts);
  EXPECT_TRUE(a.saturated());
  for (double backlog : ra.mean_backlog) EXPECT_DOUBLE_EQ(backlog, 0.0);
}

TEST(NonSaturatedTest, LightLoadDeliversOfferedLoad) {
  // 2 nodes at 3 packets/s each; per packet 8184 µs of payload → offered
  // normalized load ≈ 2·3·8184e-6 ≈ 0.049. Throughput must match it, and
  // collisions must be rare.
  Simulator sim(poisson_config(3.0, 2), {32, 32});
  const auto r = sim.run_for(100.0 * 1e6);  // 100 s
  EXPECT_NEAR(r.throughput, 2 * 3.0 * 8184e-6, 0.006);
  EXPECT_LT(static_cast<double>(r.collision_slots) /
                static_cast<double>(r.success_slots + 1),
            0.02);
  // Queues stay short.
  for (double backlog : r.mean_backlog) EXPECT_LT(backlog, 0.5);
}

TEST(NonSaturatedTest, DeliveredMatchesArrivalsAtLightLoad) {
  Simulator sim(poisson_config(5.0, 3), {32, 32, 32});
  const auto r = sim.run_for(60.0 * 1e6);
  // Each node delivers ≈ rate × time.
  for (const auto& node : r.node) {
    EXPECT_NEAR(static_cast<double>(node.successes), 5.0 * 60.0,
                3.0 * std::sqrt(5.0 * 60.0) + 5.0);
  }
}

TEST(NonSaturatedTest, OverloadSaturatesAndQueuesGrow) {
  // 10 nodes each offering ~12 pkt/s ≈ offered load 0.98 of the channel:
  // above the DCF saturation throughput → backlogs build up and the
  // throughput approaches the saturated value.
  SimConfig saturated;
  saturated.seed = 4;
  Simulator sat(saturated, std::vector<int>(10, 32));
  const double s_sat = sat.run_slots(200000).throughput;

  Simulator over(poisson_config(12.0, 4), std::vector<int>(10, 32));
  const auto r = over.run_for(120.0 * 1e6);
  EXPECT_NEAR(r.throughput, s_sat, 0.05);
  double total_backlog = 0.0;
  for (double backlog : r.mean_backlog) total_backlog += backlog;
  EXPECT_GT(total_backlog, 10.0);  // queues clearly diverging
}

TEST(NonSaturatedTest, IdleNodesDoNotContend) {
  // One saturated-ish sender vs one nearly idle: the idle node's attempts
  // are bounded by its arrivals.
  SimConfig config = poisson_config(0.5, 5);
  Simulator sim(config, {32, 32});
  const auto r = sim.run_for(50.0 * 1e6);
  EXPECT_LT(r.node[0].attempts, 80u);  // ~25 arrivals in 50 s, few retries
  EXPECT_LT(r.measured_tau[0], 0.01);
}

TEST(NonSaturatedTest, ThroughputScalesWithRateBelowSaturation) {
  double prev = 0.0;
  for (double rate : {2.0, 4.0, 8.0}) {
    Simulator sim(poisson_config(rate, 6), {64, 64});
    const double s = sim.run_for(40.0 * 1e6).throughput;
    EXPECT_GT(s, prev);
    prev = s;
  }
}

}  // namespace
}  // namespace smac::sim
