#include "multihop/multihop_simulator.hpp"

#include <gtest/gtest.h>

#include "analytical/fixed_point_solver.hpp"

namespace smac::multihop {
namespace {

MultihopConfig make_config(std::uint64_t seed = 11) {
  MultihopConfig config;
  config.seed = seed;
  return config;
}

Topology clique(int n) {
  std::vector<Vec2> pos;
  for (int i = 0; i < n; ++i) {
    pos.push_back({static_cast<double>(i), 0.0});  // all within 250 m
  }
  return Topology(pos, 250.0);
}

Topology hidden_chain() {
  // A(0) – B(200) – C(400): A and C mutually hidden, both reach B.
  return Topology({{0, 0}, {200, 0}, {400, 0}}, 250.0);
}

TEST(MultihopSimTest, ValidatesConstruction) {
  EXPECT_THROW(MultihopSimulator(make_config(), clique(3), {16, 16}),
               std::invalid_argument);
}

TEST(MultihopSimTest, RejectsZeroSlots) {
  MultihopSimulator sim(make_config(), clique(3), {16, 16, 16});
  EXPECT_THROW(sim.run_slots(0), std::invalid_argument);
}

TEST(MultihopSimTest, CliqueHasNoHiddenLosses) {
  // In a complete graph every interferer is sender-visible, so the hidden
  // classification never fires and p_hn = 1.
  MultihopSimulator sim(make_config(1), clique(5), std::vector<int>(5, 16));
  const MultihopResult r = sim.run_slots(50000);
  for (const auto& node : r.node) {
    EXPECT_EQ(node.hidden_losses, 0u);
  }
  EXPECT_DOUBLE_EQ(r.aggregate_p_hn, 1.0);
}

TEST(MultihopSimTest, CliqueTauMatchesSingleHopModel) {
  const int n = 5;
  const int w = 22;
  MultihopSimulator sim(make_config(2), clique(n), std::vector<int>(n, w));
  const MultihopResult r = sim.run_slots(300000);
  const auto model =
      analytical::try_solve_network(std::vector<int>(n, w), 6).state;
  for (const auto& node : r.node) {
    EXPECT_NEAR(node.measured_tau, model.tau[0], 0.06 * model.tau[0]);
    EXPECT_NEAR(node.measured_p, model.p[0], 0.05);
  }
}

TEST(MultihopSimTest, HiddenChainProducesHiddenLosses) {
  MultihopSimulator sim(make_config(3), hidden_chain(),
                        std::vector<int>(3, 8));
  const MultihopResult r = sim.run_slots(200000);
  // Ends A and C cannot sense each other: hidden losses must appear.
  EXPECT_GT(r.node[0].hidden_losses + r.node[2].hidden_losses, 0u);
  EXPECT_LT(r.aggregate_p_hn, 1.0);
}

TEST(MultihopSimTest, IsolatedNodeIsHarmless) {
  const Topology t({{0, 0}, {100, 0}, {5000, 5000}}, 250.0);
  MultihopSimulator sim(make_config(4), t, {16, 16, 16});
  const MultihopResult r = sim.run_slots(20000);
  // The isolated node never counts attempts (nothing to send to)…
  EXPECT_EQ(r.node[2].attempts, 0u);
  // …and the connected pair behaves like a 2-clique.
  EXPECT_GT(r.node[0].successes, 0u);
  EXPECT_GT(r.node[1].successes, 0u);
}

TEST(MultihopSimTest, SpatialReuseBeatsSharedChannel) {
  // Two far-apart pairs can both deliver at full rate; a 4-clique shares
  // one channel. Per-node success counts must reflect the reuse.
  const Topology two_pairs({{0, 0}, {100, 0}, {5000, 0}, {5100, 0}}, 250.0);
  MultihopSimulator reuse(make_config(5), two_pairs, std::vector<int>(4, 16));
  MultihopSimulator shared(make_config(5), clique(4), std::vector<int>(4, 16));
  const MultihopResult rr = reuse.run_slots(50000);
  const MultihopResult rs = shared.run_slots(50000);
  std::uint64_t succ_reuse = 0;
  std::uint64_t succ_shared = 0;
  for (int i = 0; i < 4; ++i) {
    succ_reuse += rr.node[i].successes;
    succ_shared += rs.node[i].successes;
  }
  // Two independent collision domains outperform one shared domain; the
  // advantage is bounded by the idle-slot overhead each pair still pays
  // (measured ratio ≈ 1.48 at W = 16).
  EXPECT_GT(succ_reuse, succ_shared * 4 / 3);
}

TEST(MultihopSimTest, LocalTimeDiffersAcrossSpace) {
  // A node far from all traffic sees mostly idle σ-slots; a hub sees busy
  // periods. Local clocks must diverge.
  const Topology t({{0, 0}, {100, 0}, {5000, 5000}}, 250.0);
  MultihopSimulator sim(make_config(6), t, {8, 8, 1024});
  const MultihopResult r = sim.run_slots(50000);
  EXPECT_LT(r.node[2].local_time_us, r.node[0].local_time_us);
}

TEST(MultihopSimTest, DeterministicForSeed) {
  MultihopSimulator a(make_config(7), hidden_chain(), {16, 16, 16});
  MultihopSimulator b(make_config(7), hidden_chain(), {16, 16, 16});
  const MultihopResult ra = a.run_slots(20000);
  const MultihopResult rb = b.run_slots(20000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ra.node[i].successes, rb.node[i].successes);
    EXPECT_EQ(ra.node[i].hidden_losses, rb.node[i].hidden_losses);
  }
}

TEST(MultihopSimTest, SetCwReshapesContention) {
  MultihopSimulator sim(make_config(8), clique(4), std::vector<int>(4, 256));
  const MultihopResult before = sim.run_slots(50000);
  sim.set_all_cw(4);
  const MultihopResult after = sim.run_slots(50000);
  EXPECT_GT(after.node[0].measured_tau, 5.0 * before.node[0].measured_tau);
  EXPECT_GT(after.node[0].measured_p, before.node[0].measured_p);
}

TEST(MultihopSimTest, UpdateTopologyPreservesNodeCount) {
  MultihopSimulator sim(make_config(9), clique(3), {16, 16, 16});
  sim.update_topology(hidden_chain());
  EXPECT_EQ(sim.topology().degree(1), 2u);
  EXPECT_THROW(sim.update_topology(clique(4)), std::invalid_argument);
}

TEST(MultihopSimTest, PHnRoughlyInsensitiveToCw) {
  // The paper's key §VI.A approximation: p_hn is nearly independent of CW
  // when windows are not too small. Compare p_hn at W = 16 vs W = 64 on a
  // hidden-node-rich random topology.
  std::vector<Vec2> pos;
  util::Rng rng(123);
  for (int i = 0; i < 40; ++i) {
    pos.push_back({rng.uniform_real(0, 1000), rng.uniform_real(0, 1000)});
  }
  const Topology t(pos, 250.0);
  MultihopSimulator sim(make_config(10), t, std::vector<int>(40, 16));
  const double phn16 = sim.run_slots(150000).aggregate_p_hn;
  sim.set_all_cw(64);
  const double phn64 = sim.run_slots(150000).aggregate_p_hn;
  EXPECT_NEAR(phn16, phn64, 0.12);
}

}  // namespace
}  // namespace smac::multihop
