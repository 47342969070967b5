#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"

namespace smac::sim {
namespace {

SimConfig make_config(phy::AccessMode mode = phy::AccessMode::kBasic,
                      std::uint64_t seed = 1) {
  SimConfig config;
  config.mode = mode;
  config.seed = seed;
  return config;
}

TEST(SimulatorTest, ValidatesConstruction) {
  EXPECT_THROW(Simulator(make_config(), {}), std::invalid_argument);
}

TEST(SimulatorTest, RejectsBadRuns) {
  Simulator sim(make_config(), {32, 32});
  EXPECT_THROW(sim.run_for(0.0), std::invalid_argument);
  EXPECT_THROW(sim.run_slots(0), std::invalid_argument);
}

TEST(SimulatorTest, SlotAccountingIsConsistent) {
  Simulator sim(make_config(), {32, 32, 32});
  const SimResult r = sim.run_slots(20000);
  EXPECT_EQ(r.slots, r.idle_slots + r.success_slots + r.collision_slots);
  const phy::SlotTimes t =
      phy::Parameters::paper().slot_times(phy::AccessMode::kBasic);
  const double reconstructed = r.idle_slots * t.sigma_us +
                               r.success_slots * t.ts_us +
                               r.collision_slots * t.tc_us;
  EXPECT_NEAR(r.elapsed_us, reconstructed, 1e-6);
}

TEST(SimulatorTest, PerNodeCountersSumToChannelEvents) {
  Simulator sim(make_config(), {16, 16, 16, 16});
  const SimResult r = sim.run_slots(20000);
  std::uint64_t successes = 0;
  for (const auto& node : r.node) successes += node.successes;
  EXPECT_EQ(successes, r.success_slots);
}

TEST(SimulatorTest, SingleNodeNeverCollides) {
  Simulator sim(make_config(), {16});
  const SimResult r = sim.run_slots(5000);
  EXPECT_EQ(r.collision_slots, 0u);
  EXPECT_EQ(r.node[0].collisions, 0u);
  EXPECT_NEAR(r.measured_p[0], 0.0, 1e-12);
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  Simulator a(make_config(phy::AccessMode::kBasic, 99), {32, 64});
  Simulator b(make_config(phy::AccessMode::kBasic, 99), {32, 64});
  const SimResult ra = a.run_slots(5000);
  const SimResult rb = b.run_slots(5000);
  EXPECT_EQ(ra.success_slots, rb.success_slots);
  EXPECT_EQ(ra.node[0].attempts, rb.node[0].attempts);
  EXPECT_DOUBLE_EQ(ra.elapsed_us, rb.elapsed_us);
}

TEST(SimulatorTest, MeasuredTauMatchesModelHomogeneous) {
  // Cross-validation: empirical τ and p within a few percent of the
  // extended Bianchi fixed point.
  const int n = 10;
  const int w = 64;
  Simulator sim(make_config(phy::AccessMode::kBasic, 5),
                std::vector<int>(n, w));
  const SimResult r = sim.run_slots(400000);
  const auto model = analytical::solve_network_homogeneous(w, n, 6);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.measured_tau[i], model.tau[0], 0.05 * model.tau[0]);
    EXPECT_NEAR(r.measured_p[i], model.p[0], 0.05);
  }
}

TEST(SimulatorTest, MeasuredTauMatchesModelHeterogeneous) {
  const std::vector<int> profile{16, 64, 256};
  Simulator sim(make_config(phy::AccessMode::kBasic, 6), profile);
  const SimResult r = sim.run_slots(400000);
  const auto model = analytical::solve_network(profile, 6);
  for (std::size_t i = 0; i < profile.size(); ++i) {
    EXPECT_NEAR(r.measured_tau[i], model.tau[i], 0.06 * model.tau[i] + 1e-4);
  }
  // Lemma 1 empirically: smaller window transmits more, earns more.
  EXPECT_GT(r.measured_tau[0], r.measured_tau[1]);
  EXPECT_GT(r.measured_tau[1], r.measured_tau[2]);
  EXPECT_GT(r.payoff_rate[0], r.payoff_rate[2]);
}

TEST(SimulatorTest, ThroughputMatchesModel) {
  const int n = 10;
  const int w = 128;
  Simulator sim(make_config(phy::AccessMode::kBasic, 7),
                std::vector<int>(n, w));
  const SimResult r = sim.run_slots(300000);
  const auto metrics = analytical::homogeneous_channel_metrics(
      w, n, phy::Parameters::paper(), phy::AccessMode::kBasic);
  EXPECT_NEAR(r.throughput, metrics.throughput, 0.03);
}

TEST(SimulatorTest, PayoffRateMatchesModelUtility) {
  const int n = 5;
  const int w = 76;
  Simulator sim(make_config(phy::AccessMode::kBasic, 8),
                std::vector<int>(n, w));
  const SimResult r = sim.run_slots(400000);
  const double model_u = analytical::homogeneous_utility_rate(
      w, n, phy::Parameters::paper(), phy::AccessMode::kBasic);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.payoff_rate[i], model_u, 0.08 * model_u);
  }
}

TEST(SimulatorTest, RtsCtsCollisionsAreCheap) {
  const auto profile = std::vector<int>(20, 16);
  Simulator basic(make_config(phy::AccessMode::kBasic, 9), profile);
  Simulator rts(make_config(phy::AccessMode::kRtsCts, 9), profile);
  const SimResult rb = basic.run_slots(50000);
  const SimResult rr = rts.run_slots(50000);
  // Same seed → same slot outcomes, but elapsed channel time differs
  // because collisions cost T_c' << T_c.
  EXPECT_GT(rb.collision_slots, 0u);
  EXPECT_LT(rr.elapsed_us, rb.elapsed_us);
  EXPECT_GT(rr.throughput, rb.throughput);
}

TEST(SimulatorTest, RunForReachesRequestedDuration) {
  Simulator sim(make_config(), {32, 32});
  const double want_us = 1e6;
  const SimResult r = sim.run_for(want_us);
  EXPECT_GE(r.elapsed_us, want_us);
  // Overshoot bounded by one busy slot.
  EXPECT_LT(r.elapsed_us, want_us + 10000.0);
}

TEST(SimulatorTest, SetCwTakesEffect) {
  Simulator sim(make_config(phy::AccessMode::kBasic, 10), {1024, 1024});
  const SimResult before = sim.run_slots(50000);
  sim.set_all_cw(8);
  const SimResult after = sim.run_slots(50000);
  EXPECT_GT(after.measured_tau[0], 5.0 * before.measured_tau[0]);
  EXPECT_EQ(sim.cw(0), 8);
}

TEST(SimulatorTest, SetProfileValidatesSize) {
  Simulator sim(make_config(), {32, 32});
  EXPECT_THROW(sim.set_profile({16}), std::invalid_argument);
  sim.set_profile({16, 64});
  EXPECT_EQ(sim.cw(0), 16);
  EXPECT_EQ(sim.cw(1), 64);
}

TEST(SimulatorTest, AggressiveNodeDominatesThroughput) {
  Simulator sim(make_config(phy::AccessMode::kBasic, 11), {8, 256});
  const SimResult r = sim.run_slots(100000);
  EXPECT_GT(r.node[0].successes, 3 * r.node[1].successes);
}

// Window totals that one batched window and a run of one-slot windows
// can both produce: slot classes and per-node counters summed, elapsed
// time summed in window order.
struct WindowTotals {
  double elapsed_us = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t idle = 0;
  std::uint64_t success = 0;
  std::uint64_t collision = 0;
  std::uint64_t error = 0;
  std::uint64_t capture = 0;
  std::uint64_t bad_state = 0;
  std::vector<NodeCounters> node;

  void add(const SimResult& r) {
    elapsed_us += r.elapsed_us;
    slots += r.slots;
    idle += r.idle_slots;
    success += r.success_slots;
    collision += r.collision_slots;
    error += r.error_slots;
    capture += r.capture_slots;
    bad_state += r.bad_state_slots;
    node.resize(r.node.size());
    for (std::size_t i = 0; i < r.node.size(); ++i) {
      node[i].attempts += r.node[i].attempts;
      node[i].successes += r.node[i].successes;
      node[i].collisions += r.node[i].collisions;
    }
  }
};

void expect_same_counters(const std::vector<NodeCounters>& a,
                          const std::vector<NodeCounters>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "node " << i;
    EXPECT_EQ(a[i].successes, b[i].successes) << "node " << i;
    EXPECT_EQ(a[i].collisions, b[i].collisions) << "node " << i;
  }
}

void expect_same_totals(const WindowTotals& a, const WindowTotals& b) {
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.collision, b.collision);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.capture, b.capture);
  EXPECT_EQ(a.bad_state, b.bad_state);
  expect_same_counters(a.node, b.node);
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  EXPECT_EQ(a.success_slots, b.success_slots);
  EXPECT_EQ(a.collision_slots, b.collision_slots);
  EXPECT_EQ(a.error_slots, b.error_slots);
  EXPECT_EQ(a.capture_slots, b.capture_slots);
  EXPECT_EQ(a.bad_state_slots, b.bad_state_slots);
  expect_same_counters(a.node, b.node);
  EXPECT_EQ(a.mean_backlog, b.mean_backlog);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.payoff_rate, b.payoff_rate);
  EXPECT_EQ(a.measured_tau, b.measured_tau);
  EXPECT_EQ(a.measured_p, b.measured_p);
}

struct BatchingCase {
  const char* name;
  SimConfig config;
  std::vector<int> profile;
  bool toggle_node = false;  ///< crash node 1 for the second window
};

std::vector<BatchingCase> batching_cases() {
  const std::vector<int> wide{64, 128, 256, 512};
  std::vector<BatchingCase> cases;
  cases.push_back({"beb", make_config(phy::AccessMode::kBasic, 21), wide});

  SimConfig mild = make_config(phy::AccessMode::kBasic, 22);
  mild.backoff_policy = BackoffPolicy::kMild;
  cases.push_back({"mild", mild, {16, 32, 64, 128, 256}});

  SimConfig constant = make_config(phy::AccessMode::kRtsCts, 23);
  constant.backoff_policy = BackoffPolicy::kConstant;
  cases.push_back({"constant", constant, {48, 96, 192}});

  // Crash and join events in every window, two of them on adjacent
  // slots; most slots of the wide profile are idle, so they fall inside
  // idle runs.
  SimConfig scripted = make_config(phy::AccessMode::kBasic, 24);
  for (const fault::SlotEvent& e : std::vector<fault::SlotEvent>{
           {150, 0, fault::FaultKind::kCrash},
           {2900, 0, fault::FaultKind::kJoin},
           {7777, 3, fault::FaultKind::kCrash},
           {7778, 3, fault::FaultKind::kJoin},
           {12001, 2, fault::FaultKind::kCrash},
           {21003, 1, fault::FaultKind::kCrash},
           {24011, 2, fault::FaultKind::kJoin},
           {26017, 1, fault::FaultKind::kJoin},
           {26500, 0, fault::FaultKind::kCrash}}) {
    scripted.faults.events.push_back(e);
  }
  cases.push_back({"scripted", scripted, wide});

  SimConfig chain = make_config(phy::AccessMode::kBasic, 25);
  chain.faults.channel.p_good_to_bad = 0.05;
  chain.faults.channel.p_bad_to_good = 0.3;
  chain.faults.channel.per_bad = 0.5;
  cases.push_back({"gilbert-elliott", chain, wide});

  cases.push_back(
      {"set_node_online", make_config(phy::AccessMode::kBasic, 26), wide,
       true});

  SimConfig capture = make_config(phy::AccessMode::kBasic, 27);
  capture.capture_probability = 0.4;
  capture.params.packet_error_rate = 0.1;
  cases.push_back({"capture+per", capture, {8, 16, 16, 32, 64}});

  SimConfig poisson = make_config(phy::AccessMode::kBasic, 28);
  poisson.arrival_rate_pps = 40.0;
  cases.push_back({"unsaturated", poisson, {16, 32, 64}, true});
  return cases;
}

TEST(SimulatorTest, BatchedWindowsMatchSlotBySlotStepping) {
  // A one-slot window can never jump an idle run, so a simulator driven
  // one slot at a time is the per-slot reference for batched windows.
  constexpr std::uint64_t kSlots = 20000;
  constexpr double kDurationUs = 1.5e6;
  for (const BatchingCase& c : batching_cases()) {
    SCOPED_TRACE(c.name);
    Simulator batched(c.config, c.profile);
    Simulator stepped(c.config, c.profile);

    WindowTotals got;
    WindowTotals want;
    got.add(batched.run_slots(kSlots));
    for (std::uint64_t s = 0; s < kSlots; ++s) want.add(stepped.run_slots(1));
    expect_same_totals(got, want);

    if (c.toggle_node) {
      batched.set_node_online(1, false);
      stepped.set_node_online(1, false);
    }
    got = {};
    want = {};
    got.add(batched.run_for(kDurationUs));
    while (want.elapsed_us < kDurationUs) want.add(stepped.run_slots(1));
    expect_same_totals(got, want);
    EXPECT_EQ(batched.total_slots(), stepped.total_slots());

    if (c.toggle_node) {
      batched.set_node_online(1, true);
      stepped.set_node_online(1, true);
    }
    expect_same_result(batched.run_slots(5000), stepped.run_slots(5000));
  }
}

}  // namespace
}  // namespace smac::sim
