// Graceful degradation end to end: fault-aware repeated games and
// multihop TFT never throw, account every non-clean stage in their
// DegradationReport, and replicated fault experiments are bit-identical
// at any job count (the determinism contract of src/parallel).
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "game/repeated_game.hpp"
#include "game/stage_game.hpp"
#include "gtest/gtest.h"
#include "multihop/adaptive.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace smac;

const game::StageGame& test_game() {
  static const game::StageGame game(phy::Parameters::paper(),
                                    phy::AccessMode::kRtsCts);
  return game;
}

fault::FaultPlan stress_plan() {
  fault::FaultPlan plan;
  plan.scripted.push_back({3, 0, fault::FaultKind::kCrash});
  plan.scripted.push_back({8, 0, fault::FaultKind::kJoin});
  plan.churn.crash_rate = 0.05;
  plan.churn.recover_rate = 0.3;
  plan.channel.p_good_to_bad = 0.2;
  plan.channel.p_bad_to_good = 0.4;
  plan.channel.per_bad = 0.4;
  plan.observation.loss_probability = 0.1;
  plan.observation.noise_probability = 0.1;
  plan.observation.noise_magnitude = 3;
  return plan;
}

TEST(FaultRepeatedGame, NullInjectorMatchesFaultFreePlay) {
  // play(6) and play(6, nullptr) are one call; an injector whose plan
  // fires nothing must price every stage to the same bits (all players
  // online at the base PER).
  game::RepeatedGameEngine a(test_game(), game::make_tft_population(4, 32));
  game::RepeatedGameEngine b(test_game(), game::make_tft_population(4, 32));
  game::RepeatedGameEngine c(test_game(), game::make_tft_population(4, 32));
  fault::FaultInjector quiet(fault::FaultPlan{}, 4, 5);
  const auto plain = a.play(6);
  const auto with_null = b.play(6, nullptr);
  const auto with_quiet = c.play(6, &quiet);
  for (const auto* other : {&with_null, &with_quiet}) {
    ASSERT_EQ(plain.history.size(), other->history.size());
    for (std::size_t k = 0; k < plain.history.size(); ++k) {
      EXPECT_EQ(plain.history[k].cw, other->history[k].cw);
      EXPECT_EQ(plain.history[k].utility, other->history[k].utility);
    }
    EXPECT_EQ(plain.discounted_utility, other->discounted_utility);
    EXPECT_TRUE(other->degradation.clean());
  }
}

TEST(FaultRepeatedGame, RejectsMismatchedInjector) {
  game::RepeatedGameEngine engine(test_game(),
                                  game::make_tft_population(4, 32));
  fault::FaultInjector wrong_size(fault::FaultPlan{}, 3, 1);
  EXPECT_THROW(engine.play(4, &wrong_size), std::invalid_argument);
}

TEST(FaultRepeatedGame, CrashedPlayerEarnsZeroAndKeepsWindow) {
  fault::FaultPlan plan;
  plan.scripted.push_back({1, 2, fault::FaultKind::kCrash});
  plan.scripted.push_back({4, 2, fault::FaultKind::kJoin});
  fault::FaultInjector injector(plan, 4, 11);
  game::RepeatedGameEngine engine(test_game(),
                                  game::make_tft_population(4, 32));
  const auto result = engine.play(6, &injector);
  ASSERT_EQ(result.history.size(), 6u);
  for (int k = 1; k < 4; ++k) {
    const auto& record = result.history[static_cast<std::size_t>(k)];
    ASSERT_EQ(record.online.size(), 4u);
    EXPECT_EQ(record.online[2], 0) << "stage " << k;
    EXPECT_EQ(record.cw[2], 32) << "stage " << k;  // window frozen
    EXPECT_EQ(record.utility[2], 0.0) << "stage " << k;
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != 2) {
        EXPECT_GT(record.utility[i], 0.0);
      }
    }
  }
  EXPECT_EQ(result.degradation.crash_events, 1);
  EXPECT_EQ(result.degradation.join_events, 1);
  EXPECT_EQ(result.degradation.last_fault_stage, 4);
  EXPECT_EQ(result.degradation.stages, 6);
}

TEST(FaultRepeatedGame, StressScenarioNeverThrowsAndAccountsStages) {
  fault::FaultInjector injector(stress_plan(), 6, 2024);
  game::RepeatedGameEngine engine(
      test_game(), game::make_gtft_population(6, 19, 0.9, 3));
  game::RepeatedGameResult result;
  ASSERT_NO_THROW(result = engine.play(40, &injector));
  const auto& d = result.degradation;
  EXPECT_EQ(d.stages, 40);
  EXPECT_EQ(static_cast<int>(d.incidents.size()),
            d.degraded_stages + d.failed_stages);
  EXPECT_GT(d.lost_observations + d.noisy_observations, 0u);
  for (const auto& record : result.history) {
    for (double u : record.utility) EXPECT_TRUE(std::isfinite(u));
  }
}

TEST(FaultRepeatedGame, TrajectoryIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    fault::FaultInjector injector(stress_plan(), 5, seed);
    game::RepeatedGameEngine engine(test_game(),
                                    game::make_tft_population(5, 24));
    return engine.play(25, &injector);
  };
  const auto a = run(77);
  const auto b = run(77);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t k = 0; k < a.history.size(); ++k) {
    EXPECT_EQ(a.history[k].cw, b.history[k].cw) << "stage " << k;
    EXPECT_EQ(a.history[k].online, b.history[k].online);
    EXPECT_EQ(a.history[k].utility, b.history[k].utility);
  }
  EXPECT_EQ(a.degradation.summary(), b.degradation.summary());
}

// The acceptance check of the fault subsystem: an entire replicated fault
// experiment — injector faults included — must be bit-identical when the
// batch runs on 1 worker and on 4.
TEST(FaultRepeatedGame, ReplicatedFaultRunsAreJobCountInvariant) {
  auto experiment = [](std::uint64_t seed, std::size_t) {
    fault::FaultInjector injector(stress_plan(), 5, seed);
    game::RepeatedGameEngine engine(test_game(),
                                    game::make_tft_population(5, 24));
    const auto result = engine.play(15, &injector);
    std::vector<double> row = result.total_utility;
    row.push_back(static_cast<double>(result.stable_from));
    row.push_back(static_cast<double>(result.degradation.crash_events));
    row.push_back(static_cast<double>(result.degradation.lost_observations));
    return row;
  };
  auto replicate = [&](std::size_t jobs) {
    std::vector<std::vector<double>> rows(8);
    parallel::ThreadPool(jobs).for_each_index(rows.size(), [&](std::size_t r) {
      rows[r] = experiment(parallel::stream_seed(0xfa57, r), r);
    });
    return rows;
  };
  const auto serial = replicate(1);
  const auto parallel_run = replicate(4);
  ASSERT_EQ(serial.size(), parallel_run.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r].size(), parallel_run[r].size());
    for (std::size_t m = 0; m < serial[r].size(); ++m) {
      EXPECT_EQ(serial[r][m], parallel_run[r][m])
          << "replication " << r << " metric " << m;
    }
  }
}

// One failure path: a batch always drains, then its lowest failing index
// is rethrown — the same error at any job count.
TEST(FailurePolicy, FailFastPropagatesFirstError) {
  parallel::StoppingRule rule;
  rule.max_reps = 8;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::string message;
    try {
      (void)parallel::run_sequential(
          {"value"}, rule, 3, jobs,
          [](std::uint64_t, std::size_t i) -> std::vector<double> {
            if (i == 2 || i == 5) {
              throw std::runtime_error("boom at " + std::to_string(i));
            }
            return {static_cast<double>(i)};
          });
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "boom at 2") << "jobs " << jobs;
  }
}

TEST(DegradationReport, MergeAndSummary) {
  fault::DegradationReport a;
  a.stages = 10;
  a.degraded_stages = 1;
  a.crash_events = 2;
  a.last_fault_stage = 4;
  a.incidents.push_back({4, analytical::SolveStatus::kDegraded, 1e-8, 1,
                         false});
  fault::DegradationReport b;
  b.stages = 5;
  b.failed_stages = 1;
  b.reused_stages = 1;
  b.lost_observations = 7;
  b.last_fault_stage = 2;

  EXPECT_FALSE(a.clean());
  a.merge(b);
  EXPECT_EQ(a.stages, 15);
  EXPECT_EQ(a.degraded_stages, 1);
  EXPECT_EQ(a.failed_stages, 1);
  EXPECT_EQ(a.reused_stages, 1);
  EXPECT_EQ(a.crash_events, 2);
  EXPECT_EQ(a.lost_observations, 7u);
  EXPECT_EQ(a.last_fault_stage, 4);  // max wins
  const std::string line = a.summary();
  EXPECT_NE(line.find("15 stages"), std::string::npos);
  EXPECT_NE(line.find("13 converged"), std::string::npos);

  fault::DegradationReport clean;
  clean.stages = 3;
  EXPECT_TRUE(clean.clean());
}

TEST(TryStageUtilities, ExtremeProfilesStayFinite) {
  const auto& game = test_game();
  const auto greedy =
      game.try_stage_utilities(std::vector<int>(6, 1));
  EXPECT_TRUE(analytical::usable(greedy.diagnostics.status));
  for (double u : greedy.utilities) EXPECT_TRUE(std::isfinite(u));
  const auto empty = game.try_stage_utilities({});
  EXPECT_EQ(empty.diagnostics.status, analytical::SolveStatus::kFailed);
  EXPECT_TRUE(empty.utilities.empty());
  const auto high_per =
      game.try_stage_utilities({16, 32, 64}, 0.99);
  EXPECT_TRUE(analytical::usable(high_per.diagnostics.status));
  for (double u : high_per.utilities) EXPECT_TRUE(std::isfinite(u));
}

TEST(FaultMultihop, CrashedNodeIsSkippedByNeighbors) {
  // 4-chain seeded {8, 40, 40, 40}: fault-free TFT ripples 8 down the
  // chain. Crash node 0 before stage 0 and its low window must never
  // propagate; the rest settle on 40.
  std::vector<multihop::Vec2> pos;
  for (int i = 0; i < 4; ++i) pos.push_back({i * 200.0, 0.0});
  multihop::MultihopConfig config;
  config.seed = 5;
  multihop::MultihopSimulator sim(config, multihop::Topology(pos, 250.0),
                                  {8, 40, 40, 40});
  fault::FaultPlan plan;
  plan.scripted.push_back({0, 0, fault::FaultKind::kCrash});
  fault::FaultInjector injector(plan, 4, 21);
  multihop::MultihopTftConfig tft;
  tft.slots_per_stage = 15000;
  tft.stages = 4;
  const auto result = multihop::play_multihop_tft(sim, nullptr, tft,
                                                  &injector);
  for (const auto& stage : result.stages) {
    ASSERT_EQ(stage.online.size(), 4u);
    EXPECT_EQ(stage.online[0], 0);
    EXPECT_EQ(stage.cw[0], 8);  // frozen, not matched by anyone
    for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(stage.cw[i], 40);
  }
  EXPECT_EQ(result.degradation.crash_events, 1);
}

TEST(FaultSimulator, GilbertElliottRaisesLossesDeterministically) {
  auto run = [](double per_bad, std::uint64_t seed) {
    sim::SimConfig config;
    config.mode = phy::AccessMode::kRtsCts;
    config.seed = seed;
    config.faults.channel.p_good_to_bad = per_bad > 0.0 ? 0.05 : 0.0;
    config.faults.channel.p_bad_to_good = 0.2;
    config.faults.channel.per_bad = per_bad;
    sim::Simulator simulator(config, std::vector<int>(5, 32));
    return simulator.run_slots(40000);
  };
  const auto clean = run(0.0, 9);
  const auto bursty = run(0.6, 9);
  EXPECT_EQ(clean.bad_state_slots, 0u);
  EXPECT_GT(bursty.bad_state_slots, 0u);
  EXPECT_GT(bursty.error_slots, clean.error_slots);
  EXPECT_LT(bursty.throughput, clean.throughput);
  const auto again = run(0.6, 9);
  EXPECT_EQ(bursty.bad_state_slots, again.bad_state_slots);
  EXPECT_EQ(bursty.error_slots, again.error_slots);
  EXPECT_DOUBLE_EQ(bursty.throughput, again.throughput);
}

TEST(FaultSimulator, ScriptedCrashSilencesNode) {
  sim::SimConfig config;
  config.seed = 4;
  config.faults.events.push_back({0, 2, fault::FaultKind::kCrash});
  sim::Simulator simulator(config, std::vector<int>(4, 32));
  const auto result = simulator.run_slots(30000);
  EXPECT_FALSE(simulator.node_online(2));
  EXPECT_EQ(result.node[2].successes, 0u);
  EXPECT_GT(result.node[0].successes, 0u);
}

}  // namespace
