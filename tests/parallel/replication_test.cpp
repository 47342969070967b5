// Determinism regression tests for the parallel replication engine: the
// same base seed must give bit-identical results at jobs = 1 and jobs = 4
// for every replicated hot path (sim batch, multihop batch, tournament).
#include "parallel/replication.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"
#include "game/tournament.hpp"
#include "multihop/multihop_simulator.hpp"
#include "multihop/topology.hpp"
#include "sim/simulator.hpp"

namespace smac {
namespace {

TEST(StreamSeedTest, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(parallel::stream_seed(42, 7), parallel::stream_seed(42, 7));
  // Accessing streams in any order yields the same seeds.
  const auto late = parallel::stream_seed(42, 999);
  for (int i = 0; i < 10; ++i) (void)parallel::stream_seed(42, i);
  EXPECT_EQ(parallel::stream_seed(42, 999), late);
}

TEST(StreamSeedTest, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL, ~0ULL}) {
    for (std::uint64_t i = 0; i < 500; ++i) {
      seeds.insert(parallel::stream_seed(base, i));
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 500u);
}

TEST(StreamSeedTest, StreamRngMatchesSeededRng) {
  util::Rng direct(parallel::stream_seed(5, 3));
  util::Rng stream = parallel::stream_rng(5, 3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(stream(), direct());
}

TEST(StreamSeedTest, AdjacentStreamsAreIndependent) {
  util::Rng a = parallel::stream_rng(1, 0);
  util::Rng b = parallel::stream_rng(1, 1);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(ReplicationRunnerTest, SeedsMatchStreamDerivation) {
  parallel::StoppingRule rule;
  rule.max_reps = 8;
  std::vector<std::uint64_t> seeds(rule.max_reps, 0);
  const auto summary = parallel::run_sequential(
      {"index"}, rule, 1234, 2, [&](std::uint64_t seed, std::size_t index) {
        seeds[index] = seed;
        return std::vector<double>{static_cast<double>(index)};
      });
  EXPECT_EQ(summary.stopping.replications, 8u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], parallel::stream_seed(1234, i));
  }
}

TEST(ReplicationRunnerTest, ZeroReplicationsThrows) {
  bool called = false;
  EXPECT_THROW(parallel::run_sequential(
                   {"value"}, parallel::StoppingRule{}, 1, 1,
                   [&](std::uint64_t, std::size_t) {
                     called = true;
                     return std::vector<double>{1.0};
                   }),
               std::invalid_argument);
  EXPECT_FALSE(called);
}

// Rng-driven payload: jobs must not change a single bit of any
// replication's result, nor of the aggregate.
TEST(ReplicationRunnerTest, JobsInvarianceBitIdentical) {
  parallel::StoppingRule rule;
  rule.max_reps = 32;
  auto run = [&](std::size_t jobs, std::vector<double>& values) {
    values.assign(rule.max_reps, 0.0);
    return parallel::run_sequential(
        {"sum"}, rule, 77, jobs, [&](std::uint64_t seed, std::size_t index) {
          util::Rng rng(seed);
          double acc = 0.0;
          for (int i = 0; i < 1000; ++i) acc += rng.uniform01();
          values[index] = acc;
          return std::vector<double>{acc};
        });
  };
  std::vector<double> serial;
  std::vector<double> wide;
  const auto serial_summary = run(1, serial);
  const auto wide_summary = run(4, wide);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial[i], &wide[i], sizeof(double)), 0);
  }
  EXPECT_EQ(std::memcmp(&serial_summary.metrics[0].mean,
                        &wide_summary.metrics[0].mean, sizeof(double)),
            0);
}

TEST(ReplicationRunnerTest, SummarizedAggregatesMatchHandComputation) {
  parallel::StoppingRule rule;
  rule.max_reps = 4;
  const auto summary = parallel::run_sequential(
      {"value"}, rule, 1, 2, [](std::uint64_t /*seed*/, std::size_t index) {
        return std::vector<double>{static_cast<double>(index + 1)};
      });
  ASSERT_EQ(summary.metrics.size(), 1u);
  const auto& m = summary.metrics[0];
  EXPECT_EQ(m.name, "value");
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.mean, 2.5);
  // Sample stddev of {1,2,3,4} is sqrt(5/3).
  EXPECT_NEAR(m.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(m.ci95, 1.96 * std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 4.0);
}

// The replication count has one home, StoppingRule::max_reps, and one
// check, in run_sequential: every replicated entry point rejects zero.
TEST(ReplicatedEntryPointsTest, ZeroMaxRepsThrows) {
  parallel::StoppingRule rule;
  rule.max_reps = 0;

  const std::vector<int> sim_profile{32, 64, 64, 64};
  EXPECT_THROW(
      sim::run_replicated(sim::SimConfig{}, sim_profile, 1000, rule, 1),
      std::invalid_argument);

  std::vector<multihop::Vec2> pos;
  for (int i = 0; i < 4; ++i) pos.push_back({i * 200.0, 0.0});
  const multihop::Topology topo(pos, 250.0);
  EXPECT_THROW(multihop::run_replicated(multihop::MultihopConfig{}, topo,
                                        std::vector<int>(4, 32), 1000, rule,
                                        1),
               std::invalid_argument);

  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kBasic);
  const auto roster = game::standard_roster(game, 3, 32);
  const game::Tournament tournament(game, 3, 4, 1);
  EXPECT_THROW(
      tournament.play_mix_replicated(roster[0], roster[1], 1, rule),
      std::invalid_argument);
}

void expect_metrics_bit_identical(
    const std::vector<util::MetricSummary>& a,
    const std::vector<util::MetricSummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].name, b[m].name);
    EXPECT_EQ(a[m].count, b[m].count);
    EXPECT_EQ(std::memcmp(&a[m].mean, &b[m].mean, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].stddev, &b[m].stddev, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].ci95, &b[m].ci95, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].min, &b[m].min, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].max, &b[m].max, sizeof(double)), 0);
  }
}

TEST(ReplicatedSimTest, SimBatchJobsInvariance) {
  sim::SimConfig config;
  config.seed = 2024;
  const std::vector<int> profile{32, 64, 64, 64};
  const auto serial = sim::run_replicated(config, profile, 4000, 6, 1);
  const auto wide = sim::run_replicated(config, profile, 4000, 6, 4);
  EXPECT_EQ(serial.stopping.replications, 6u);
  EXPECT_EQ(wide.stopping.replications, 6u);
  expect_metrics_bit_identical(serial.metrics, wide.metrics);
}

// The streaming batch keeps only aggregates; the documented way back to
// one replication is re-running it from its stream seed. A 1-replication
// batch's mean must therefore equal the directly reconstructed run.
TEST(ReplicatedSimTest, SingleReplicationReconstructsFromStreamSeed) {
  sim::SimConfig config;
  config.seed = 2024;
  const std::vector<int> profile{32, 64, 64, 64};
  const auto batch = sim::run_replicated(config, profile, 4000, 1, 1);

  sim::SimConfig replica = config;
  replica.seed = parallel::stream_seed(config.seed, 0);
  sim::Simulator simulator(replica, profile);
  const sim::SimResult direct = simulator.run_slots(4000);
  ASSERT_FALSE(batch.metrics.empty());
  EXPECT_EQ(batch.metrics[0].name, "throughput");
  EXPECT_EQ(std::memcmp(&batch.metrics[0].mean, &direct.throughput,
                        sizeof(double)),
            0);
}

TEST(ReplicatedSimTest, DifferentBaseSeedsDiffer) {
  sim::SimConfig a;
  a.seed = 1;
  sim::SimConfig b;
  b.seed = 2;
  const std::vector<int> profile(4, 64);
  const auto batch_a = sim::run_replicated(a, profile, 4000, 3, 1);
  const auto batch_b = sim::run_replicated(b, profile, 4000, 3, 1);
  EXPECT_NE(batch_a.metrics[0].mean, batch_b.metrics[0].mean);
}

TEST(ReplicatedMultihopTest, MultihopBatchJobsInvariance) {
  std::vector<multihop::Vec2> pos;
  for (int i = 0; i < 6; ++i) pos.push_back({i * 200.0, 0.0});
  const multihop::Topology topo(pos, 250.0);
  multihop::MultihopConfig config;
  config.seed = 99;
  const std::vector<int> profile(6, 32);
  const auto serial = multihop::run_replicated(config, topo, profile, 1500,
                                               5, 1);
  const auto wide = multihop::run_replicated(config, topo, profile, 1500,
                                             5, 4);
  EXPECT_EQ(serial.stopping.replications, 5u);
  EXPECT_EQ(wide.stopping.replications, 5u);
  expect_metrics_bit_identical(serial.metrics, wide.metrics);
}

TEST(ParallelTournamentTest, ScoresAndMatrixJobsInvariant) {
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kBasic);
  const int n = 3;
  const int w = game::EquilibriumFinder(game, n).efficient_cw();
  const auto roster = game::standard_roster(game, n, w);
  const game::Tournament serial(game, n, 12, 1);
  const game::Tournament wide(game, n, 12, 3);

  const auto scores_serial = serial.round_robin_scores(roster);
  const auto scores_wide = wide.round_robin_scores(roster);
  ASSERT_EQ(scores_serial.size(), scores_wide.size());
  for (std::size_t i = 0; i < scores_serial.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scores_serial[i], &scores_wide[i],
                          sizeof(double)),
              0);
  }
  EXPECT_EQ(serial.invasion_matrix(roster), wide.invasion_matrix(roster));
}

}  // namespace
}  // namespace smac
