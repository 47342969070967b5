// Sequential-stopping and streaming-reduction contract tests.
//
// The claims under test (src/parallel/replication.hpp):
//   * run_sequential's stop point is a pure function of the index-ordered
//     aggregate — identical at any jobs count;
//   * a stopped run's first k replications are bit-identical to a fixed-N
//     run of the same base seed (prefix property);
//   * streaming reduction buffers at most one batch of rows while
//     producing aggregates bit-identical to buffering every row and
//     reducing them afterwards (summarize_rows below);
//   * stop reasons, min_reps, batch boundaries, fail-fast failures, and
//     rule validation behave as documented.
#include "parallel/replication.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace smac::parallel {
namespace {

// One noisy column (a uniform draw from the replication's own stream, so
// the value is a pure function of the seed) and one constant column.
std::vector<double> noisy_row(std::uint64_t seed, std::size_t /*index*/) {
  util::Rng rng(seed);
  return {rng.uniform01(), 7.25};
}

const std::vector<std::string> kNames{"noisy", "constant"};

// The buffered reference reduction: every row held, then folded column by
// column in index order.
std::vector<util::MetricSummary> summarize_rows(
    const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& rows) {
  std::vector<util::RunningStats> acc(names.size());
  for (const auto& row : rows) {
    for (std::size_t m = 0; m < row.size(); ++m) acc[m].add(row[m]);
  }
  return util::summaries_from_stats(names, acc);
}

// A rule with no CI target: a fixed-N streaming run of n replications.
StoppingRule fixed_n(std::size_t n) {
  StoppingRule rule;
  rule.max_reps = n;
  return rule;
}

void expect_bit_identical(const std::vector<util::MetricSummary>& a,
                          const std::vector<util::MetricSummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].name, b[m].name);
    EXPECT_EQ(a[m].count, b[m].count);
    // memcmp, not ==: the claim is bit-identity, not approximation.
    EXPECT_EQ(std::memcmp(&a[m].mean, &b[m].mean, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].stddev, &b[m].stddev, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].ci95, &b[m].ci95, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].min, &b[m].min, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a[m].max, &b[m].max, sizeof(double)), 0);
  }
}

TEST(SequentialStoppingTest, StreamingTenThousandMatchesBufferedBitwise) {
  // A 10^4-replication fixed-N run stays O(batch_size) in memory while
  // matching the buffered reduction.
  const std::size_t n = 10000;
  const ReplicationSummary streamed =
      run_sequential(kNames, fixed_n(n), 42, 1, noisy_row);

  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back(noisy_row(stream_seed(42, i), i));
  }
  const auto buffered = summarize_rows(kNames, rows);

  expect_bit_identical(streamed.metrics, buffered);
  EXPECT_EQ(streamed.stopping.replications, n);
  EXPECT_EQ(streamed.stopping.reason, StopReason::kMaxReps);
  EXPECT_FALSE(streamed.stopping.target_met());
  // O(batch) memory, self-reported: never more than one batch buffered.
  EXPECT_LE(streamed.peak_buffered_rows, kDefaultStoppingBatch);
  EXPECT_GT(streamed.peak_buffered_rows, 0u);
}

TEST(SequentialStoppingTest, StopPointIsJobsInvariant) {
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_half_width_target = 0.05;
  rule.batch_size = 16;
  rule.max_reps = 2000;

  const ReplicationSummary s1 =
      run_sequential(kNames, rule, 7, 1, noisy_row);
  const ReplicationSummary s4 =
      run_sequential(kNames, rule, 7, 4, noisy_row);

  EXPECT_EQ(s1.stopping.replications, s4.stopping.replications);
  EXPECT_EQ(s1.stopping.reason, s4.stopping.reason);
  EXPECT_EQ(std::memcmp(&s1.stopping.achieved_half_width,
                        &s4.stopping.achieved_half_width, sizeof(double)),
            0);
  expect_bit_identical(s1.metrics, s4.metrics);
}

TEST(SequentialStoppingTest, StoppedRunPrefixMatchesFixedN) {
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_half_width_target = 0.05;
  rule.batch_size = 16;
  rule.max_reps = 2000;

  const ReplicationSummary stopped =
      run_sequential(kNames, rule, 7, 1, noisy_row);
  ASSERT_EQ(stopped.stopping.reason, StopReason::kCiTarget);
  EXPECT_TRUE(stopped.stopping.target_met());
  const std::size_t k = stopped.stopping.replications;
  ASSERT_GT(k, 0u);
  ASSERT_LT(k, rule.max_reps);
  // Batches are fixed runs of consecutive indices, so the stop point
  // lands on a batch boundary.
  EXPECT_EQ(k % rule.batch_size, 0u);

  // A fixed-N run over exactly k replications sees the same seeds in the
  // same order — its aggregates must be bit-identical to the stopped run.
  const ReplicationSummary fixed =
      run_sequential(kNames, fixed_n(k), 7, 1, noisy_row);
  expect_bit_identical(stopped.metrics, fixed.metrics);
  EXPECT_LE(stopped.stopping.achieved_half_width,
            rule.ci_half_width_target);
}

TEST(SequentialStoppingTest, ZeroVarianceMetricStopsAtFirstBoundary) {
  StoppingRule rule;
  rule.metric = "constant";  // stddev 0 ⇒ half-width 0 after two samples
  rule.ci_half_width_target = 1e-12;
  rule.batch_size = 8;
  rule.max_reps = 100;

  const ReplicationSummary s =
      run_sequential(kNames, rule, 3, 1, noisy_row);
  EXPECT_EQ(s.stopping.replications, 8u);
  EXPECT_EQ(s.stopping.reason, StopReason::kCiTarget);
  EXPECT_EQ(s.stopping.achieved_half_width, 0.0);
  EXPECT_EQ(s.metrics[1].mean, 7.25);
}

TEST(SequentialStoppingTest, MinRepsDelaysStopToCoveringBoundary) {
  StoppingRule rule;
  rule.metric = "constant";
  rule.ci_half_width_target = 1e-12;
  rule.batch_size = 8;
  rule.min_reps = 20;  // first boundary ≥ 20 is 24
  rule.max_reps = 100;

  const ReplicationSummary s =
      run_sequential(kNames, rule, 3, 1, noisy_row);
  EXPECT_EQ(s.stopping.replications, 24u);
  EXPECT_EQ(s.stopping.reason, StopReason::kCiTarget);
}

TEST(SequentialStoppingTest, UnreachableTargetRunsToMaxReps) {
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_half_width_target = 1e-9;
  rule.batch_size = 16;
  rule.max_reps = 64;

  const ReplicationSummary s =
      run_sequential(kNames, rule, 11, 1, noisy_row);
  EXPECT_EQ(s.stopping.replications, 64u);
  EXPECT_EQ(s.stopping.reason, StopReason::kMaxReps);
  EXPECT_FALSE(s.stopping.target_met());
  EXPECT_GT(s.stopping.achieved_half_width, rule.ci_half_width_target);
}

TEST(SequentialStoppingTest, WiderConfidenceNeedsMoreReplications) {
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_half_width_target = 0.06;
  rule.batch_size = 8;
  rule.max_reps = 4000;

  rule.confidence = 0.90;
  const std::size_t reps90 =
      run_sequential(kNames, rule, 5, 1, noisy_row).stopping.replications;
  rule.confidence = 0.99;
  const std::size_t reps99 =
      run_sequential(kNames, rule, 5, 1, noisy_row).stopping.replications;
  // A 99% interval is wider than a 90% one at the same sample count, so
  // reaching the same half-width target must take at least as many reps.
  EXPECT_GE(reps99, reps90);
  EXPECT_GT(reps99, 0u);
}

TEST(SequentialStoppingTest, RelativeTargetStopsEarly) {
  // 20% of |mean| on the noisy uniform column (mean ~0.5) is an easy
  // target — far fewer replications than the 2000-rep budget.
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_rel_target = 0.20;
  rule.batch_size = 16;
  rule.max_reps = 2000;

  const ReplicationSummary s =
      run_sequential(kNames, rule, 7, 1, noisy_row);
  EXPECT_EQ(s.stopping.reason, StopReason::kCiTarget);
  EXPECT_TRUE(s.stopping.target_met());
  EXPECT_LT(s.stopping.replications, rule.max_reps);
  EXPECT_EQ(s.stopping.target_rel_half_width, 0.20);
  EXPECT_NE(s.stopping.watched_mean, 0.0);
  EXPECT_LE(s.stopping.achieved_half_width,
            rule.ci_rel_target * std::abs(s.stopping.watched_mean));
  EXPECT_LE(s.stopping.achieved_rel_half_width(), rule.ci_rel_target);
  // Scale invariance is the point of the relative mode: the summary line
  // names the percentage, not an absolute width.
  EXPECT_NE(s.stopping.summary().find("% of |mean|"), std::string::npos);
}

TEST(SequentialStoppingTest, RelativeStopPointIsJobsInvariant) {
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_rel_target = 0.15;
  rule.batch_size = 16;
  rule.max_reps = 2000;

  const ReplicationSummary s1 =
      run_sequential(kNames, rule, 7, 1, noisy_row);
  const ReplicationSummary s4 =
      run_sequential(kNames, rule, 7, 4, noisy_row);
  EXPECT_EQ(s1.stopping.replications, s4.stopping.replications);
  EXPECT_EQ(s1.stopping.reason, s4.stopping.reason);
  expect_bit_identical(s1.metrics, s4.metrics);
}

TEST(SequentialStoppingTest, AbsoluteAndRelativeTargetsCombineAsOr) {
  // An unreachable absolute target alone runs to max_reps; adding an easy
  // relative target stops the run early — whichever is met first wins.
  StoppingRule rule;
  rule.metric = "noisy";
  rule.ci_half_width_target = 1e-9;  // unreachable within the budget
  rule.batch_size = 16;
  rule.max_reps = 256;

  const ReplicationSummary abs_only =
      run_sequential(kNames, rule, 11, 1, noisy_row);
  EXPECT_EQ(abs_only.stopping.reason, StopReason::kMaxReps);

  rule.ci_rel_target = 0.5;  // trivially met almost immediately
  const ReplicationSummary both =
      run_sequential(kNames, rule, 11, 1, noisy_row);
  EXPECT_EQ(both.stopping.reason, StopReason::kCiTarget);
  EXPECT_TRUE(both.stopping.target_met());
  EXPECT_LT(both.stopping.replications, abs_only.stopping.replications);
  // Both targets appear in the summary line.
  EXPECT_NE(both.stopping.summary().find("or"), std::string::npos);
}

TEST(SequentialStoppingTest, RelativeTargetUnreachableOnZeroMeanMetric) {
  // A mean straddling zero makes any relative target meaningless:
  // achieved_rel_half_width() diverges and the run exhausts its budget.
  StoppingRule rule;
  rule.metric = "centered";
  rule.ci_rel_target = 0.5;
  rule.batch_size = 8;
  rule.max_reps = 64;

  const ReplicationSummary s = run_sequential(
      {"centered"}, rule, 13, 1, [](std::uint64_t seed, std::size_t index) {
        // Deterministic alternating pair: mean exactly 0 at boundaries.
        (void)seed;
        return std::vector<double>{index % 2 == 0 ? 1.0 : -1.0};
      });
  EXPECT_EQ(s.stopping.reason, StopReason::kMaxReps);
  EXPECT_FALSE(s.stopping.target_met());
  // Streaming accumulation leaves the mean at rounding noise, not an
  // exact zero — the relative criterion still can't be satisfied.
  EXPECT_NEAR(s.stopping.watched_mean, 0.0, 1e-15);
}

TEST(SequentialStoppingTest, ValidatesRelativeTargetInputs) {
  // Every rule keeps a valid budget, so each throw is the named input's.
  StoppingRule rule = fixed_n(4);
  rule.ci_rel_target = -0.1;
  EXPECT_THROW(run_sequential(kNames, rule, 1, 1, noisy_row),
               std::invalid_argument);
  rule = fixed_n(4);
  rule.ci_rel_target = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_sequential(kNames, rule, 1, 1, noisy_row),
               std::invalid_argument);
  rule = fixed_n(4);
  rule.ci_rel_target = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_sequential(kNames, rule, 1, 1, noisy_row),
               std::invalid_argument);
}

TEST(SequentialStoppingTest, FailFastRethrowsFromBatch) {
  StoppingRule rule;
  rule.max_reps = 8;
  EXPECT_THROW(
      run_sequential(
          {"value"}, rule, 9, 1,
          [](std::uint64_t, std::size_t index) {
            if (index == 3) throw std::runtime_error("dead");
            return std::vector<double>{1.0};
          }),
      std::runtime_error);
}

TEST(SequentialStoppingTest, ValidatesRuleInputs) {
  // Every rule keeps a valid budget, so each throw is the named input's.
  StoppingRule rule = fixed_n(4);
  rule.metric = "no-such-metric";
  EXPECT_THROW(run_sequential(kNames, rule, 1, 1, noisy_row),
               std::invalid_argument);
  rule = fixed_n(4);
  rule.confidence = 1.5;
  rule.ci_half_width_target = 0.1;
  EXPECT_THROW(run_sequential(kNames, rule, 1, 1, noisy_row),
               std::invalid_argument);
  rule = fixed_n(4);
  rule.ci_half_width_target =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_sequential(kNames, rule, 1, 1, noisy_row),
               std::invalid_argument);
  // Empty metric list: nothing to watch.
  rule = fixed_n(4);
  EXPECT_THROW(run_sequential({}, rule, 1, 1, noisy_row),
               std::invalid_argument);
  // A zero budget is rejected.
  EXPECT_THROW(run_sequential(kNames, fixed_n(0), 1, 1, noisy_row),
               std::invalid_argument);
}

TEST(SequentialStoppingTest, RowWidthMismatchThrows) {
  StoppingRule rule;
  rule.max_reps = 4;
  EXPECT_THROW(
      run_sequential(
          kNames, rule, 1, 1,
          [](std::uint64_t, std::size_t) {
            return std::vector<double>{1.0};  // two metrics expected
          }),
      std::invalid_argument);
}

TEST(SequentialStoppingTest, SummaryLineNamesTheStop) {
  StoppingRule rule;
  rule.metric = "constant";
  rule.ci_half_width_target = 1e-12;
  rule.batch_size = 4;
  rule.max_reps = 32;
  const ReplicationSummary stopped =
      run_sequential(kNames, rule, 3, 1, noisy_row);
  const std::string seq = stopped.stopping.summary();
  EXPECT_NE(seq.find("sequential stopping"), std::string::npos);
  EXPECT_NE(seq.find("ci-target"), std::string::npos);
  EXPECT_NE(seq.find("constant"), std::string::npos);

  const ReplicationSummary fixed =
      run_sequential(kNames, fixed_n(6), 3, 1, noisy_row);
  const std::string fix = fixed.stopping.summary();
  EXPECT_NE(fix.find("fixed-N"), std::string::npos);
}

}  // namespace
}  // namespace smac::parallel
