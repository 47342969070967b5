// Bitwise-identity contract of the lockstep batch solver.
//
// try_solve_classes_batch promises results bitwise identical to solving
// each instance in a batch of its own (src/analytical/batch_solver.hpp) —
// every instance runs its own solve machine, and no arithmetic crosses
// instances. This suite pins the contract over a seeded (n, k, PER,
// batch-size) grid, over batches mixing converged/degraded/failed
// outcomes under a starved iteration budget, over a batch mixing plain
// Newton, Newton with damped steps and the scalar k = 1 path, over
// duplicate instances, and over the empty batch.
#include "analytical/batch_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace smac::analytical {
namespace {

/// Exact bit equality — EXPECT_DOUBLE_EQ-style tolerance would hide the
/// drift this suite exists to forbid.
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

void expect_identical(const TrySolveResult& batch, const TrySolveResult& one,
                      const std::string& what) {
  expect_bits_equal(batch.state.tau, one.state.tau, what + " tau");
  expect_bits_equal(batch.state.p, one.state.p, what + " p");
  EXPECT_EQ(batch.state.converged, one.state.converged) << what;
  EXPECT_EQ(batch.state.iterations, one.state.iterations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.state.residual),
            std::bit_cast<std::uint64_t>(one.state.residual))
      << what;
  EXPECT_EQ(batch.diagnostics.status, one.diagnostics.status) << what;
  EXPECT_EQ(batch.diagnostics.iterations, one.diagnostics.iterations) << what;
  EXPECT_EQ(batch.diagnostics.retries, one.diagnostics.retries) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.diagnostics.residual),
            std::bit_cast<std::uint64_t>(one.diagnostics.residual))
      << what;
  EXPECT_STREQ(batch.diagnostics.method, one.diagnostics.method) << what;
}

/// The instance solved in a batch of its own.
TrySolveResult solve_alone(const ClassProfileInstance& instance) {
  return try_solve_classes_batch({&instance, 1}).front();
}

void check_batch_matches_sequential(
    const std::vector<ClassProfileInstance>& instances,
    const std::string& what) {
  const std::vector<TrySolveResult> batched =
      try_solve_classes_batch(instances);
  ASSERT_EQ(batched.size(), instances.size()) << what;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const TrySolveResult one = solve_alone(instances[i]);
    expect_identical(batched[i], one,
                     what + " instance " + std::to_string(i));
  }
}

ClassProfileInstance make_instance(const std::vector<int>& w, int max_stage,
                                   double per, SolverOptions opts = {}) {
  ClassProfileInstance instance;
  instance.classes = classify_profile(w);
  instance.max_stage = max_stage;
  instance.packet_error_rate = per;
  instance.opts = std::move(opts);
  return instance;
}

TEST(BatchSolverTest, EmptyBatchYieldsEmptyVector) {
  EXPECT_TRUE(try_solve_classes_batch({}).empty());
}

TEST(BatchSolverTest, SeededGridMatchesSequentialBitwise) {
  util::Rng rng(0xb47c50a1ULL);  // fixed seed: the grid is replayable
  const std::vector<double> pers{0.0, 0.25, 0.9};
  const std::vector<int> ns{1, 2, 5, 40, 120};
  const std::vector<std::size_t> batch_sizes{1, 3, 16, 64};

  for (const std::size_t batch_size : batch_sizes) {
    std::vector<ClassProfileInstance> instances;
    instances.reserve(batch_size);
    for (std::size_t b = 0; b < batch_size; ++b) {
      const int n = ns[rng.uniform_below(ns.size())];
      std::vector<int> w(static_cast<std::size_t>(n));
      for (int& wi : w) {
        wi = rng.bernoulli(0.5)
                 ? 1 << rng.uniform_below(13)
                 : static_cast<int>(rng.uniform_int(1, 4096));
      }
      const int m = rng.bernoulli(0.5) ? 0 : 6;
      const double per = pers[rng.uniform_below(pers.size())];
      instances.push_back(make_instance(w, m, per));
    }
    check_batch_matches_sequential(
        instances, "batch_size=" + std::to_string(batch_size));
  }
}

TEST(BatchSolverTest, MixedStatusBatchMatchesSequentialBitwise) {
  // A starved iteration budget leaves hard heterogeneous profiles
  // degraded or failed, while homogeneous instances (k = 1, scalar root)
  // converge regardless — so one batch carries every status and finished
  // instances drop out of the lockstep sweep at different times.
  SolverOptions starved;
  starved.max_iterations = 2;

  std::vector<ClassProfileInstance> instances;
  instances.push_back(make_instance(std::vector<int>(16, 32), 6, 0.0,
                                    starved));  // k = 1: converges
  {
    std::vector<int> bimodal(100, 1);
    bimodal.resize(200, 4096);
    instances.push_back(make_instance(bimodal, 6, 0.9, starved));
  }
  {
    std::vector<int> staircase;
    for (int v = 1; v <= 4096; v *= 2) staircase.insert(staircase.end(), 8, v);
    instances.push_back(make_instance(staircase, 6, 0.5, starved));
  }
  {
    std::vector<int> aggressor(64, 4096);
    aggressor[0] = 1;
    instances.push_back(make_instance(aggressor, 0, 0.999, starved));
  }
  instances.push_back(make_instance({2, 2, 2}, 0, 0.0, starved));  // k = 1

  const std::vector<TrySolveResult> batched =
      try_solve_classes_batch(instances);
  std::set<SolveStatus> statuses;
  for (const TrySolveResult& r : batched) {
    statuses.insert(r.diagnostics.status);
  }
  EXPECT_GE(statuses.size(), 2u)
      << "grid no longer mixes statuses; rebuild the provocation set";
  EXPECT_TRUE(statuses.count(SolveStatus::kConverged));

  check_batch_matches_sequential(instances, "mixed-status");
}

TEST(BatchSolverTest, NewtonFallbackAndScalarInstancesMatchSequentialBitwise) {
  // Plain Newton finishes in a few sweeps, an instance whose Newton steps
  // are refused takes damped steps for several more, and k = 1 never
  // enters the sweep: one batch must still give each instance its
  // sequential bits.
  std::vector<ClassProfileInstance> instances;
  instances.push_back(make_instance({16, 64, 64, 256, 1024}, 6, 0.0));
  instances.push_back(make_instance({1, 8, 8, 64, 512, 512}, 6, 0.0));
  instances.push_back(make_instance(std::vector<int>(30, 128), 6, 0.0));
  instances.push_back(make_instance({32, 32, 48, 700, 700, 700}, 6, 0.3));
  {
    std::vector<int> aggressor(64, 4096);
    aggressor[0] = 1;
    instances.push_back(make_instance(aggressor, 6, 0.0));
  }
  instances.push_back(make_instance({2, 2, 2}, 0, 0.9));

  const std::vector<TrySolveResult> batched =
      try_solve_classes_batch(instances);
  // (method, retries) of every instance: scalar, plain Newton, and Newton
  // with damped steps.
  std::set<std::pair<std::string, int>> kinds;
  for (const TrySolveResult& r : batched) {
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kConverged);
    kinds.emplace(r.diagnostics.method, r.diagnostics.retries);
  }
  EXPECT_EQ(kinds, (std::set<std::pair<std::string, int>>{
                       {"brent", 0}, {"newton", 0}, {"newton", 1}}));

  check_batch_matches_sequential(instances, "newton-fallback-scalar");
}

TEST(BatchSolverTest, DuplicateInstancesAgreeWithinBatch) {
  // The same instance at different batch positions must produce the same
  // bits — the lockstep sweep may interleave them with different
  // neighbors, which must not matter.
  const ClassProfileInstance proto =
      make_instance({1, 8, 8, 64, 512, 512}, 6, 0.25);
  std::vector<ClassProfileInstance> instances(7, proto);
  instances.insert(instances.begin() + 3,
                   make_instance(std::vector<int>(50, 1), 6, 0.9));
  const std::vector<TrySolveResult> batched =
      try_solve_classes_batch(instances);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    if (i == 3) continue;
    expect_identical(batched[i], batched[0],
                     "duplicate at " + std::to_string(i));
  }
}

}  // namespace
}  // namespace smac::analytical
