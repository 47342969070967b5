// Replication-engine scaling: wall-clock vs --jobs on one batch.
//
// Runs the same Monte-Carlo batch (kReplications replications of a 10-node
// saturated DCF simulation) at jobs = 1 / 2 / 4 (and the --jobs/SMAC_JOBS
// value if larger), times each sweep, and cross-checks that every
// aggregated metric is bit-identical to the serial run — the determinism
// contract of src/parallel/replication.hpp, measured rather than
// asserted. A mismatch exits 1. The batch is sized by wall clock, not by
// a slot count: the slots per replication double from kStartSlots until
// the jobs-1 batch takes at least kMinSerialMs, far above thread startup
// and the per-batch barrier on any build. One untimed jobs-4 batch runs
// first, because a fresh process's pool can start on one CPU. Build with
// -DCMAKE_BUILD_TYPE=Release before reading the speedup column; recorded
// results live in bench/PARALLEL_SPEEDUP.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

constexpr std::size_t kReplications = 128;
constexpr std::uint64_t kStartSlots = 60000;
constexpr double kMinSerialMs = 500.0;

double run_batch_ms(std::uint64_t slots, std::size_t jobs,
                    sim::SimBatch& batch_out) {
  sim::SimConfig config;
  config.seed = 42;
  const std::vector<int> profile(10, 128);
  const auto t0 = std::chrono::steady_clock::now();
  batch_out = sim::run_replicated(config, profile, slots, kReplications,
                                  jobs);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool identical_metrics(const sim::SimBatch& a, const sim::SimBatch& b) {
  if (a.metrics.size() != b.metrics.size()) return false;
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    if (a.metrics[m].mean != b.metrics[m].mean ||
        a.metrics[m].stddev != b.metrics[m].stddev ||
        a.metrics[m].ci95 != b.metrics[m].ci95 ||
        a.metrics[m].min != b.metrics[m].min ||
        a.metrics[m].max != b.metrics[m].max) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_args(argc, argv, {"--jobs"});
  bench::print_header(
      "Parallel replication scaling",
      "engine check (no paper artifact): run_sequential determinism "
      "and speedup",
      "128 replications, 10 saturated nodes, W = 128, basic; slots per\n"
      "replication doubled from 60k until the jobs-1 batch takes >= 0.5 s.");
  const std::size_t jobs_arg = bench::jobs_option(argc, argv);
  std::printf("hardware threads available: %zu\n\n",
              parallel::ThreadPool::default_jobs());

  std::vector<std::size_t> sweep{1, 2, 4};
  if (std::find(sweep.begin(), sweep.end(), jobs_arg) == sweep.end()) {
    sweep.push_back(jobs_arg);
  }

  sim::SimBatch serial;
  (void)run_batch_ms(kStartSlots, 4, serial);  // untimed pool warm-up
  std::uint64_t slots = kStartSlots;
  double serial_ms = run_batch_ms(slots, 1, serial);
  while (serial_ms < kMinSerialMs) {
    slots *= 2;
    serial_ms = run_batch_ms(slots, 1, serial);
  }
  std::printf("slots per replication: %llu (jobs-1 batch %.1f ms)\n\n",
              static_cast<unsigned long long>(slots), serial_ms);

  util::TextTable table(
      {"jobs", "wall (ms)", "speedup vs jobs=1", "aggregates bit-identical"});
  table.add_row({"1", util::fmt_double(serial_ms, 1), "1.00", "-"});
  bool all_identical = true;
  for (std::size_t jobs : sweep) {
    if (jobs == 1) continue;
    sim::SimBatch batch;
    const double ms = run_batch_ms(slots, jobs, batch);
    const bool identical = identical_metrics(serial, batch);
    all_identical = all_identical && identical;
    table.add_row({std::to_string(jobs), util::fmt_double(ms, 1),
                   util::fmt_double(serial_ms / ms, 2),
                   identical ? "yes" : "NO (BUG)"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("%s\n",
              util::format_metric_summaries(serial.metrics, 6).c_str());
  std::printf(
      "Expectation: the aggregate column is always 'yes' (per-stream\n"
      "seeding + index-ordered reduction make results independent of\n"
      "scheduling); speedup approaches min(jobs, cores) on an idle\n"
      "host. On a single-core host every speedup is ~1.0 by\n"
      "construction.\n");
  return all_identical ? 0 : 1;
}
