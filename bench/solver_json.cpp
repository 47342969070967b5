// Machine-readable solver perf tracking: BENCH_solver.json.
//
// Times the symmetry-collapsed heterogeneous solver (try_solve_network)
// against the pre-collapse per-node reference kernel
// (try_solve_network_full) over an (n, k) grid, reporting the median
// ns/solve for each, the speedup ratio, and the max |Δτ| between the two
// kernels' solutions (the ≤ 1e-12 agreement contract, asserted bitwise-
// tolerant in tests/analytical/symmetry_collapse_test.cpp).
//
// Also records a solves/sec throughput trajectory for the lockstep batch
// kernel (try_solve_classes_batch) at batch sizes 1/16/256/4096 over
// distinct profiles, plus one SolverService::solve_classes batch of
// deduplicated requests, and the cost of a one-request cache hit on one
// warmed SolverService when one thread and when four threads call it at
// once (the tournament's workers pricing their stages through one shared
// cache).
//
// Usage: bench_solver_json [output.json]   (default BENCH_solver.json in
// the working directory; any other argument exits 2, an output that cannot
// be written exits 1). Wall-clock numbers
// obviously vary by machine; the JSON is a trajectory record, not a
// determinism surface.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analytical/batch_solver.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_service.hpp"
#include "bench_common.hpp"
#include "support/reference_solver.hpp"

namespace {

using namespace smac;
using Clock = std::chrono::steady_clock;

std::vector<int> class_mixed_profile(int n, int k) {
  static const int kWindows[] = {16, 64, 256, 1024, 48, 512};
  std::vector<int> profile(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    profile[static_cast<std::size_t>(i)] = kWindows[i % k];
  }
  return profile;
}

// Median ns of `reps` timed calls of fn() (each called once per sample).
template <class Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Point {
  int n = 0;
  int k = 0;
  double full_ns = 0.0;
  double collapsed_ns = 0.0;
  double speedup = 0.0;
  double max_abs_delta = 0.0;
  bool both_converged = false;
};

Point measure(int n, int k, int reps) {
  const std::vector<int> profile = class_mixed_profile(n, k);
  Point p;
  p.n = n;
  p.k = k;

  analytical::TrySolveResult full;
  analytical::TrySolveResult collapsed;
  p.full_ns = median_ns(reps, [&] {
    full = analytical::try_solve_network_full(profile, 6);
  });
  p.collapsed_ns = median_ns(reps, [&] {
    collapsed = analytical::try_solve_network(profile, 6);
  });
  p.speedup = p.collapsed_ns > 0.0 ? p.full_ns / p.collapsed_ns : 0.0;
  p.both_converged = full.state.converged && collapsed.state.converged;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    p.max_abs_delta = std::max(
        p.max_abs_delta, std::abs(full.state.tau[i] - collapsed.state.tau[i]));
    p.max_abs_delta = std::max(
        p.max_abs_delta, std::abs(full.state.p[i] - collapsed.state.p[i]));
  }
  return p;
}

struct ThroughputPoint {
  int batch = 0;
  double cold_ns = 0.0;  ///< amortized ns per solve, distinct profiles
};

/// `count` distinct (n = 50, k = 3-ish) instances: each perturbs a
/// different window of the base mix, so a cold batch really solves
/// `count` different class systems.
std::vector<analytical::ClassProfileInstance> cold_batch(int count) {
  const std::vector<int> base = class_mixed_profile(50, 3);
  std::vector<analytical::ClassProfileInstance> instances(
      static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<int> profile = base;
    profile[static_cast<std::size_t>(i) % profile.size()] += 1 + i % 97;
    instances[static_cast<std::size_t>(i)].classes =
        analytical::classify_profile(profile);
    instances[static_cast<std::size_t>(i)].max_stage = 6;
  }
  return instances;
}

ThroughputPoint measure_throughput(int batch) {
  // Large batches amortize per-call noise themselves; fewer reps keep the
  // bench fast without hurting the median.
  const int reps = batch >= 256 ? 11 : 31;
  const auto instances = cold_batch(batch);
  ThroughputPoint point;
  point.batch = batch;
  point.cold_ns =
      median_ns(reps, [&] {
        (void)analytical::try_solve_classes_batch(instances);
      }) /
      batch;
  return point;
}

/// One-request hits on one warmed service from `threads` threads at once.
struct ContendedHit {
  int threads = 0;
  int samples = 0;           ///< threads × rounds
  double ns_per_call = 0.0;  ///< median over the samples
};

/// Calls per sample of the contended-hit row: one sample is one thread's
/// mean over this many back-to-back hits.
constexpr int kHitCalls = 1000;

/// Each of `threads` threads times `rounds` samples of kHitCalls
/// one-request solve_classes calls on `classes`, which `service` holds;
/// the threads start every round together, so their calls overlap.
ContendedHit measure_contended_hit(const analytical::SolverService& service,
                                   const analytical::ClassProfile& classes,
                                   int threads, int rounds) {
  std::vector<double> samples(static_cast<std::size_t>(threads * rounds));
  std::barrier round_start(threads);
  std::vector<std::thread> team;
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        round_start.arrive_and_wait();
        const auto t0 = Clock::now();
        for (int c = 0; c < kHitCalls; ++c) {
          (void)service.solve_classes({&classes, 1}, 6, 0.0);
        }
        const auto t1 = Clock::now();
        samples[static_cast<std::size_t>(r * threads + t)] =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
            kHitCalls;
      }
    });
  }
  for (std::thread& thread : team) thread.join();
  std::sort(samples.begin(), samples.end());
  return {threads, static_cast<int>(samples.size()),
          samples[samples.size() / 2]};
}

double solves_per_sec(double ns_per_solve) {
  return ns_per_solve > 0.0 ? 1e9 / ns_per_solve : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_solver.json";
  bench::check_args(argc, argv, {}, {}, &path);
  const int reps = 31;  // odd: the median is a real sample

  std::vector<Point> points;
  for (int k : {1, 2, 3, 6}) {
    for (int n : {5, 20, 50, 100, 200}) {
      if (k > n) continue;
      points.push_back(measure(n, k, reps));
    }
  }

  // Batch-kernel throughput trajectory (amortized ns/solve), plus one
  // SolverService::solve_classes batch: 1024 requests over 512 distinct
  // class profiles — the dedup-then-batch path a deviation scan takes. A
  // fresh service per sample keeps every batch cold.
  std::vector<ThroughputPoint> throughput;
  for (const int batch : {1, 16, 256, 4096}) {
    throughput.push_back(measure_throughput(batch));
  }
  // One sample is one ≈ 1 ms batch, so its median needs many of them: at
  // 11 samples, ten runs of one Release build read 642–1061 ns/request;
  // at 301, ten processes stayed within 965–1072 (4-vCPU Xeon, gcc 12).
  const int service_requests = 1024;
  const int service_distinct = 512;
  const int service_samples = 301;
  const auto service_instances = cold_batch(service_distinct);
  const double service_ns =
      median_ns(service_samples, [&] {
        analytical::SolverService service;
        std::vector<analytical::ClassProfile> requests;
        for (int r = 0; r < service_requests; ++r) {
          requests.push_back(
              service_instances[static_cast<std::size_t>(r % service_distinct)]
                  .classes);
        }
        (void)service.solve_classes(requests, 6, 0.0);
      }) /
      service_requests;
  // One-request hits on a service warmed with a 5-player profile: alone,
  // then four threads at once on the same service.
  const analytical::ClassProfile hit_classes =
      analytical::classify_profile(class_mixed_profile(5, 3));
  const analytical::SolverService hit_service;
  (void)hit_service.solve_classes({&hit_classes, 1}, 6, 0.0);
  const int hit_rounds = 201;
  const ContendedHit hits[] = {
      measure_contended_hit(hit_service, hit_classes, 1, hit_rounds),
      measure_contended_hit(hit_service, hit_classes, 4, hit_rounds)};

  std::FILE* out = bench::open_output(path);
  if (out == nullptr) return 1;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"heterogeneous solver, collapsed vs "
                    "full kernel\",\n");
  std::fprintf(out, "  \"unit\": \"median ns/solve over %d samples\",\n",
               reps);
  std::fprintf(out, "  \"host\": %s,\n", bench::host_json().c_str());
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"n\": %d, \"k\": %d, \"full_ns\": %.0f, "
                 "\"collapsed_ns\": %.0f, \"speedup\": %.2f, "
                 "\"max_abs_delta\": %.3g, \"both_converged\": %s}%s\n",
                 p.n, p.k, p.full_ns, p.collapsed_ns, p.speedup,
                 p.max_abs_delta, p.both_converged ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"throughput\": {\n");
  std::fprintf(out,
               "    \"unit\": \"amortized ns/solve and solves/sec over the "
               "batch\",\n");
  std::fprintf(out, "    \"batch\": [\n");
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputPoint& t = throughput[i];
    std::fprintf(out,
                 "      {\"batch\": %d, \"cold_ns\": %.0f, "
                 "\"cold_solves_per_sec\": %.0f}%s\n",
                 t.batch, t.cold_ns, solves_per_sec(t.cold_ns),
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"service\": {\"requests\": %d, \"distinct\": %d, "
               "\"samples\": %d, \"ns_per_request\": %.0f, "
               "\"requests_per_sec\": %.0f}\n",
               service_requests, service_distinct, service_samples,
               service_ns, solves_per_sec(service_ns));
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"contended_hit\": {\"profile\": \"mix(5,3)\", "
               "\"unit\": \"median ns per one-request hit\", "
               "\"calls_per_sample\": %d, \"rows\": [\n",
               kHitCalls);
  for (std::size_t i = 0; i < std::size(hits); ++i) {
    std::fprintf(out,
                 "    {\"threads\": %d, \"samples\": %d, "
                 "\"ns_per_call\": %.0f}%s\n",
                 hits[i].threads, hits[i].samples, hits[i].ns_per_call,
                 i + 1 < std::size(hits) ? "," : "");
  }
  std::fprintf(out, "  ]}\n");
  std::fprintf(out, "}\n");
  if (!bench::close_output(out, path)) return 1;

  // Mirror to stdout so CI logs capture the trajectory without artifacts.
  std::printf("%-5s %-3s %12s %14s %9s %14s\n", "n", "k", "full ns",
              "collapsed ns", "speedup", "max |delta|");
  for (const Point& p : points) {
    std::printf("%-5d %-3d %12.0f %14.0f %8.2fx %14.3g%s\n", p.n, p.k,
                p.full_ns, p.collapsed_ns, p.speedup, p.max_abs_delta,
                p.both_converged ? "" : "  (non-converged)");
  }
  std::printf("batch throughput (n=50, k=3; amortized ns/solve):\n");
  std::printf("%-7s %12s %18s\n", "batch", "cold ns", "cold solves/s");
  for (const ThroughputPoint& t : throughput) {
    std::printf("%-7d %12.0f %18.0f\n", t.batch, t.cold_ns,
                solves_per_sec(t.cold_ns));
  }
  std::printf("service batch: %d requests (%d distinct) at %.0f ns/request "
              "(%.0f requests/s; median of %d samples)\n",
              service_requests, service_distinct, service_ns,
              solves_per_sec(service_ns), service_samples);
  for (const ContendedHit& hit : hits) {
    std::printf("contended hit: %d thread%s at %.0f ns/call (median of %d "
                "samples of %d one-request hits on one service)\n",
                hit.threads, hit.threads == 1 ? "" : "s", hit.ns_per_call,
                hit.samples, kHitCalls);
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
