// The benchmark's workload interface and run_child, which runs one
// workload inside its own process: set-up (repeated), the closed-loop
// timed region, the correctness checks, and optionally the traced pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytical/solver_cache.hpp"

namespace perf {

/// Fixed worker count of every parallel workload (the benchmark refuses
/// hosts with fewer cores).
inline constexpr unsigned kWorkers = 4;

struct RunOptions {
  std::uint64_t seed = 2026;
  double seconds = 28.0;  ///< length of the timed region
  bool smoke = false;     ///< tiny sizes, for the shape test only
  bool traced = false;    ///< add the traced pass after the timed region
};

/// Per-layer values one traced pass measured, by metric name (see
/// layer_units()); metrics a workload leaves out are reported as 0 — the
/// layer did no work there.
using LayerValues = std::map<std::string, double>;

struct TracedPass {
  LayerValues layers;
  /// Wall time of the traced work that corresponds to one untraced round
  /// (the base of trace.overhead_frac).
  double round_s = 0.0;
  /// Recomposition or determinism mismatches: each is a hard failure.
  std::vector<std::string> mismatches;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What units_per_s counts, e.g. "priced node-stage".
  virtual const char* work_unit() const = 0;
  /// Sizes, for the metrics file.
  virtual std::vector<std::pair<std::string, std::string>> params() const = 0;
  /// Units that fail_frac counts per round (stages, grid points, ...).
  virtual std::size_t units_per_round() const = 0;

  /// Builds the inputs from the seed. Called again between rounds (to
  /// sample set-up time), so it must be idempotent and leave the state
  /// that rounds carry from one to the next alone.
  virtual void setup() = 0;
  /// One timed round; returns the work done, in work_unit()s.
  virtual double run_round(std::size_t round) = 0;
  /// Right after each round, outside its timer: checks that round's
  /// outputs, returns its failed units and appends one message per failure
  /// kind. Only the first round's outputs are kept (for trace()), so
  /// memory does not grow with the number of rounds.
  virtual std::size_t check_round(std::vector<std::string>& why) = 0;
  /// The traced pass; recomposes the first round.
  virtual TracedPass trace() = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& options);

std::unique_ptr<Workload> make_city(const RunOptions& options);
std::unique_ptr<Workload> make_quasiopt(const RunOptions& options);
std::unique_ptr<Workload> make_dcf(const RunOptions& options);
std::unique_ptr<Workload> make_tourney(const RunOptions& options);

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_units();

/// Runs one workload and writes its JSON object to `result_path` (and
/// its Chrome trace-event fragment to `events_path` when traced). Returns
/// the process exit status: 0, or 1 when a unit failed.
int run_child(const std::string& name, const RunOptions& options,
              const std::string& result_path, const std::string& events_path);

// Helpers shared by the workloads.

/// Process CPU time (all threads), seconds.
double cpu_seconds();
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// `s` as a JSON string literal.
std::string json_quote(const std::string& s);
/// Relative spread |a − b| / |b|.
double rel_diff(double a, double b);
/// The analytical.* solve-cache metrics of one traced pass's game.
void add_cache_layers(const smac::analytical::SolveCacheStats& cache,
                      LayerValues& m);

}  // namespace perf
