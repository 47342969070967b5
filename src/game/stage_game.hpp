// The stage game of the non-cooperative MAC game G (paper §IV).
//
// One stage lasts T seconds during which every node operates a fixed
// contention window; the stage payoff is the utility rate u_i (from the
// extended Bianchi model) times the stage duration. This class is the
// bridge between the analytical model and the game-theoretic machinery:
// strategies and equilibrium analysis consume it, never the raw solver.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_cache.hpp"
#include "analytical/solver_service.hpp"
#include "phy/parameters.hpp"

namespace smac::game {

/// Evaluates stage payoffs of contention-window profiles.
///
/// Homogeneous evaluations are memoized: equilibrium sweeps and repeated
/// games revisit the same (w, n) points thousands of times. The memo
/// cache is mutex-guarded, so const evaluation is safe from concurrent
/// threads (parallel tournaments share one StageGame across workers).
class StageGame {
 public:
  StageGame(phy::Parameters params, phy::AccessMode mode);

  /// Same, with explicit SolverService options — the way to hand the
  /// owned service a ThreadPool (city-scale pricing chunks its miss
  /// batches across it; results stay bitwise jobs-invariant per the
  /// service contract). The pool, if any, must outlive this game.
  StageGame(phy::Parameters params, phy::AccessMode mode,
            analytical::SolverService::Options solver_options);

  const phy::Parameters& params() const noexcept { return params_; }
  phy::AccessMode mode() const noexcept { return mode_; }

  /// Stage duration in µs (utility rates are per µs).
  double stage_duration_us() const noexcept {
    return params_.stage_duration_s * 1e6;
  }

  /// Per-node utility *rates* (gain per µs) for an arbitrary profile.
  std::vector<double> utility_rates(const std::vector<int>& w) const;

  /// Per-node stage payoffs U_i^s = u_i·T for an arbitrary profile.
  std::vector<double> stage_utilities(const std::vector<int>& w) const;

  /// Non-throwing stage payoffs: per-node payoffs plus the solver
  /// diagnostics. `per_override` replaces the configured packet error rate
  /// (fault injection layers bursty loss on top of the base PER). Routed
  /// through a thread-safe memo keyed on (profile, max_stage, PER), so
  /// repeated games and tournaments that revisit the same profile —
  /// especially after a fault knocks the history back to a prior state —
  /// pay for each solve once. An empty profile yields kFailed/"invalid"
  /// with no utilities and counts no cache traffic.
  struct StagePayoffs {
    std::vector<double> utilities;
    analytical::SolveDiagnostics diagnostics;
  };
  StagePayoffs try_stage_utilities(
      const std::vector<int>& w,
      std::optional<double> per_override = std::nullopt) const;

  /// Batched try_stage_utilities: prices every profile through one
  /// SolverService::solve_batch call and returns the payoffs in input
  /// order. Each element is bitwise equal to the corresponding sequential
  /// try_stage_utilities call, cache traffic included (the batch kernel's
  /// identity contract); only the solver work is shared.
  std::vector<StagePayoffs> try_stage_utilities_batch(
      const std::vector<std::vector<int>>& profiles,
      std::optional<double> per_override = std::nullopt) const;

  /// Class-space batch pricing: each entry is a canonical ClassProfile
  /// (as produced by classify_profile, class_of populated) and the result
  /// holds one stage payoff per *class* — the payoff every node of that
  /// class would get from try_stage_utilities on any expansion of the
  /// profile, bitwise (nodes of a class share tau/p exactly). This is the
  /// city-scale entry point: the whole batch goes through one
  /// SolverService::solve_classes call, so a 10^4-node stage solves only
  /// its distinct (neighborhood-size, window-mix, PER) classes, and each
  /// request is priced from scratch space reused across the batch.
  /// Profiles with no classes yield kFailed/"invalid" and count no cache
  /// traffic, like empty profiles on the per-node paths.
  struct ClassPayoffs {
    std::vector<double> utilities;  ///< per class, stage payoff u·T
    analytical::SolveDiagnostics diagnostics;
  };
  std::vector<ClassPayoffs> try_class_utilities_batch(
      const std::vector<analytical::ClassProfile>& profiles,
      std::optional<double> per_override = std::nullopt) const;

  /// Warms the solve cache for a set of profiles in one
  /// SolverService::solve_classes batch. Later utility_rates /
  /// try_stage_utilities calls on these profiles (or any permutation of
  /// them) are cache hits. Invalid profiles add no entry.
  void prefetch_profiles(const std::vector<std::vector<int>>& profiles,
                         std::optional<double> per_override =
                             std::nullopt) const;

  /// Utility rate of one node when all n nodes play w (memoized).
  double homogeneous_utility_rate(int w, int n) const;

  /// Stage payoff of one node when all n nodes play w.
  double homogeneous_stage_utility(int w, int n) const;

  /// Σ_i U_i^s over a homogeneous profile: the social welfare of a stage.
  double social_welfare(int w, int n) const;

  /// Normalized global payoff U/C (Figures 2–3 y-axis).
  double normalized_global_payoff(int w, int n) const;

  /// Traffic counters of the shared heterogeneous solve cache (both
  /// utility_rates and try_stage_utilities route through it); benches
  /// print these to show how much of a run the class-canonical key
  /// deduplicates.
  analytical::SolveCacheStats solve_cache_stats() const {
    return solver_.cache_stats();
  }

  /// The batched solver front end every heterogeneous evaluation routes
  /// through (see docs/SOLVER_API.md).
  const analytical::SolverService& solver_service() const noexcept {
    return solver_;
  }

 private:
  /// Stage payoffs u·T of a per-node solve (none when it is unusable).
  StagePayoffs payoffs_of(const analytical::TrySolveResult& solved) const;

  phy::Parameters params_;
  phy::AccessMode mode_;
  mutable std::mutex cache_mutex_;
  mutable std::map<std::pair<int, int>, double> homogeneous_cache_;
  mutable analytical::SolverService solver_;
};

}  // namespace smac::game
