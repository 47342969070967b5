// Thread-safe memoization of heterogeneous fixed-point solves.
//
// Equilibrium sweeps, repeated games, and tournaments revisit the same
// contention-window profiles thousands of times (TFT trajectories spend
// most stages on one of a handful of profiles). solve_network resolves
// each call from scratch; this cache memoizes class-space solutions on
// the *canonical symmetry-class key* (sorted distinct windows +
// multiplicities, max_stage, PER) in a hashed container — so concurrent
// tournament workers and repeated-game engines share solutions safely,
// and every permutation of a solved profile is a hit (deviation scans
// that move the deviant's seat, tournament mixes in different orders).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical {

/// Monotone counters of one cache's traffic, read in a single lock.
struct SolveCacheStats {
  std::size_t size = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// One canonical class key of a batch — borrowed, never copied — and the
/// number of pending requests it answers.
struct ClassGroup {
  const ClassProfile* classes = nullptr;  ///< window ascending, m_c >= 1
  int max_stage = 0;
  double packet_error_rate = 0.0;
  std::uint64_t requests = 1;
};

/// Mutex-guarded memo over try_solve_classes, expanded per node on return.
///
/// SolverOptions are fixed per cache instance (set at construction) and
/// deliberately excluded from the key: one cache serves one model
/// configuration, which is how StageGame uses it. Any initial_tau warm
/// start in the options is stripped: cached values must be pure functions
/// of the key, or insert order under concurrency would make last-ulp bits
/// scheduling-dependent and break the bit-identical-at-any---jobs
/// contract. Insertion stops at `max_entries` (lookups still hit),
/// bounding memory on adversarial profile streams; the solver is
/// deterministic, so a concurrent miss on the same key recomputes the
/// identical value.
class NetworkSolveCache {
 public:
  explicit NetworkSolveCache(SolverOptions opts = {},
                             std::size_t max_entries = 1 << 16);

  /// Cached equivalent of try_solve_network(w, max_stage, opts, per) —
  /// bitwise equal to the direct call (both run the collapsed kernel on
  /// the canonical class system).
  TrySolveResult solve(const std::vector<int>& w, int max_stage,
                       double packet_error_rate) const;

  /// The SolverOptions every entry of this cache was (or will be) solved
  /// with — initial_tau already stripped.
  const SolverOptions& options() const noexcept { return opts_; }

  /// Class-space lookups for a batching layer, all under one lock and
  /// without copying any key. For every cached group, copies the
  /// *class-space* result (tau/p sized k — callers expand with their own
  /// ClassProfile) into found[g] and counts groups[g].requests hits; a
  /// miss counts nothing — its tally happens in adopt_classes, mirroring
  /// solve()'s insert-time classification. Returns the indices of the
  /// missed groups in ascending order. found.size() == groups.size().
  std::vector<std::size_t> lookup_classes(std::span<const ClassGroup> groups,
                                          std::span<TrySolveResult> found)
      const;

  /// Adopts externally computed class-space results — solved[m] for
  /// groups[m] — in order, under one lock. Tally per group mirrors what
  /// `requests` sequential solve() calls would have produced: if the key
  /// appeared while the caller was solving (a racing writer) all
  /// `requests` count as hits; otherwise one miss plus `requests − 1`
  /// hits, and a copy of the result is inserted (subject to max_entries,
  /// so the order of `groups` decides which keys a full cache keeps).
  /// Results must come from the cache's own options() with no warm start,
  /// or cached values stop being pure functions of the key.
  void adopt_classes(std::span<const ClassGroup> groups,
                     std::span<const TrySolveResult> solved) const;

  /// Bumps the traffic counters without touching entries — for batching
  /// layers that answer requests outside the cache (e.g. warm-started
  /// solves that must not be inserted).
  void tally(std::uint64_t hits, std::uint64_t misses) const;

  /// Deterministic warm-start hint: the class tau of the cached usable
  /// entry with the same (multiplicity, max_stage, PER) and the smallest
  /// L1 window distance (lexicographically smallest window on ties).
  /// Scans the cache (O(size)); nullopt when nothing matches. Solutions
  /// started from a hint may differ from cold solves in the last ulp, so
  /// they must never be adopted back into the cache.
  std::optional<std::vector<double>> neighbor_hint(
      const ClassProfile& classes, int max_stage,
      double packet_error_rate) const;

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  SolveCacheStats stats() const;
  void clear();

 private:
  /// Canonical class key: (distinct windows asc, multiplicities,
  /// max_stage, PER). Profiles that are permutations of each other
  /// collapse to the same key; the per-call ClassProfile::class_of map
  /// carries the expansion back to the caller's node order. The hash is
  /// computed once and stored, so a bucket walk compares stored hashes
  /// instead of re-hashing every stored key's vectors.
  struct Key {
    std::vector<int> window;
    std::vector<int> multiplicity;
    int max_stage = 0;
    double packet_error_rate = 0.0;
    std::size_t hash = 0;

    bool operator==(const Key& other) const = default;
  };
  /// Borrowed form of Key for lookups (heterogeneous find: no copies).
  struct KeyView {
    std::span<const int> window;
    std::span<const int> multiplicity;
    int max_stage = 0;
    double packet_error_rate = 0.0;
    std::size_t hash = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Key& key) const noexcept { return key.hash; }
    std::size_t operator()(const KeyView& key) const noexcept {
      return key.hash;
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const { return a == b; }
    bool operator()(const KeyView& a, const Key& b) const;
    bool operator()(const Key& a, const KeyView& b) const {
      return (*this)(b, a);
    }
  };
  static KeyView view_of(const ClassProfile& classes, int max_stage,
                         double packet_error_rate);
  static Key owned(const KeyView& view);

  SolverOptions opts_;
  std::size_t max_entries_;
  mutable std::mutex mutex_;
  /// Values are *class-space* TrySolveResults (tau/p sized k, not n):
  /// compact, and one entry serves every permutation and every node
  /// count-preserving relabeling of the profile.
  mutable std::unordered_map<Key, TrySolveResult, KeyHash, KeyEqual> cache_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace smac::analytical
