// Thread-safe memoization of heterogeneous fixed-point solves.
//
// Equilibrium sweeps, repeated games, and tournaments revisit the same
// contention-window profiles thousands of times (TFT trajectories spend
// most stages on one of a handful of profiles). try_solve_network resolves
// each call from scratch; this cache memoizes class-space solutions on
// the *canonical symmetry-class key* (sorted distinct windows +
// multiplicities, max_stage, PER) in a hashed container — so concurrent
// tournament workers and repeated-game engines share solutions safely,
// and every permutation of a solved profile is a hit (deviation scans
// that move the deviant's seat, tournament mixes in different orders).
// SolverService::solve_classes is its one client: it looks keys up, solves
// the misses and hands them back for adoption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::parallel {
class ThreadPool;
}

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

/// Mutex-guarded class-space memo behind SolverService::solve_classes.
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

  /// The SolverOptions every entry of this cache was (or will be) solved
  /// with — initial_tau already stripped.
  const SolverOptions& options() const noexcept { return opts_; }

  /// Class-space lookups for a batching layer, under one lock and without
  /// copying any key: fn(find) runs with the lock held, and find(group)
  /// returns the cached class-space result (tau/p sized k) or nullptr. It
  /// only reads, so fn may run it on a pool; entries are never erased or
  /// changed, so a found result may be read after the lock. fn returns the
  /// {hits, misses} to count; a miss for adopt_classes counts nothing yet.
  /// Returns the cache's size as the lookup saw it.
  template <class Fn>
  std::size_t lookup_classes(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [hits, misses] = fn([this](const ClassGroup& group) {
      const auto it = cache_.find(view_of(group));
      return it == cache_.end() ? nullptr : &it->second;
    });
    hits_ += hits;
    misses_ += misses;
    return cache_.size();
  }

  /// Adopts externally computed class-space results — solved[m] for
  /// groups[m], the misses of a lookup that saw `seen_size` entries — in
  /// order, under one lock. Tally per group mirrors what `requests`
  /// one-request calls in a row would have produced: if the key appeared
  /// while the caller was solving (a racing writer) all `requests` count
  /// as hits; otherwise one miss plus `requests − 1` hits, and a copy of
  /// the result is inserted (subject to max_entries, so the order of
  /// `groups` decides which keys a full cache keeps). Entries for the
  /// groups the cache had room for are built before the lock, on `pool`
  /// if given; while the size is still `seen_size` (no insert since the
  /// lookup, always so for a lone caller) no key is re-checked.
  /// Results must come from the cache's own options() with no warm start,
  /// or cached values stop being pure functions of the key.
  void adopt_classes(std::span<const ClassGroup> groups,
                     std::span<const TrySolveResult> solved,
                     std::size_t seen_size, parallel::ThreadPool* pool) const;

  SolveCacheStats stats() const;

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
  static KeyView view_of(const ClassGroup& group);
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
