// Thread-safe memoization of heterogeneous fixed-point solves.
//
// Equilibrium sweeps, repeated games, and tournaments revisit the same
// contention-window profiles thousands of times (TFT trajectories spend
// most stages on one of a handful of profiles). try_solve_network resolves
// each call from scratch; this cache memoizes class-space solutions on
// the *canonical symmetry-class key* (sorted distinct windows +
// multiplicities, max_stage, PER) in an insert-only hash table whose
// lookups take no lock — so concurrent tournament workers and
// repeated-game engines share solutions without queueing on each other,
// and every permutation of a solved profile is a hit (deviation scans
// that move the deviant's seat, tournament mixes in different orders).
// SolverService::solve_classes is its one client: it looks keys up, solves
// the misses and hands them back for adoption.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::parallel {
class ThreadPool;
}

namespace smac::analytical {

/// Monotone counters of one cache's traffic. Each is read on its own, so
/// while a batch is in flight they may disagree by that batch; once no
/// batch is in flight (every solve_classes call returned) they are exact.
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

/// Insert-only class-space memo behind SolverService::solve_classes.
///
/// Entries are never erased or changed, which is what lets a lookup run
/// without a lock: the table is open addressing with linear probing over
/// atomic entry pointers, kept at most half full, so every probe ends at
/// an empty slot. Writers serialize on one insert mutex; a full table is
/// replaced by one twice as large (or larger), filled before it is
/// published, and the tables it replaces live until the cache does,
/// because a lookup may still be probing one.
///
/// SolverOptions are fixed per cache instance (set at construction) and
/// deliberately excluded from the key: one cache serves one model
/// configuration, which is how StageGame uses it. A solve is a pure
/// function of its key and those options, so which caller populated an
/// entry never shows in its bits. Insertion stops at `max_entries`
/// (lookups still hit), bounding memory on adversarial profile streams;
/// the solver is deterministic, so a concurrent miss on the same key
/// recomputes the identical value.
class NetworkSolveCache {
 public:
  /// Throws std::invalid_argument on invalid `opts` (max_iterations < 1,
  /// or a tolerance that is not finite and > 0).
  explicit NetworkSolveCache(SolverOptions opts = {},
                             std::size_t max_entries = 1 << 16);
  ~NetworkSolveCache();
  NetworkSolveCache(const NetworkSolveCache&) = delete;
  NetworkSolveCache& operator=(const NetworkSolveCache&) = delete;

  /// The SolverOptions every entry of this cache was (or will be) solved
  /// with.
  const SolverOptions& options() const noexcept { return opts_; }

  /// Class-space lookups for a batching layer, without a lock and without
  /// copying any key: fn(find) runs on one snapshot of the table, and
  /// find(group) returns the cached class-space result (tau/p sized k) or
  /// nullptr. It only reads, so fn may run it on a pool; entries are never
  /// erased or changed, so a found result stays valid for the cache's
  /// life. fn returns the {hits, misses} to count; a miss for
  /// adopt_classes counts nothing yet. Returns the cache's size as the
  /// lookup saw it: every entry counted in it is visible to find.
  template <class Fn>
  std::size_t lookup_classes(Fn&& fn) const {
    // Size before table: a writer publishes its slots (and any grown
    // table) before the size that counts them.
    const std::size_t seen_size = size_.load(std::memory_order_acquire);
    const Table& table = *table_.load(std::memory_order_acquire);
    const auto [hits, misses] =
        fn([&table](const ClassGroup& group) -> const TrySolveResult* {
          const Entry* entry = table.find(view_of(group));
          return entry == nullptr ? nullptr : &entry->result;
        });
    count(hits, misses);
    return seen_size;
  }

  /// Adopts externally computed class-space results — solved[m] for
  /// groups[m], the misses of a lookup that saw `seen_size` entries — in
  /// order, under the insert mutex. Tally per group mirrors what
  /// `requests` one-request calls in a row would have produced: if the key
  /// appeared while the caller was solving (a racing writer) all
  /// `requests` count as hits; otherwise one miss plus `requests − 1`
  /// hits, and a copy of the result is inserted (subject to max_entries,
  /// so the order of `groups` decides which keys a full cache keeps).
  /// Entries for the groups the cache had room for are built before the
  /// mutex, on `pool` if given; the table grows at most once per call;
  /// while the size is still `seen_size` (no insert since the lookup,
  /// always so for a lone caller) no key is re-checked. Lookups never
  /// wait for an adoption.
  /// Results must come from the cache's own options(), or cached values
  /// stop being pure functions of the key.
  void adopt_classes(std::span<const ClassGroup> groups,
                     std::span<const TrySolveResult> solved,
                     std::size_t seen_size, parallel::ThreadPool* pool) const;

  SolveCacheStats stats() const;

 private:
  /// Canonical class key: (distinct windows asc, multiplicities,
  /// max_stage, PER). Profiles that are permutations of each other
  /// collapse to the same key; the per-call ClassProfile::class_of map
  /// carries the expansion back to the caller's node order. The hash is
  /// computed once and stored, so a probe compares stored hashes before
  /// it compares any key's vectors.
  struct Key {
    std::vector<int> window;
    std::vector<int> multiplicity;
    int max_stage = 0;
    double packet_error_rate = 0.0;
    std::size_t hash = 0;
  };
  /// Borrowed form of Key for lookups (no copies).
  struct KeyView {
    std::span<const int> window;
    std::span<const int> multiplicity;
    int max_stage = 0;
    double packet_error_rate = 0.0;
    std::size_t hash = 0;
  };
  /// One cached solve: the owned key and its *class-space* result (tau/p
  /// sized k, not n) in one heap block, immutable once published. One
  /// entry serves every permutation and every node count-preserving
  /// relabeling of the profile.
  struct Entry {
    Key key;
    TrySolveResult result;
  };
  /// Open-addressing slots (a power of two), probed linearly from
  /// hash & mask; at most half of them are taken.
  struct Table {
    explicit Table(std::size_t slot_count);
    const Entry* find(const KeyView& view) const;
    /// Stores `entry` (absent, so far) in the first empty slot of its
    /// probe: a release store, for lookups already probing this table.
    void insert(const Entry* entry);

    std::size_t mask;
    std::unique_ptr<std::atomic<const Entry*>[]> slots;
  };
  static KeyView view_of(const ClassGroup& group);
  static Key owned(const KeyView& view);

  void count(std::uint64_t hits, std::uint64_t misses) const {
    if (hits != 0) tally_.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) {
      tally_.misses.fetch_add(misses, std::memory_order_relaxed);
    }
  }

  SolverOptions opts_;
  std::size_t max_entries_;
  /// What lookups read: the current table and the entries it holds.
  mutable std::atomic<const Table*> table_;
  mutable std::atomic<std::size_t> size_{0};
  /// Hit and miss counts on a cache line of their own, so that counting
  /// does not evict the table pointer and size every lookup reads.
  struct alignas(64) Tally {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };
  mutable Tally tally_;
  /// Writers only: the insert mutex and every table ever published, the
  /// current one last.
  mutable std::mutex insert_mutex_;
  mutable std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace smac::analytical
