#include "analytical/solver_cache.hpp"

#include <algorithm>
#include <utility>

#include "parallel/thread_pool.hpp"

namespace smac::analytical {

namespace {

/// Entries built per pool task in adopt_classes: a scheduling unit only.
constexpr std::size_t kEntryChunk = 1024;

/// SplitMix64-style avalanche: mixes each key component into the running
/// hash with full 64-bit diffusion (vector hashing via std::hash would
/// need a loop anyway; this keeps the combine explicit and portable).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

/// One hash for owned and borrowed keys, so heterogeneous lookups land in
/// the bucket the owned key was inserted into.
std::size_t hash_key(std::span<const int> window,
                     std::span<const int> multiplicity, int max_stage,
                     double packet_error_rate) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  h = mix(h, static_cast<std::uint64_t>(window.size()));
  for (std::size_t c = 0; c < window.size(); ++c) {
    h = mix(h, static_cast<std::uint64_t>(window[c]));
    h = mix(h, static_cast<std::uint64_t>(multiplicity[c]));
  }
  h = mix(h, static_cast<std::uint64_t>(max_stage));
  std::uint64_t per_bits = 0;
  static_assert(sizeof(per_bits) == sizeof(packet_error_rate));
  __builtin_memcpy(&per_bits, &packet_error_rate, sizeof(per_bits));
  h = mix(h, per_bits);
  return static_cast<std::size_t>(h);
}

}  // namespace

bool NetworkSolveCache::KeyEqual::operator()(const KeyView& a,
                                             const Key& b) const {
  return a.hash == b.hash && a.max_stage == b.max_stage &&
         a.packet_error_rate == b.packet_error_rate &&
         std::ranges::equal(a.window, b.window) &&
         std::ranges::equal(a.multiplicity, b.multiplicity);
}

NetworkSolveCache::KeyView NetworkSolveCache::view_of(
    const ClassGroup& group) {
  const ClassProfile& classes = *group.classes;
  return {classes.window, classes.multiplicity, group.max_stage,
          group.packet_error_rate,
          hash_key(classes.window, classes.multiplicity, group.max_stage,
                   group.packet_error_rate)};
}

NetworkSolveCache::Key NetworkSolveCache::owned(const KeyView& view) {
  return {{view.window.begin(), view.window.end()},
          {view.multiplicity.begin(), view.multiplicity.end()},
          view.max_stage,
          view.packet_error_rate,
          view.hash};
}

NetworkSolveCache::NetworkSolveCache(SolverOptions opts,
                                     std::size_t max_entries)
    : opts_(std::move(opts)), max_entries_(max_entries) {
  // Cached values must be pure functions of the key; a caller-supplied
  // warm start would make them depend on who populated the entry first.
  opts_.initial_tau.clear();
}

void NetworkSolveCache::adopt_classes(std::span<const ClassGroup> groups,
                                      std::span<const TrySolveResult> solved,
                                      std::size_t seen_size,
                                      parallel::ThreadPool* pool) const {
  // Entries for every group the cache had room for, built unlocked.
  std::vector<std::pair<Key, TrySolveResult>> entries(
      std::min(max_entries_ - seen_size, groups.size()));
  parallel::for_each_chunk(
      pool, entries.size(), kEntryChunk,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t m = begin; m < end; ++m) {
          entries[m] = {owned(view_of(groups[m])), solved[m]};
        }
      });
  std::lock_guard<std::mutex> lock(mutex_);
  // Entries are never erased, so an unchanged size means no insert since
  // the lookup, and every group is still absent (always, for a lone caller).
  const bool raced = cache_.size() != seen_size;
  for (std::size_t m = 0; m < groups.size(); ++m) {
    const ClassGroup& group = groups[m];
    if (raced && cache_.contains(view_of(group))) {
      // A writer beat the caller to the key: the loser observes the
      // winner's entry and counts hits — exactly the serial-order tally,
      // so printed stats stay byte-identical at any --jobs (as long as
      // max_entries isn't hit; past it the insertion set becomes
      // schedule-dependent).
      hits_ += group.requests;
      continue;
    }
    ++misses_;
    hits_ += group.requests - 1;
    // Each earlier group took a slot since the lookup, so m < entries.size().
    if (cache_.size() < max_entries_) cache_.insert(std::move(entries[m]));
  }
}

SolveCacheStats NetworkSolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {cache_.size(), hits_, misses_};
}

}  // namespace smac::analytical
