#include "analytical/solver_cache.hpp"

#include <algorithm>

namespace smac::analytical {

namespace {

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
    const ClassProfile& classes, int max_stage, double packet_error_rate) {
  return {classes.window, classes.multiplicity, max_stage, packet_error_rate,
          hash_key(classes.window, classes.multiplicity, max_stage,
                   packet_error_rate)};
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

std::vector<std::size_t> NetworkSolveCache::lookup_classes(
    std::span<const ClassGroup> groups,
    std::span<TrySolveResult> found) const {
  std::vector<std::size_t> missed;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const ClassGroup& group = groups[g];
    if (const auto it = cache_.find(view_of(*group.classes, group.max_stage,
                                            group.packet_error_rate));
        it != cache_.end()) {
      hits_ += group.requests;
      found[g] = it->second;
    } else {
      missed.push_back(g);
    }
  }
  return missed;
}

void NetworkSolveCache::adopt_classes(
    std::span<const ClassGroup> groups,
    std::span<const TrySolveResult> solved) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t m = 0; m < groups.size(); ++m) {
    const ClassGroup& group = groups[m];
    const KeyView key = view_of(*group.classes, group.max_stage,
                                group.packet_error_rate);
    if (cache_.contains(key)) {
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
    if (cache_.size() < max_entries_) {
      cache_.emplace(owned(key), solved[m]);
    }
  }
}

void NetworkSolveCache::tally(std::uint64_t hits, std::uint64_t misses) const {
  std::lock_guard<std::mutex> lock(mutex_);
  hits_ += hits;
  misses_ += misses;
}

SolveCacheStats NetworkSolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {cache_.size(), hits_, misses_};
}

}  // namespace smac::analytical
