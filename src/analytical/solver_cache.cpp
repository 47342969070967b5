#include "analytical/solver_cache.hpp"

#include <algorithm>
#include <cstdlib>

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

bool valid_solve_inputs(const std::vector<int>& w, int max_stage,
                        double per) {
  const bool windows_valid =
      std::all_of(w.begin(), w.end(), [](int wi) { return wi >= 1; });
  return !w.empty() && windows_valid && max_stage >= 0 && per >= 0.0 &&
         per < 1.0;
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

TrySolveResult NetworkSolveCache::solve(const std::vector<int>& w,
                                        int max_stage,
                                        double packet_error_rate) const {
  if (!valid_solve_inputs(w, max_stage, packet_error_rate)) {
    // Invalid inputs are not worth an entry: report the miss and return
    // the same kFailed/"invalid" result try_solve_network produces.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++misses_;
    }
    return try_solve_network(w, max_stage, opts_, packet_error_rate);
  }

  ClassProfile classes = classify_profile(w);
  const KeyView key = view_of(classes, max_stage, packet_error_rate);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++hits_;
      TrySolveResult out;
      out.state = expand_classes(it->second.state, classes);
      out.diagnostics = it->second.diagnostics;
      return out;
    }
  }
  // Solve outside the lock: concurrent misses on the same key may both
  // compute, but the class solve is deterministic (canonical start, no
  // warm hints) so they agree bitwise and insert order cannot matter.
  TrySolveResult collapsed =
      try_solve_classes(classes, max_stage, opts_, packet_error_rate);
  TrySolveResult out;
  out.state = expand_classes(collapsed.state, classes);
  out.diagnostics = collapsed.diagnostics;
  std::lock_guard<std::mutex> lock(mutex_);
  // Hit/miss is classified here, not at lookup: when two workers race on
  // the same fresh key, the loser observes the winner's entry and counts
  // a hit — exactly the serial-order tally, so the stats a bench prints
  // stay byte-identical at any --jobs (as long as max_entries isn't hit;
  // past capacity the insertion set becomes schedule-dependent).
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
  } else {
    ++misses_;
    if (cache_.size() < max_entries_) {
      cache_.emplace(owned(key), std::move(collapsed));
    }
  }
  return out;
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
      // A writer beat the caller to the key: same loser-observes-winner
      // accounting as solve().
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

std::optional<std::vector<double>> NetworkSolveCache::neighbor_hint(
    const ClassProfile& classes, int max_stage,
    double packet_error_rate) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Key* best_key = nullptr;
  const TrySolveResult* best_value = nullptr;
  long long best_distance = 0;
  for (const auto& [key, value] : cache_) {
    if (key.max_stage != max_stage ||
        key.packet_error_rate != packet_error_rate ||
        key.multiplicity != classes.multiplicity ||
        !usable(value.diagnostics.status)) {
      continue;
    }
    long long distance = 0;
    for (std::size_t c = 0; c < key.window.size(); ++c) {
      distance += std::abs(static_cast<long long>(key.window[c]) -
                           static_cast<long long>(classes.window[c]));
    }
    if (distance == 0) continue;  // exact key: that is a hit, not a hint
    if (best_key == nullptr || distance < best_distance ||
        (distance == best_distance && key.window < best_key->window)) {
      best_key = &key;
      best_value = &value;
      best_distance = distance;
    }
  }
  if (best_value == nullptr) return std::nullopt;
  return best_value->state.tau;
}

std::size_t NetworkSolveCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

std::uint64_t NetworkSolveCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t NetworkSolveCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

SolveCacheStats NetworkSolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {cache_.size(), hits_, misses_};
}

void NetworkSolveCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace smac::analytical
