#include "analytical/solver_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "analytical/solver_detail.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::analytical {

namespace {

/// Entries built per pool task in adopt_classes: a scheduling unit only.
constexpr std::size_t kEntryChunk = 1024;

/// Slots of a new cache's table. A cache is built per StageGame, so it
/// starts small rather than at max_entries.
constexpr std::size_t kInitialSlots = 16;

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

/// One hash for owned and borrowed keys, so a lookup's probe starts where
/// the owned key's insert started.
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

NetworkSolveCache::Table::Table(std::size_t slot_count)
    : mask(slot_count - 1),
      slots(std::make_unique<std::atomic<const Entry*>[]>(slot_count)) {}

const NetworkSolveCache::Entry* NetworkSolveCache::Table::find(
    const KeyView& view) const {
  for (std::size_t i = view.hash & mask;; i = (i + 1) & mask) {
    const Entry* entry = slots[i].load(std::memory_order_acquire);
    if (entry == nullptr) return nullptr;
    const Key& key = entry->key;
    if (key.hash == view.hash && key.max_stage == view.max_stage &&
        key.packet_error_rate == view.packet_error_rate &&
        std::ranges::equal(key.window, view.window) &&
        std::ranges::equal(key.multiplicity, view.multiplicity)) {
      return entry;
    }
  }
}

void NetworkSolveCache::Table::insert(const Entry* entry) {
  std::size_t i = entry->key.hash & mask;
  while (slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  slots[i].store(entry, std::memory_order_release);
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
    : opts_(opts), max_entries_(max_entries) {
  if (!detail::valid_solver_options(opts_)) {
    throw std::invalid_argument(
        "NetworkSolveCache: invalid SolverOptions (need max_iterations >= 1 "
        "and a finite tolerance > 0)");
  }
  tables_.push_back(std::make_unique<Table>(kInitialSlots));
  table_.store(tables_.back().get(), std::memory_order_relaxed);
}

NetworkSolveCache::~NetworkSolveCache() {
  // The current table holds every entry; the retired ones hold subsets.
  const Table& table = *tables_.back();
  for (std::size_t i = 0; i <= table.mask; ++i) {
    delete table.slots[i].load(std::memory_order_relaxed);
  }
}

void NetworkSolveCache::adopt_classes(std::span<const ClassGroup> groups,
                                      std::span<const TrySolveResult> solved,
                                      std::size_t seen_size,
                                      parallel::ThreadPool* pool) const {
  // Entries for every group the cache had room for, built unlocked.
  std::vector<std::unique_ptr<Entry>> entries(
      std::min(max_entries_ - seen_size, groups.size()));
  parallel::for_each_chunk(
      pool, entries.size(), kEntryChunk,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t m = begin; m < end; ++m) {
          entries[m] =
              std::make_unique<Entry>(owned(view_of(groups[m])), solved[m]);
        }
      });
  std::lock_guard<std::mutex> lock(insert_mutex_);
  // Only writers change the size and the table, and only under this lock.
  std::size_t size = size_.load(std::memory_order_relaxed);
  Table* table = tables_.back().get();
  // Entries are never erased, so an unchanged size means no insert since
  // the lookup, and every group is still absent (always, for a lone caller).
  const bool raced = size != seen_size;
  // Grow once, to fit every entry this call may insert at half load. The
  // new table is filled before it is published: a lookup that loads it
  // must find every entry counted in the size it loaded first.
  const std::size_t fit =
      2 * (size + std::min(max_entries_ - size, groups.size()));
  if (fit > table->mask + 1) {
    auto grown = std::make_unique<Table>(std::bit_ceil(fit));
    for (std::size_t i = 0; i <= table->mask; ++i) {
      const Entry* entry = table->slots[i].load(std::memory_order_relaxed);
      if (entry != nullptr) grown->insert(entry);
    }
    table = grown.get();
    tables_.push_back(std::move(grown));
    table_.store(table, std::memory_order_release);
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t m = 0; m < groups.size(); ++m) {
    const ClassGroup& group = groups[m];
    if (raced && table->find(view_of(group)) != nullptr) {
      // A writer beat the caller to the key: the loser observes the
      // winner's entry and counts hits — exactly the serial-order tally,
      // so printed stats stay byte-identical at any --jobs (as long as
      // max_entries isn't hit; past it the insertion set becomes
      // schedule-dependent).
      hits += group.requests;
      continue;
    }
    ++misses;
    hits += group.requests - 1;
    // Each earlier group took a slot since the lookup, so m < entries.size().
    if (size < max_entries_) {
      table->insert(entries[m].release());
      ++size;
    }
  }
  // Slots before size: a lookup that loads the new size finds them all.
  size_.store(size, std::memory_order_release);
  count(hits, misses);
}

SolveCacheStats NetworkSolveCache::stats() const {
  return {size_.load(std::memory_order_acquire),
          tally_.hits.load(std::memory_order_relaxed),
          tally_.misses.load(std::memory_order_relaxed)};
}

}  // namespace smac::analytical
