#include "multihop/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace smac::multihop {
namespace {

// Cell coordinate of a scalar position. Clamped to int32 so the cast from
// double is never UB; positions further than 2^31 cells from the origin
// collapse onto the boundary cell, which only over-approximates the
// stencil (scan() re-checks real distances, so neighbor sets stay exact).
std::int64_t cell_coord(double v, double range_m) noexcept {
  constexpr double kLo = -2147483648.0;
  constexpr double kHi = 2147483647.0;
  return static_cast<std::int64_t>(
      std::clamp(std::floor(v / range_m), kLo, kHi));
}

// Packs (cx, cy) into one 64-bit key. Truncation to 32 bits is modular;
// ±1 stencil offsets can never alias each other under it.
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

void insert_sorted(std::vector<std::size_t>& v, std::size_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

void erase_sorted(std::vector<std::size_t>& v, std::size_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) v.erase(it);
}

// Walks two ascending-sorted id lists, reporting ids only in `before` as
// removed and ids only in `after` as added.
template <class FRemoved, class FAdded>
void diff_sorted(const std::vector<std::size_t>& before,
                 const std::vector<std::size_t>& after, FRemoved on_removed,
                 FAdded on_added) {
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < before.size() && b < after.size()) {
    if (before[a] < after[b]) {
      on_removed(before[a++]);
    } else if (after[b] < before[a]) {
      on_added(after[b++]);
    } else {
      ++a;
      ++b;
    }
  }
  while (a < before.size()) on_removed(before[a++]);
  while (b < after.size()) on_added(after[b++]);
}

}  // namespace

SpatialIndex::SpatialIndex(std::vector<Vec2> positions, double range_m,
                           parallel::ThreadPool* pool)
    : range_m_(range_m), positions_(std::move(positions)),
      active_(positions_.size(), 1), active_count_(positions_.size()),
      moved_scratch_(positions_.size(), 0), pool_(pool) {
  if (!(range_m > 0.0)) {
    throw std::invalid_argument("SpatialIndex: range <= 0");
  }
  validate_positions(positions_);
  std::vector<std::size_t> order(positions_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  full_build(order);
}

SpatialIndex::SpatialIndex(std::vector<Vec2> positions, double range_m,
                           const std::vector<std::uint8_t>& active)
    : range_m_(range_m), positions_(std::move(positions)),
      moved_scratch_(positions_.size(), 0) {
  if (!(range_m > 0.0)) {
    throw std::invalid_argument("SpatialIndex: range <= 0");
  }
  validate_positions(positions_);
  if (active.size() != positions_.size()) {
    throw std::invalid_argument("SpatialIndex: active mask size mismatch");
  }
  active_.resize(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    active_[i] = active[i] ? 1 : 0;
    active_count_ += active_[i];
  }
  std::vector<std::size_t> order(positions_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  full_build(order);
}

SpatialIndex::SpatialIndex(std::vector<Vec2> positions, double range_m,
                           std::span<const std::size_t> build_order)
    : range_m_(range_m), positions_(std::move(positions)),
      active_(positions_.size(), 1), active_count_(positions_.size()),
      moved_scratch_(positions_.size(), 0) {
  if (!(range_m > 0.0)) {
    throw std::invalid_argument("SpatialIndex: range <= 0");
  }
  validate_positions(positions_);
  if (build_order.size() != positions_.size()) {
    throw std::invalid_argument("SpatialIndex: build order size mismatch");
  }
  std::vector<std::uint8_t> seen(positions_.size(), 0);
  for (const std::size_t i : build_order) {
    if (i >= positions_.size() || seen[i]) {
      throw std::invalid_argument("SpatialIndex: build order not a permutation");
    }
    seen[i] = 1;
  }
  full_build(build_order);
}

std::size_t SpatialIndex::edge_count() const noexcept {
  std::size_t twice = 0;
  for (const auto& nb : neighbors_) twice += nb.size();
  return twice / 2;
}

void SpatialIndex::update_positions(const std::vector<Vec2>& positions) {
  if (positions.size() != positions_.size()) {
    throw std::invalid_argument("SpatialIndex: node count changed");
  }
  validate_positions(positions);
  UpdateStats stats;
  std::vector<std::size_t> moved;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (!(positions[i] == positions_[i])) moved.push_back(i);
  }
  stats.moved = moved.size();
  // Phase 1: adopt positions and re-bucket boundary crossers so phase 2's
  // stencil scans see fully current buckets.
  for (const std::size_t m : moved) {
    positions_[m] = positions[m];
    moved_scratch_[m] = 1;
    if (!active_[m]) continue;
    const std::uint64_t key = cell_key(positions_[m]);
    if (key != cell_of_[m]) {
      bucket_remove(cell_of_[m], m);
      bucket_add(key, m);
      cell_of_[m] = key;
      ++stats.rebucketed;
    }
  }
  // Phase 2: every active moved node gets a fresh stencil scan (on the
  // pool: scans only read positions and buckets); then, in mover order,
  // unmoved neighbors are patched in place and moved ones adopt theirs.
  std::vector<std::vector<std::size_t>> scans(moved.size());
  const auto scan_movers = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      if (active_[moved[r]]) scans[r] = scan(moved[r]);
    }
  };
  parallel::for_each_chunk(pool_, moved.size(), kNodeChunk, scan_movers);
  for (std::size_t r = 0; r < moved.size(); ++r) {
    const std::size_t m = moved[r];
    if (!active_[m]) continue;
    std::vector<std::size_t>& fresh = scans[r];
    diff_sorted(
        neighbors_[m], fresh,
        [&](std::size_t j) {
          if (!moved_scratch_[j]) erase_sorted(neighbors_[j], m);
        },
        [&](std::size_t j) {
          if (!moved_scratch_[j]) insert_sorted(neighbors_[j], m);
        });
    neighbors_[m] = std::move(fresh);
    ++stats.rescanned;
  }
  for (const std::size_t m : moved) moved_scratch_[m] = 0;
  last_update_ = stats;
}

void SpatialIndex::move_node(std::size_t i, Vec2 position) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex::move_node: node out of range");
  }
  if (!(std::isfinite(position.x) && std::isfinite(position.y))) {
    throw std::invalid_argument("SpatialIndex: non-finite position");
  }
  UpdateStats stats;
  if (positions_[i] == position) {
    last_update_ = stats;
    return;
  }
  stats.moved = 1;
  positions_[i] = position;
  if (active_[i]) {
    const std::uint64_t key = cell_key(position);
    if (key != cell_of_[i]) {
      bucket_remove(cell_of_[i], i);
      bucket_add(key, i);
      cell_of_[i] = key;
      ++stats.rebucketed;
    }
    std::vector<std::size_t> fresh = scan(i);
    diff_sorted(
        neighbors_[i], fresh,
        [&](std::size_t j) { erase_sorted(neighbors_[j], i); },
        [&](std::size_t j) { insert_sorted(neighbors_[j], i); });
    neighbors_[i] = std::move(fresh);
    stats.rescanned = 1;
  }
  last_update_ = stats;
}

void SpatialIndex::remove_node(std::size_t i) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex::remove_node: node out of range");
  }
  if (!active_[i]) return;
  for (const std::size_t j : neighbors_[i]) erase_sorted(neighbors_[j], i);
  neighbors_[i].clear();
  bucket_remove(cell_of_[i], i);
  active_[i] = 0;
  --active_count_;
}

void SpatialIndex::insert_node(std::size_t i) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex::insert_node: node out of range");
  }
  if (active_[i]) return;
  const std::uint64_t key = cell_key(positions_[i]);
  bucket_add(key, i);
  cell_of_[i] = key;
  active_[i] = 1;
  ++active_count_;
  std::vector<std::size_t> fresh = scan(i);
  for (const std::size_t j : fresh) insert_sorted(neighbors_[j], i);
  neighbors_[i] = std::move(fresh);
}

void SpatialIndex::insert_node(std::size_t i, Vec2 position) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex::insert_node: node out of range");
  }
  if (!(std::isfinite(position.x) && std::isfinite(position.y))) {
    throw std::invalid_argument("SpatialIndex: non-finite position");
  }
  if (active_[i]) {
    move_node(i, position);
    return;
  }
  positions_[i] = position;
  insert_node(i);
}

Topology SpatialIndex::topology() const {
  return Topology(positions_, range_m_, neighbors_);
}

std::vector<std::vector<std::size_t>> SpatialIndex::take_neighbors() && {
  return std::move(neighbors_);
}

std::uint64_t SpatialIndex::cell_key(Vec2 p) const noexcept {
  return pack_cell(cell_coord(p.x, range_m_), cell_coord(p.y, range_m_));
}

void SpatialIndex::bucket_add(std::uint64_t key, std::size_t i) {
  buckets_[key].push_back(static_cast<std::uint32_t>(i));
}

void SpatialIndex::bucket_remove(std::uint64_t key, std::size_t i) {
  const auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  auto& bucket = it->second;
  const auto pos =
      std::find(bucket.begin(), bucket.end(), static_cast<std::uint32_t>(i));
  if (pos != bucket.end()) bucket.erase(pos);
  if (bucket.empty()) buckets_.erase(it);
}

std::vector<std::size_t> SpatialIndex::scan(std::size_t i) const {
  const Vec2 p = positions_[i];
  const std::int64_t cx = cell_coord(p.x, range_m_);
  const std::int64_t cy = cell_coord(p.y, range_m_);
  std::vector<std::size_t> out;
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const auto it = buckets_.find(pack_cell(cx + dx, cy + dy));
      if (it == buckets_.end()) continue;
      for (const std::uint32_t j : it->second) {
        if (j == i) continue;
        if (in_range(p, positions_[j], range_m_)) out.push_back(j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SpatialIndex::full_build(std::span<const std::size_t> build_order) {
  const std::size_t n = positions_.size();
  buckets_.clear();
  cell_of_.assign(n, 0);
  neighbors_.assign(n, {});
  for (const std::size_t i : build_order) {
    if (!active_[i]) continue;
    const std::uint64_t key = cell_key(positions_[i]);
    cell_of_[i] = key;
    bucket_add(key, i);
  }
  const auto scan_nodes = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (active_[i]) neighbors_[i] = scan(i);
    }
  };
  parallel::for_each_chunk(pool_, n, kNodeChunk, scan_nodes);
}

void SpatialIndex::validate_positions(const std::vector<Vec2>& positions) {
  if (positions.size() >=
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument("SpatialIndex: too many nodes");
  }
  for (const Vec2& p : positions) {
    if (!(std::isfinite(p.x) && std::isfinite(p.y))) {
      throw std::invalid_argument("SpatialIndex: non-finite position");
    }
  }
}

}  // namespace smac::multihop
