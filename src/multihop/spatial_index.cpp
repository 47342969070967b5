#include "multihop/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

}  // namespace

SpatialIndex::SpatialIndex(std::vector<Vec2> positions, double range_m,
                           parallel::ThreadPool* pool)
    : active_(positions.size(), 1), active_count_(positions.size()),
      pool_(pool) {
  if (!(range_m > 0.0)) {
    throw std::invalid_argument("SpatialIndex: range <= 0");
  }
  validate_positions(positions);
  range_m_ = range_m;
  positions_ = std::move(positions);
  full_build();
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
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] == positions_[i]) continue;
    ++stats.moved;
    if (active_[i] && cell_key(positions[i]) != cell_key(positions_[i])) {
      ++stats.rebucketed;
    }
  }
  stats.rescanned = active_count_;
  positions_ = positions;
  full_build();
  last_update_ = stats;
}

void SpatialIndex::remove_node(std::size_t i) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex::remove_node: node out of range");
  }
  if (!active_[i]) return;
  for (const std::size_t j : neighbors_[i]) erase_sorted(neighbors_[j], i);
  neighbors_[i].clear();
  // An active node sits in its position's bucket: positions only change
  // through update_positions, which rebuilds every bucket.
  const auto it = buckets_.find(cell_key(positions_[i]));
  auto& bucket = it->second;
  bucket.erase(
      std::find(bucket.begin(), bucket.end(), static_cast<std::uint32_t>(i)));
  if (bucket.empty()) buckets_.erase(it);
  active_[i] = 0;
  --active_count_;
}

void SpatialIndex::insert_node(std::size_t i) {
  if (i >= positions_.size()) {
    throw std::out_of_range("SpatialIndex::insert_node: node out of range");
  }
  if (active_[i]) return;
  buckets_[cell_key(positions_[i])].push_back(static_cast<std::uint32_t>(i));
  active_[i] = 1;
  ++active_count_;
  scan(i, neighbors_[i]);
  for (const std::size_t j : neighbors_[i]) insert_sorted(neighbors_[j], i);
}

std::uint64_t SpatialIndex::cell_key(Vec2 p) const noexcept {
  return pack_cell(cell_coord(p.x, range_m_), cell_coord(p.y, range_m_));
}

void SpatialIndex::scan(std::size_t i, std::vector<std::size_t>& out) const {
  const Vec2 p = positions_[i];
  const std::int64_t cx = cell_coord(p.x, range_m_);
  const std::int64_t cy = cell_coord(p.y, range_m_);
  out.clear();
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
}

void SpatialIndex::full_build() {
  const std::size_t n = positions_.size();
  buckets_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!active_[i]) continue;
    buckets_[cell_key(positions_[i])].push_back(static_cast<std::uint32_t>(i));
  }
  neighbors_.resize(n);  // an inactive node's list is already empty
  const auto scan_nodes = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (active_[i]) scan(i, neighbors_[i]);
    }
  };
  parallel::for_each_chunk(pool_, n, kNodeChunk, scan_nodes);
}

void SpatialIndex::validate_positions(const std::vector<Vec2>& positions) {
  if (positions.empty()) throw std::invalid_argument("SpatialIndex: no nodes");
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
