#include "multihop/mobility.hpp"

#include <cmath>
#include <stdexcept>

namespace smac::multihop {

RandomWaypointModel::RandomWaypointModel(MobilityConfig config,
                                         std::size_t node_count)
    : config_(config), rng_(config.seed) {
  if (!(config.width_m > 0.0) || !(config.height_m > 0.0) ||
      !std::isfinite(config.width_m) || !std::isfinite(config.height_m)) {
    throw std::invalid_argument("RandomWaypointModel: area not finite > 0");
  }
  if (!(config.v_min_mps >= 0.0) || !(config.v_max_mps >= config.v_min_mps) ||
      !std::isfinite(config.v_max_mps)) {
    throw std::invalid_argument("RandomWaypointModel: bad speed range");
  }
  if (!(config.pause_s >= 0.0) || !std::isfinite(config.pause_s)) {
    throw std::invalid_argument("RandomWaypointModel: pause not finite >= 0");
  }
  if (node_count == 0) {
    throw std::invalid_argument("RandomWaypointModel: zero nodes");
  }
  nodes_.resize(node_count);
  for (auto& node : nodes_) {
    node.pos = {rng_.uniform_real(0.0, config_.width_m),
                rng_.uniform_real(0.0, config_.height_m)};
    pick_new_leg(node);
  }
}

std::vector<Vec2> RandomWaypointModel::positions() const {
  std::vector<Vec2> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node.pos);
  return out;
}

void RandomWaypointModel::pick_new_leg(NodeState& node) {
  node.waypoint = {rng_.uniform_real(0.0, config_.width_m),
                   rng_.uniform_real(0.0, config_.height_m)};
  node.speed_mps = rng_.uniform_real(config_.v_min_mps, config_.v_max_mps);
  node.pause_left_s = config_.pause_s;
}

void RandomWaypointModel::advance(double dt_s) {
  if (!(dt_s >= 0.0) || !std::isfinite(dt_s)) {
    throw std::invalid_argument("advance: dt not finite and >= 0");
  }
  for (auto& node : nodes_) {
    double remaining = dt_s;
    while (remaining > 0.0) {
      if (node.pause_left_s > 0.0) {
        const double pause = std::min(node.pause_left_s, remaining);
        node.pause_left_s -= pause;
        remaining -= pause;
        continue;
      }
      if (node.speed_mps <= 0.0) {
        // A zero-speed leg would never complete; draw a fresh leg and let
        // the pause (if any) consume time. With v_min = 0 the paper's
        // speed range can legitimately produce one: treat it as "arrived".
        pick_new_leg(node);
        if (node.pause_left_s <= 0.0 && node.speed_mps <= 0.0) {
          // Still immobile and pause-free: nothing can consume time.
          break;
        }
        continue;
      }
      const Vec2 to_wp = node.waypoint - node.pos;
      const double dist = to_wp.norm();
      const double step = node.speed_mps * remaining;
      if (step >= dist) {
        node.pos = node.waypoint;
        remaining -= node.speed_mps > 0.0 ? dist / node.speed_mps : remaining;
        pick_new_leg(node);
      } else {
        node.pos = node.pos + to_wp * (step / dist);
        remaining = 0.0;
      }
    }
  }
}

}  // namespace smac::multihop
