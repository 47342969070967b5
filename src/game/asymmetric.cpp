#include "game/asymmetric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"
#include "util/optimize.hpp"

namespace smac::game {

AsymmetricGame::AsymmetricGame(phy::Parameters params, phy::AccessMode mode,
                               std::vector<PlayerClass> classes)
    : params_(std::move(params)), mode_(mode), classes_(std::move(classes)) {
  params_.validate();
  if (classes_.empty()) {
    throw std::invalid_argument("AsymmetricGame: no classes");
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const PlayerClass& cls = classes_[c];
    if (!(cls.gain > 0.0) || !std::isfinite(cls.gain)) {
      throw std::invalid_argument(
          "AsymmetricGame: gain must be positive and finite");
    }
    if (!(cls.cost >= 0.0) || !std::isfinite(cls.cost)) {
      throw std::invalid_argument(
          "AsymmetricGame: cost must be non-negative and finite");
    }
    if (cls.count < 1) {
      throw std::invalid_argument("AsymmetricGame: class count < 1");
    }
    for (int k = 0; k < cls.count; ++k) class_of_.push_back(c);
  }
  if (class_of_.size() < 2) {
    throw std::invalid_argument("AsymmetricGame: need at least 2 players");
  }
}

const PlayerClass& AsymmetricGame::player_class(std::size_t player) const {
  return classes_.at(class_of_.at(player));
}

std::size_t AsymmetricGame::class_index(std::size_t player) const {
  return class_of_.at(player);
}

std::vector<double> AsymmetricGame::utility_rates(
    const std::vector<int>& w) const {
  if (w.size() != class_of_.size()) {
    throw std::invalid_argument("AsymmetricGame: profile size mismatch");
  }
  for (const int wi : w) {
    if (wi < 1) throw std::invalid_argument("AsymmetricGame: window < 1");
  }
  const analytical::TrySolveResult solved = analytical::try_solve_network(
      w, params_.max_backoff_stage, {}, params_.packet_error_rate);
  if (!analytical::usable(solved.diagnostics.status)) {
    throw std::runtime_error(
        std::string("AsymmetricGame::utility_rates: solve failed (") +
        solved.diagnostics.method + ")");
  }
  const analytical::NetworkState& state = solved.state;
  const analytical::ChannelMetrics metrics =
      analytical::channel_metrics(state.tau, params_, mode_);
  std::vector<double> u(w.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const PlayerClass& cls = player_class(i);
    u[i] = analytical::utility_rate(state.tau[i], state.p[i], cls.gain,
                                    cls.cost, params_.packet_error_rate,
                                    metrics.t_slot_us);
  }
  return u;
}

double AsymmetricGame::common_window_utility(std::size_t c, int w) const {
  if (c >= classes_.size()) {
    throw std::invalid_argument("AsymmetricGame: class out of range");
  }
  if (w < 1) throw std::invalid_argument("AsymmetricGame: w < 1");
  const analytical::HomogeneousPoint point = analytical::homogeneous_point(
      w, static_cast<int>(player_count()), params_, mode_);
  const PlayerClass& cls = classes_[c];
  return analytical::utility_rate(point.tau, point.p, cls.gain, cls.cost,
                                  params_.packet_error_rate, point.t_slot_us);
}

int AsymmetricGame::preferred_common_window(std::size_t c) const {
  const auto r = util::ternary_int_max(
      [&](std::int64_t w) {
        return common_window_utility(c, static_cast<int>(w));
      },
      1, params_.w_max);
  return static_cast<int>(r.x);
}

int AsymmetricGame::welfare_maximizing_common_window() const {
  const auto r = util::ternary_int_max(
      [&](std::int64_t w) {
        double welfare = 0.0;
        for (std::size_t c = 0; c < classes_.size(); ++c) {
          welfare += classes_[c].count *
                     common_window_utility(c, static_cast<int>(w));
        }
        return welfare;
      },
      1, params_.w_max);
  return static_cast<int>(r.x);
}

int AsymmetricGame::tft_outcome_window() const {
  int w_min = params_.w_max;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    w_min = std::min(w_min, preferred_common_window(c));
  }
  return w_min;
}

int AsymmetricGame::best_response(const std::vector<int>& w,
                                  std::size_t player) const {
  if (player >= class_of_.size()) {
    throw std::invalid_argument("AsymmetricGame: player out of range");
  }
  std::vector<int> profile = w;
  const auto r = util::ternary_int_max(
      [&](std::int64_t candidate) {
        profile[player] = static_cast<int>(candidate);
        return utility_rates(profile)[player];
      },
      1, params_.w_max);
  return static_cast<int>(r.x);
}

AsymmetricGame::BestResponseResult AsymmetricGame::iterated_best_response(
    std::vector<int> start, int max_rounds) const {
  if (start.size() != class_of_.size()) {
    throw std::invalid_argument("AsymmetricGame: start profile size mismatch");
  }
  BestResponseResult result;
  result.profile = std::move(start);
  for (result.rounds = 1; result.rounds <= max_rounds; ++result.rounds) {
    bool moved = false;
    for (std::size_t i = 0; i < result.profile.size(); ++i) {
      const int response = best_response(result.profile, i);
      if (response != result.profile[i]) {
        result.profile[i] = response;
        moved = true;
      }
    }
    if (!moved) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

}  // namespace smac::game
