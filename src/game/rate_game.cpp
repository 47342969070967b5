#include "game/rate_game.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analytical/throughput.hpp"
#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"
#include "util/optimize.hpp"

namespace smac::game {

RateGame::RateGame(RateGameConfig config) : config_(std::move(config)) {
  config_.params.validate();
  if (config_.n < 2) throw std::invalid_argument("RateGame: n < 2");
  if (!(config_.bit_error_rate >= 0.0) || !(config_.bit_error_rate < 1.0)) {
    throw std::invalid_argument("RateGame: bit_error_rate outside [0,1)");
  }
  if (!(config_.min_payload_bits > 0.0) ||
      !(config_.max_payload_bits >= config_.min_payload_bits) ||
      !std::isfinite(config_.max_payload_bits)) {
    throw std::invalid_argument("RateGame: bad payload range");
  }
  if (config_.w_common < 0) throw std::invalid_argument("RateGame: w_common < 0");

  if (config_.w_common == 0) {
    const StageGame mac_game(config_.params, config_.mode);
    const EquilibriumFinder finder(mac_game, config_.n);
    w_common_ = finder.efficient_cw();
  } else {
    w_common_ = config_.w_common;
  }

  // The one homogeneous price at the configured PER: (τ, p) of the class
  // solve's k = 1 state.
  const analytical::HomogeneousPoint point = analytical::homogeneous_point(
      w_common_, config_.n, config_.params, config_.mode);
  tau_ = point.tau;
  q_slot_ = tau_ * (1.0 - point.p);
  p_idle_ = (1.0 - tau_) * (1.0 - point.p);
  gain_per_bit_ = config_.params.gain / config_.params.payload_bits;
}

double RateGame::frame_success_us(double payload_bits) const {
  const phy::Parameters& p = config_.params;
  const double h = p.header_us();
  const double data = p.airtime_us(payload_bits);
  switch (config_.mode) {
    case phy::AccessMode::kBasic:
      return h + data + p.sifs_us + p.ack_us() + p.difs_us;
    case phy::AccessMode::kRtsCts:
      return p.rts_us() + p.sifs_us + p.cts_us() + p.sifs_us + h + data +
             p.sifs_us + p.ack_us() + p.difs_us;
  }
  return 0.0;
}

double RateGame::frame_collision_us(double payload_bits) const {
  const phy::Parameters& p = config_.params;
  switch (config_.mode) {
    case phy::AccessMode::kBasic:
      return p.header_us() + p.airtime_us(payload_bits) + p.sifs_us;
    case phy::AccessMode::kRtsCts:
      // RTS/CTS collisions never carry data: length-independent.
      return p.rts_us() + p.difs_us;
  }
  return 0.0;
}

double RateGame::slot_average_us(const std::vector<double>& payload_bits) const {
  const std::size_t n = payload_bits.size();
  const phy::Parameters& p = config_.params;

  // Successes: each node succeeds with the same slot probability q_slot_,
  // occupying its own frame time.
  double success_us = 0.0;
  for (double bits : payload_bits) {
    success_us += q_slot_ * frame_success_us(bits);
  }

  // Collisions: pairwise approximation. P(exactly {i,j} transmit) is equal
  // across pairs; the slot lasts as long as the longer frame.
  const double p_success_total = static_cast<double>(n) * q_slot_;
  const double p_collision = std::max(0.0, 1.0 - p_idle_ - p_success_total);
  double pair_mean_us = 0.0;
  if (n >= 2) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        acc += frame_collision_us(std::max(payload_bits[i], payload_bits[j]));
      }
    }
    pair_mean_us = acc / (static_cast<double>(n) * (n - 1) / 2.0);
  }
  return p_idle_ * p.sigma_us + success_us + p_collision * pair_mean_us;
}

std::vector<double> RateGame::utility_rates(
    const std::vector<double>& payload_bits) const {
  if (payload_bits.size() != static_cast<std::size_t>(config_.n)) {
    throw std::invalid_argument("RateGame: profile size != n");
  }
  for (double bits : payload_bits) {
    if (!(bits >= config_.min_payload_bits) ||
        !(bits <= config_.max_payload_bits)) {
      throw std::invalid_argument("RateGame: payload outside configured range");
    }
  }
  const double t_slot = slot_average_us(payload_bits);
  const double header_bits =
      config_.params.phy_header_bits + config_.params.mac_header_bits;

  std::vector<double> u(payload_bits.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double ok = std::pow(1.0 - config_.bit_error_rate,
                               payload_bits[i] + header_bits);
    u[i] = (q_slot_ * ok * payload_bits[i] * gain_per_bit_ -
            tau_ * config_.params.cost) /
           t_slot;
  }
  return u;
}

double RateGame::homogeneous_utility_rate(double payload_bits) const {
  return utility_rates(std::vector<double>(
      static_cast<std::size_t>(config_.n), payload_bits))[0];
}

double RateGame::efficient_payload() const {
  const auto r = util::golden_section_max(
      [&](double bits) { return homogeneous_utility_rate(bits); },
      config_.min_payload_bits, config_.max_payload_bits, 1e-3);
  return r.x;
}

double RateGame::best_response(const std::vector<double>& payload_bits,
                               std::size_t self) const {
  if (self >= payload_bits.size()) {
    throw std::invalid_argument("RateGame: self out of range");
  }
  std::vector<double> profile = payload_bits;
  const auto r = util::golden_section_max(
      [&](double bits) {
        profile[self] = bits;
        return utility_rates(profile)[self];
      },
      config_.min_payload_bits, config_.max_payload_bits, 1e-3);
  return r.x;
}

double RateGame::equilibrium_payload(double tolerance, int max_rounds) const {
  // Symmetric fixed point of the best response, seeded at the social
  // optimum; with a common window all players share one best response, so
  // iterating the symmetric profile converges to the symmetric NE.
  double current = efficient_payload();
  std::vector<double> profile(static_cast<std::size_t>(config_.n), current);
  for (int round = 0; round < max_rounds; ++round) {
    const double response = best_response(profile, 0);
    const double step = std::abs(response - current);
    current = response;
    std::fill(profile.begin(), profile.end(), current);
    if (step <= tolerance) break;
  }
  return current;
}

}  // namespace smac::game
