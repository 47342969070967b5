// The rate-control game (paper §IX future work, contrast with Tan &
// Guttag's "802.11 leads to inefficient equilibria" [7]).
//
// The paper closes by claiming its framework "can be extended to model
// other selfish behaviors such as rate control by redefining the proper
// utility function". This module performs that extension: players fix
// their contention window at the MAC-game NE and instead choose their
// *payload size* L_i. The utility keeps the paper's shape — expected gain
// per unit time —
//
//   u_i = [ q_i · (1 − BER)^{L_i + H_bits} · L_i·g_bit  −  τ·e ] / T_slot
//
// where q_i = τ(1−p) = τ(1−τ)^{n−1} is the per-slot success probability
// (τ and p the homogeneous fixed point at the configured PER; identical
// across players since the window is common), g_bit normalizes the MAC
// game's per-packet gain to bits, and the average slot length now depends
// on everyone's frame length: successes occupy T_s(L_i) of the successful
// sender, collisions occupy the *maximum* frame length among colliders.
//
// Modeling choices (documented deviations):
//  * Collisions are approximated as pairwise — with the small τ of any
//    sane window, P(≥3 transmitters | collision) is second-order. The
//    expected collision cost averages max(L_i, L_j) over all pairs.
//  * Bit errors corrupt a frame independently per bit (rate BER); a
//    corrupted frame spends its full channel time and transmission cost
//    but earns nothing.
//
// With BER = 0 the selfish best response races to the maximum frame size
// (longer frames win a larger share of the shared clock — the Tan-Guttag
// inefficiency); with BER > 0 an interior optimum appears, and the selfish
// NE sits *above* the social optimum because a long frame's collision
// cost is externalized. A TFT convention analogous to the CW game (match
// the most aggressive = longest frame) stabilizes the efficient common
// size.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/parameters.hpp"

namespace smac::game {

struct RateGameConfig {
  phy::Parameters params = phy::Parameters::paper();
  phy::AccessMode mode = phy::AccessMode::kBasic;
  int n = 10;             ///< players
  int w_common = 0;       ///< common CW; 0 = use the MAC game's W_c*
  double bit_error_rate = 0.0;
  double min_payload_bits = 512.0;
  double max_payload_bits = 65536.0;
};

class RateGame {
 public:
  explicit RateGame(RateGameConfig config);

  const RateGameConfig& config() const noexcept { return config_; }
  int common_window() const noexcept { return w_common_; }
  double tau() const noexcept { return tau_; }

  /// Per-node utility rates for a payload-size profile (bits per frame).
  std::vector<double> utility_rates(
      const std::vector<double>& payload_bits) const;

  /// Utility of one node when everyone sends L-bit payloads.
  double homogeneous_utility_rate(double payload_bits) const;

  /// Socially efficient common payload: argmax of the homogeneous utility
  /// over [min_payload_bits, max_payload_bits].
  double efficient_payload() const;

  /// Selfish best response: own payload maximizing own utility against a
  /// fixed profile of the others.
  double best_response(const std::vector<double>& payload_bits,
                       std::size_t self) const;

  /// Symmetric selfish equilibrium: iterates the best response from the
  /// efficient payload until the move is below `tolerance` bits. Captures
  /// the Tan-Guttag gap: equilibrium_payload() >= efficient_payload().
  double equilibrium_payload(double tolerance = 1.0,
                             int max_rounds = 200) const;

 private:
  double slot_average_us(const std::vector<double>& payload_bits) const;
  double frame_success_us(double payload_bits) const;
  double frame_collision_us(double payload_bits) const;

  RateGameConfig config_;
  int w_common_;
  double tau_;       ///< per-node transmission probability at w_common_
  double q_slot_;    ///< τ(1−p): per-node per-slot success prob
  double p_idle_;    ///< (1−τ)(1−p): every node silent
  double gain_per_bit_;
};

}  // namespace smac::game
