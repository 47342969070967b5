// Asymmetric players: relaxing the paper's g_i = g, e_i = e assumption.
//
// The paper simplifies "to assume that gi and ei are the same for all i"
// (§IV). Real populations are not uniform — a plugged-in laptop prices a
// transmission differently from a coin-cell sensor. This module keeps the
// paper's utility u_i = τ_i((1−p_i)(1−PER)·g_i − e_i)/T_slot, the
// StageGame's at the configured packet error rate, with per-player
// (g_i, e_i) organized into classes, and exposes the objects the
// asymmetric analysis needs:
//
//  * per-player utilities for arbitrary window profiles;
//  * each class's preferred *common* window (TFT still forces a common
//    window, but the classes now disagree about which one — the
//    single-hop analogue of the multi-hop Theorem 3 tension);
//  * the welfare-maximizing common window and the per-class losses at the
//    TFT outcome W_m = min over class preferences;
//  * myopic best-response dynamics (which still collapse, as in the
//    symmetric game).
#pragma once

#include <cstddef>
#include <vector>

#include "phy/parameters.hpp"

namespace smac::game {

/// A group of players sharing utility coefficients.
struct PlayerClass {
  double gain = 1.0;   ///< g_i
  double cost = 0.01;  ///< e_i
  int count = 1;       ///< players in the class
};

class AsymmetricGame {
 public:
  /// Base `params` supply PHY timing and the strategy space; the per-class
  /// (gain, cost) pairs override params.gain/params.cost per player.
  /// Throws std::invalid_argument on no classes, a gain that is not
  /// positive and finite, a cost that is not non-negative and finite, a
  /// class count < 1, or fewer than 2 players.
  AsymmetricGame(phy::Parameters params, phy::AccessMode mode,
                 std::vector<PlayerClass> classes);

  std::size_t player_count() const noexcept { return class_of_.size(); }
  std::size_t class_count() const noexcept { return classes_.size(); }
  const PlayerClass& player_class(std::size_t player) const;
  /// Index of the class player `player` belongs to.
  std::size_t class_index(std::size_t player) const;

  /// Per-player utility rates (gain units per µs) for a window profile.
  /// Throws std::runtime_error when the solve is unusable (kFailed).
  std::vector<double> utility_rates(const std::vector<int>& w) const;

  /// Utility of one member of class `c` when every player uses window w.
  double common_window_utility(std::size_t c, int w) const;

  /// The common window class `c` would pick if it chose for everyone:
  /// argmax_w of common_window_utility(c, w).
  int preferred_common_window(std::size_t c) const;

  /// Common window maximizing Σ_i u_i.
  int welfare_maximizing_common_window() const;

  /// TFT outcome: the minimum over class-preferred windows (each player
  /// seeds its preference; TFT drags everyone to the minimum).
  int tft_outcome_window() const;

  /// Myopic best response of one player against a fixed profile.
  int best_response(const std::vector<int>& w, std::size_t player) const;

  /// Round-robin iterated best response from `start` until no player
  /// moves (a pure NE of the *stage* game) or max_rounds elapses.
  struct BestResponseResult {
    std::vector<int> profile;
    int rounds = 0;
    bool converged = false;
  };
  BestResponseResult iterated_best_response(std::vector<int> start,
                                            int max_rounds = 100) const;

 private:
  phy::Parameters params_;
  phy::AccessMode mode_;
  std::vector<PlayerClass> classes_;
  std::vector<std::size_t> class_of_;  ///< player → class index
};

}  // namespace smac::game
