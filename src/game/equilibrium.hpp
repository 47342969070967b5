// Nash-equilibrium computation and refinement for the MAC game (paper §V).
//
// Under TFT all players converge to a common window W_c; Theorem 2 shows
// every common profile with W_c ∈ [W_c0, W_c*] is a NE, where W_c* is the
// stage-utility maximizer and W_c0 the smallest window with positive
// payoff. Refinement by social-welfare maximization / Pareto optimality
// (§V.B) singles out (W_c*, …, W_c*) as the unique efficient NE: every
// symmetric NE is fair, and W_c* = efficient_cw() maximizes the common
// payoff, so the refinement needs no computation of its own.
#pragma once

#include <optional>
#include <vector>

#include "game/stage_game.hpp"

namespace smac::game {

/// The interval of symmetric Nash equilibria established by Theorem 2.
struct NashSet {
  int w_min_viable = 0;  ///< W_c0: smallest window with u(W_c0) > 0
  int w_efficient = 0;   ///< W_c*: stage-utility maximizer
  double u_efficient = 0.0;  ///< stage utility at W_c*
  int count() const noexcept { return w_efficient - w_min_viable + 1; }
  bool contains(int w) const noexcept {
    return w >= w_min_viable && w <= w_efficient;
  }
};

/// Computes W_c*, W_c0 and the NE interval for an n-player homogeneous
/// game.
class EquilibriumFinder {
 public:
  /// `game` is captured by reference and must outlive the finder.
  EquilibriumFinder(const StageGame& game, int n);

  int player_count() const noexcept { return n_; }

  /// W_c*: exact discrete argmax of the homogeneous stage utility over
  /// [1, w_max] (unimodal per Lemma 2/3; located by ternary search and
  /// verified by local hill conditions). Nothing is kept between calls: a
  /// repeated search is a run of StageGame memo hits.
  int efficient_cw() const;

  /// W_c0: smallest window with strictly positive utility; nullopt when
  /// even w_max yields non-positive payoff (network not viable).
  std::optional<int> minimum_viable_cw() const;

  /// Full NE interval; throws std::runtime_error when not viable.
  NashSet nash_set() const;

  /// Theorem 2 membership test.
  bool is_nash(int w) const;

  /// Continuous benchmark values from Lemma 3 (Q-root).
  std::optional<double> tau_star_continuous() const;
  std::optional<double> w_star_continuous() const;

 private:
  const StageGame& game_;
  int n_;
};

}  // namespace smac::game
