// Deviation analyses: Lemma 4, short-sighted players (§V.D) and malicious
// players (§V.E).
#pragma once

#include <optional>
#include <vector>

#include "game/stage_game.hpp"

namespace smac::game {

/// Stage payoffs when one player deviates from a homogeneous profile:
/// everyone plays w_base except the deviator on w_dev (Lemma 4 setting).
struct DeviationStagePayoffs {
  double deviator = 0.0;    ///< U_i^s under the deviation profile
  double conformer = 0.0;   ///< U_j^s of any player sticking to w_base
  double symmetric = 0.0;   ///< U^s when *everyone* plays w_base
};

/// Computes the Lemma 4 triple for an n-player game. Throws
/// std::runtime_error when the deviation profile's solve fails (kFailed).
DeviationStagePayoffs deviation_stage_payoffs(const StageGame& game, int n,
                                              int w_base, int w_dev);

/// §V.D short-sighted deviation outcome. The deviator s plays w_s for the
/// first `reaction_stages` stages while everyone else is still on w_coop
/// (TFT reaction lag m >= 1); afterwards all players sit on w_s forever.
/// Payoffs are discounted with the deviator's own δ_s:
///
///   U_s = [(1 − δ_s^m)·U_s^s(dev) + δ_s^m·U_s^s(all w_s)] / (1 − δ_s)
///   U_s0 = U^s(all w_coop) / (1 − δ_s)
struct ShortSightedOutcome {
  double u_deviate = 0.0;  ///< U_s when deviating to w_s
  double u_conform = 0.0;  ///< U_s0 when staying at w_coop
  double gain = 0.0;       ///< u_deviate − u_conform
  bool profitable = false;
};

ShortSightedOutcome shortsighted_outcome(const StageGame& game, int n,
                                         int w_coop, int w_s, double delta_s,
                                         int reaction_stages);

/// Best deviation window for a short-sighted player: maximizes u_deviate
/// over w_s ∈ [1, w_coop]. Throws std::runtime_error when a candidate's
/// solve fails.
struct BestDeviation {
  int w_s = 0;
  ShortSightedOutcome outcome;
};

BestDeviation best_shortsighted_deviation(const StageGame& game, int n,
                                          int w_coop, double delta_s,
                                          int reaction_stages);

/// Discount factor below which deviating from w_coop to w_s is profitable.
/// Closed form: the §V.D gain is positive iff δ_s^m < (U_dev − U_sym) /
/// (U_dev − U_all_ws), so δ* = ratio^{1/m} (clamped to [0, 1]). Returns 0
/// when the deviation never pays (U_dev <= U_sym) and 1 when it always
/// pays (U_all_ws >= U_sym, i.e. w_s is itself a better symmetric point —
/// only happens when w_coop ≠ W_c*).
///
/// Note: maximizing over *all* w_s drives δ* → 1 through marginal
/// deviations (w_s = w_coop − 1 costs almost nothing after retaliation
/// because the utility peak is flat — those neighbors are themselves NE
/// per Theorem 2), so the threshold is only meaningful per deviation
/// window.
double critical_discount(const StageGame& game, int n, int w_coop, int w_s,
                         int reaction_stages);

/// §V.E malicious impact: social welfare after TFT drags every player down
/// to the attacker's window w_mal, as a fraction of the welfare at w_coop.
/// < 0 means the attacker paralyzed the network (negative payoffs).
double malicious_welfare_ratio(const StageGame& game, int n, int w_coop,
                               int w_mal);

/// Largest attack window that already drives the stage utility negative
/// (network paralysis, §V.E); nullopt when even w = 1 keeps utility
/// positive.
std::optional<int> paralysis_threshold(const StageGame& game, int n);

}  // namespace smac::game
