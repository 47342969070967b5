#include "game/deviation.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "game/equilibrium.hpp"

namespace smac::game {

namespace {

void throw_if_unusable(const StageGame::StagePayoffs& payoffs,
                       const char* who) {
  if (!analytical::usable(payoffs.diagnostics.status)) {
    throw std::runtime_error(std::string(who) + ": stage solve failed (" +
                             payoffs.diagnostics.method + ")");
  }
}

void check_shortsighted_args(double delta_s, int reaction_stages) {
  if (!(delta_s >= 0.0) || !(delta_s < 1.0)) {
    throw std::invalid_argument("shortsighted_outcome: delta_s outside [0,1)");
  }
  if (reaction_stages < 1) {
    throw std::invalid_argument("shortsighted_outcome: reaction_stages < 1");
  }
}

/// The §V.D discounted sums from the deviator's lag-stage payoff, the
/// all-w_s stage payoff and the conforming (symmetric) stage payoff.
ShortSightedOutcome outcome_of(double deviator, double u_all_ws,
                               double symmetric, double delta_s,
                               int reaction_stages) {
  const double dm = std::pow(delta_s, reaction_stages);
  ShortSightedOutcome out;
  out.u_deviate = ((1.0 - dm) * deviator + dm * u_all_ws) / (1.0 - delta_s);
  out.u_conform = symmetric / (1.0 - delta_s);
  out.gain = out.u_deviate - out.u_conform;
  out.profitable = out.gain > 0.0;
  return out;
}

}  // namespace

DeviationStagePayoffs deviation_stage_payoffs(const StageGame& game, int n,
                                              int w_base, int w_dev) {
  if (n < 2) throw std::invalid_argument("deviation_stage_payoffs: n < 2");
  if (w_base < 1 || w_dev < 1) {
    throw std::invalid_argument("deviation_stage_payoffs: window < 1");
  }
  std::vector<int> profile(static_cast<std::size_t>(n), w_base);
  profile[0] = w_dev;
  const StageGame::StagePayoffs u = game.try_stage_utilities(profile);
  throw_if_unusable(u, "deviation_stage_payoffs");

  DeviationStagePayoffs out;
  out.deviator = u.utilities[0];
  out.conformer = u.utilities[1];
  out.symmetric = game.homogeneous_stage_utility(w_base, n);
  return out;
}

ShortSightedOutcome shortsighted_outcome(const StageGame& game, int n,
                                         int w_coop, int w_s, double delta_s,
                                         int reaction_stages) {
  check_shortsighted_args(delta_s, reaction_stages);
  const DeviationStagePayoffs dev =
      deviation_stage_payoffs(game, n, w_coop, w_s);
  return outcome_of(dev.deviator, game.homogeneous_stage_utility(w_s, n),
                    dev.symmetric, delta_s, reaction_stages);
}

BestDeviation best_shortsighted_deviation(const StageGame& game, int n,
                                          int w_coop, double delta_s,
                                          int reaction_stages) {
  check_shortsighted_args(delta_s, reaction_stages);
  if (n < 2) throw std::invalid_argument("deviation_stage_payoffs: n < 2");
  if (w_coop < 1) {
    throw std::invalid_argument("best_shortsighted_deviation: w_coop < 1");
  }

  // The objective is not guaranteed unimodal across the whole range for
  // every δ_s, and w_coop is small enough that an exhaustive scan is
  // cheap. Every candidate's one-deviant profile is known upfront, so the
  // scan prices them in one solver batch (w_coop itself first — the
  // conforming baseline) instead of solving inline per candidate.
  std::vector<int> candidates;
  candidates.reserve(static_cast<std::size_t>(w_coop));
  candidates.push_back(w_coop);
  for (int w = 1; w < w_coop; ++w) candidates.push_back(w);

  std::vector<std::vector<int>> profiles;
  profiles.reserve(candidates.size());
  for (const int w : candidates) {
    std::vector<int> profile(static_cast<std::size_t>(n), w_coop);
    profile[0] = w;
    profiles.push_back(std::move(profile));
  }
  const std::vector<StageGame::StagePayoffs> payoffs =
      game.try_stage_utilities_batch(profiles);

  const double symmetric = game.homogeneous_stage_utility(w_coop, n);
  BestDeviation best;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const int w = candidates[idx];
    throw_if_unusable(payoffs[idx], "best_shortsighted_deviation");
    const ShortSightedOutcome o =
        outcome_of(payoffs[idx].utilities[0],
                   game.homogeneous_stage_utility(w, n), symmetric, delta_s,
                   reaction_stages);
    if (idx == 0 || o.u_deviate > best.outcome.u_deviate) {
      best.outcome = o;
      best.w_s = w;
    }
  }
  return best;
}

double critical_discount(const StageGame& game, int n, int w_coop, int w_s,
                         int reaction_stages) {
  if (reaction_stages < 1) {
    throw std::invalid_argument("critical_discount: reaction_stages < 1");
  }
  const DeviationStagePayoffs dev =
      deviation_stage_payoffs(game, n, w_coop, w_s);
  const double u_all_ws = game.homogeneous_stage_utility(w_s, n);
  if (dev.deviator <= dev.symmetric) return 0.0;   // never pays
  if (u_all_ws >= dev.symmetric) return 1.0;       // always pays
  const double ratio =
      (dev.deviator - dev.symmetric) / (dev.deviator - u_all_ws);
  return std::pow(ratio, 1.0 / static_cast<double>(reaction_stages));
}

double malicious_welfare_ratio(const StageGame& game, int n, int w_coop,
                               int w_mal) {
  const double w_ref = game.social_welfare(w_coop, n);
  if (w_ref == 0.0) {
    throw std::runtime_error("malicious_welfare_ratio: zero reference welfare");
  }
  return game.social_welfare(w_mal, n) / w_ref;
}

std::optional<int> paralysis_threshold(const StageGame& game, int n) {
  // Utility sign is monotone in w (p decreases with w), so the largest
  // w with u(w) <= 0 sits just below W_c0, the smallest with u(w) > 0.
  const std::optional<int> w0 = EquilibriumFinder(game, n).minimum_viable_cw();
  if (!w0) return game.params().w_max;
  if (*w0 == 1) return std::nullopt;
  return *w0 - 1;
}

}  // namespace smac::game
