#include "game/deviation.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

namespace smac::game {

DeviationStagePayoffs deviation_stage_payoffs(const StageGame& game, int n,
                                              int w_base, int w_dev) {
  if (n < 2) throw std::invalid_argument("deviation_stage_payoffs: n < 2");
  std::vector<int> profile(static_cast<std::size_t>(n), w_base);
  profile[0] = w_dev;
  const std::vector<double> u = game.stage_utilities(profile);

  DeviationStagePayoffs out;
  out.deviator = u[0];
  out.conformer = u[1];
  out.symmetric = game.homogeneous_stage_utility(w_base, n);
  return out;
}

ShortSightedOutcome shortsighted_outcome(const StageGame& game, int n,
                                         int w_coop, int w_s, double delta_s,
                                         int reaction_stages) {
  if (!(delta_s >= 0.0) || !(delta_s < 1.0)) {
    throw std::invalid_argument("shortsighted_outcome: delta_s outside [0,1)");
  }
  if (reaction_stages < 1) {
    throw std::invalid_argument("shortsighted_outcome: reaction_stages < 1");
  }
  const DeviationStagePayoffs dev =
      deviation_stage_payoffs(game, n, w_coop, w_s);
  const double u_all_ws = game.homogeneous_stage_utility(w_s, n);
  const double dm = std::pow(delta_s, reaction_stages);

  ShortSightedOutcome out;
  out.u_deviate = ((1.0 - dm) * dev.deviator + dm * u_all_ws) / (1.0 - delta_s);
  out.u_conform = dev.symmetric / (1.0 - delta_s);
  out.gain = out.u_deviate - out.u_conform;
  out.profitable = out.gain > 0.0;
  return out;
}

BestDeviation best_shortsighted_deviation(const StageGame& game, int n,
                                          int w_coop, double delta_s,
                                          int reaction_stages) {
  if (!(delta_s >= 0.0) || !(delta_s < 1.0)) {
    throw std::invalid_argument("shortsighted_outcome: delta_s outside [0,1)");
  }
  if (reaction_stages < 1) {
    throw std::invalid_argument("shortsighted_outcome: reaction_stages < 1");
  }
  if (n < 2) throw std::invalid_argument("deviation_stage_payoffs: n < 2");

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
  const double dm = std::pow(delta_s, reaction_stages);
  BestDeviation best;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const int w = candidates[idx];
    // Unusable solves fall back to the sequential path, which (like
    // stage_utilities) evaluates utilities from the sanitized state
    // regardless of status — a cache hit after the batch.
    const double deviator =
        analytical::usable(payoffs[idx].diagnostics.status)
            ? payoffs[idx].utilities[0]
            : game.stage_utilities(profiles[idx])[0];
    const double u_all_ws = game.homogeneous_stage_utility(w, n);

    ShortSightedOutcome o;
    o.u_deviate = ((1.0 - dm) * deviator + dm * u_all_ws) / (1.0 - delta_s);
    o.u_conform = symmetric / (1.0 - delta_s);
    o.gain = o.u_deviate - o.u_conform;
    o.profitable = o.gain > 0.0;
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
  // Utility sign is monotone in w (p decreases with w): find the largest
  // w with u(w) <= 0 by binary search.
  const int w_max = game.params().w_max;
  auto non_positive = [&](int w) {
    return game.homogeneous_utility_rate(w, n) <= 0.0;
  };
  if (!non_positive(1)) return std::nullopt;
  if (non_positive(w_max)) return w_max;
  int lo = 1;      // u(lo) <= 0
  int hi = w_max;  // u(hi) > 0
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (non_positive(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace smac::game
