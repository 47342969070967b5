#include "game/replicator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace smac::game {

ReplicatorDynamics::ReplicatorDynamics(const Tournament& tournament)
    : tournament_(tournament) {}

namespace {

// Fitness expectation over the Binomial(n−1, share) composition of an
// individual's game, from pre-played mixes (index k = A-seat count).
std::pair<double, double> fitness_from_mixes(
    const std::vector<MixOutcome>& mixes, double share_a) {
  const int n = static_cast<int>(mixes.size()) - 1;
  double fitness_a = 0.0;
  double fitness_b = 0.0;
  for (int draws = 0; draws <= n - 1; ++draws) {
    // Binomial pmf, computed stably enough for n <= ~40.
    double pmf = 1.0;
    for (int i = 0; i < draws; ++i) {
      pmf *= static_cast<double>(n - 1 - i) / (i + 1) * share_a;
    }
    pmf *= std::pow(1.0 - share_a, n - 1 - draws);
    // An A-individual's game has draws + 1 A-seats; a B-individual's has
    // exactly draws A-seats.
    fitness_a += pmf * mixes[static_cast<std::size_t>(draws) + 1].payoff_a;
    fitness_b += pmf * mixes[static_cast<std::size_t>(draws)].payoff_b;
  }
  return {fitness_a, fitness_b};
}

// The composition payoffs do not depend on the share, so one pass of
// n + 1 games serves the whole trajectory.
std::vector<MixOutcome> play_all_mixes(const Tournament& tournament,
                                       const Contender& a,
                                       const Contender& b) {
  const int n = tournament.play_mix(a, b, 0).count_b;
  std::vector<MixOutcome> mixes;
  mixes.reserve(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) {
    mixes.push_back(tournament.play_mix(a, b, k));
  }
  return mixes;
}

}  // namespace

std::pair<double, double> ReplicatorDynamics::expected_fitness(
    const Contender& a, const Contender& b, double share_a) const {
  if (!(share_a >= 0.0 && share_a <= 1.0)) {
    throw std::invalid_argument("expected_fitness: share outside [0,1]");
  }
  return fitness_from_mixes(play_all_mixes(tournament_, a, b), share_a);
}

ReplicatorResult ReplicatorDynamics::run(const Contender& a,
                                         const Contender& b,
                                         double initial_share_a,
                                         int generations, double tolerance,
                                         double floor) const {
  if (!(initial_share_a >= 0.0 && initial_share_a <= 1.0)) {
    throw std::invalid_argument("ReplicatorDynamics: share outside [0,1]");
  }
  if (!(floor >= 0.0 && floor < 0.5)) {
    throw std::invalid_argument("ReplicatorDynamics: floor outside [0,0.5)");
  }
  if (generations < 1) {
    throw std::invalid_argument("ReplicatorDynamics: generations < 1");
  }
  ReplicatorResult result;
  const std::vector<MixOutcome> mixes = play_all_mixes(tournament_, a, b);
  double share = std::clamp(initial_share_a, floor, 1.0 - floor);
  for (int g = 0; g < generations; ++g) {
    const auto [fa, fb] = fitness_from_mixes(mixes, share);
    result.trajectory.push_back({share, fa, fb});
    // Shift fitnesses so both are positive (replicator needs a ratio).
    const double shift = std::min({fa, fb, 0.0});
    const double ga = fa - shift + 1e-12;
    const double gb = fb - shift + 1e-12;
    const double next = std::clamp(
        share * ga / (share * ga + (1.0 - share) * gb), floor, 1.0 - floor);
    if (std::abs(next - share) < tolerance) {
      share = next;
      result.converged = true;
      result.trajectory.push_back({share, fa, fb});
      break;
    }
    share = next;
  }
  result.final_share_a = share;
  return result;
}

}  // namespace smac::game
