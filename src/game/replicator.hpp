// Evolutionary (replicator) dynamics over strategy populations.
//
// The tournament answers "can one mutant invade?"; replicator dynamics
// answer the population question: starting from a mixed population of two
// strategies, which share grows? Each generation, every individual plays
// one n-player repeated MAC game with opponents drawn from the current
// population; its fitness is the expected discounted utility over the
// binomially distributed composition of its game. Shares then update by
// the discrete replicator rule
//
//   x' = x·f_A / (x·f_A + (1−x)·f_B)
//
// (fitnesses are shifted to be positive when payoffs can be negative).
// Because fitness only depends on the game composition, the expectation
// is exact: n mixes per generation, each played once and cached.
#pragma once

#include <vector>

#include "game/tournament.hpp"

namespace smac::game {

struct ReplicatorStep {
  double share_a = 0.0;      ///< population share of strategy A
  double fitness_a = 0.0;    ///< expected payoff of an A-individual
  double fitness_b = 0.0;
};

struct ReplicatorResult {
  std::vector<ReplicatorStep> trajectory;  ///< per generation, incl. start
  double final_share_a = 0.0;
  bool converged = false;  ///< share moved less than tolerance at the end
};

class ReplicatorDynamics {
 public:
  /// `tournament` supplies the per-mix payoffs (and must outlive this
  /// object). Game size n and horizon come from the tournament.
  explicit ReplicatorDynamics(const Tournament& tournament);

  /// Expected payoff of one A-individual and one B-individual when the
  /// population share of A is `share_a`: averages the cached mix payoffs
  /// over the Binomial(n−1, share_a) composition of the other seats.
  /// Throws std::invalid_argument unless share_a is in [0, 1] (NaN throws).
  std::pair<double, double> expected_fitness(const Contender& a,
                                             const Contender& b,
                                             double share_a) const;

  /// Iterates the replicator map from `initial_share_a` for up to
  /// `generations`, stopping early when the share moves less than
  /// `tolerance`. Shares are clamped to [floor, 1−floor] so extinction
  /// is asymptotic, not an artifact of finite arithmetic. Throws
  /// std::invalid_argument unless initial_share_a is in [0, 1], floor in
  /// [0, 0.5) (NaN throws for both) and generations >= 1.
  ReplicatorResult run(const Contender& a, const Contender& b,
                       double initial_share_a, int generations = 60,
                       double tolerance = 1e-6,
                       double floor = 1e-6) const;

 private:
  const Tournament& tournament_;
};

}  // namespace smac::game
