// Sim-driven repeated game: strategies adapt their contention window stage
// by stage while payoffs are *measured* on the slot-level simulator
// instead of computed from the analytical model.
//
// This is the paper's actual operating regime: each stage lasts T seconds,
// nodes observe opponents' windows (promiscuous-mode measurement, assumed
// perfect as in the paper) and realized payoffs are (n_s·g − n_e·e) over
// the stage. Comparing trajectories of this runtime against
// game::RepeatedGameEngine validates the analytical model end to end.
//
// After every stage the runtime refreshes two feeds from the stage's
// observable counters, each node's window estimate (sim/cw_estimator.hpp)
// and misbehavior flag (sim/misbehavior_detector.hpp), for the strategies
// that act on measurements instead of the configured windows.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "game/strategies.hpp"
#include "sim/simulator.hpp"

namespace smac::sim {

struct AdaptiveResult : game::Convergence {
  game::History history;                   ///< per stage: profile + measured payoffs
  std::vector<double> discounted_utility;  ///< Σ_k δ^k·U_i^s
  std::vector<double> total_utility;
  /// The estimate feed after each stage: every node's Ŵ.
  std::vector<std::vector<double>> estimates_per_stage;  ///< [stage][node]
  /// The flag feed after each stage.
  std::vector<std::vector<bool>> flags_per_stage;        ///< [stage][node]
};

class AdaptiveRuntime {
 public:
  /// Per-node window estimates Ŵ of the last stage played (empty before).
  using EstimateFeed = std::shared_ptr<const std::vector<double>>;
  /// Per-node flags of the last stage played (empty before): node j is
  /// flagged when its attempt rate significantly exceeds compliance with
  /// the *modal* window of that stage's profile (the de-facto agreement).
  using FlagFeed = std::shared_ptr<const std::vector<bool>>;
  /// `make_strategy(i, estimates, flags)` builds node i's strategy around
  /// the runtime's feeds (both refreshed every stage before strategies
  /// decide).
  using StrategyFactory = std::function<std::unique_ptr<game::Strategy>(
      std::size_t, EstimateFeed, FlagFeed)>;

  /// One strategy per node. Stage duration defaults to the parameter set's
  /// T; shorten it in tests to trade accuracy for speed. It must be finite
  /// and > 0.
  AdaptiveRuntime(SimConfig config,
                  std::vector<std::unique_ptr<game::Strategy>> strategies,
                  std::optional<double> stage_duration_us = std::nullopt);

  /// n nodes whose strategies `make_strategy` builds around the feeds.
  AdaptiveRuntime(SimConfig config, std::size_t n,
                  const StrategyFactory& make_strategy,
                  std::optional<double> stage_duration_us = std::nullopt);

  std::size_t player_count() const noexcept { return strategies_.size(); }

  /// Plays `stages` stages; the simulator's backoff state carries across
  /// stages (only measurement counters reset).
  AdaptiveResult play(int stages);

 private:
  void refresh_feeds(const SimResult& stage, const std::vector<int>& cw);

  std::shared_ptr<std::vector<double>> estimates_ =
      std::make_shared<std::vector<double>>();
  std::shared_ptr<std::vector<bool>> flags_ =
      std::make_shared<std::vector<bool>>();
  std::vector<std::unique_ptr<game::Strategy>> strategies_;
  Simulator simulator_;
  double stage_duration_us_;
  double discount_;
  int max_stage_;
};

}  // namespace smac::sim
