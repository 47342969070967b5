// Stage-driven TFT dynamics on the multi-hop simulator (paper §VI).
//
// tft_min_fixpoint() gives the window dynamics' limit in closed form and
// tft_min_convergence() steps them as a pure graph iteration on a fixed
// topology; this runtime actually *plays* them: each stage the spatial
// simulator runs for a fixed number of slots with the current profile,
// every node observes only its neighbors' configured windows (the paper's
// local-observation model) and applies TFT — match the smallest window in
// the closed neighborhood — and mobility can move nodes between stages,
// changing who observes whom. Payoffs are the simulator's measured local
// payoff rates, so the trajectory carries both the convergence facts of
// Theorem 3 and their price.
//
// Kernel choice flows through MultihopConfig::kernel untouched: a
// simulator configured for the PDES kernel plays every stage window
// region-parallel, and each mobility refresh (update_topology) rebuilds
// its region partition from the new positions — trajectories stay
// bitwise identical to slot-loop runs (the pdes test tier pins the
// refresh path too).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/fault_injector.hpp"
#include "game/strategies.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "sim/online_detector.hpp"

namespace smac::multihop {

struct MultihopStage {
  std::vector<int> cw;            ///< profile played this stage
  std::vector<double> payoff;     ///< measured per-node payoff rates
  double global_payoff = 0.0;
  bool topology_connected = false;
  /// Fault-aware runs mark crashed nodes (empty = all online).
  std::vector<std::uint8_t> online;
};

struct MultihopTftResult : game::Convergence {
  std::vector<MultihopStage> stages;
  /// Fault accounting (clean for fault-free runs).
  fault::DegradationReport degradation;
  /// Enforcement accounting (play_multihop_enforced only; 0 otherwise).
  int flags_raised = 0;
  int punishment_episodes = 0;
  int punished_stages = 0;
  int rehabilitations = 0;
};

struct MultihopTftConfig {
  std::uint64_t slots_per_stage = 40000;
  /// Seconds of mobility between stages (finite, >= 0; 0 = static
  /// topology).
  double mobility_dt_s = 0.0;
  int stages = 10;
};

/// Plays graph-local TFT on `sim`, starting from its current profile.
/// When `mobility` is non-null it advances between stages and the
/// simulator's topology is rebuilt from the new positions at its own
/// range.
///
/// `injector` (node_count matching, stage 0 not yet begun) drives
/// crashes/joins and observation faults. A crashed node is deactivated in
/// the simulator, keeps its window, and is skipped by its neighbors' TFT
/// matching; each node's view of a neighbor's window passes through
/// FaultInjector::observe_cw with its previous belief as loss fallback.
MultihopTftResult play_multihop_tft(MultihopSimulator& sim,
                                    RandomWaypointModel* mobility,
                                    const MultihopTftConfig& config,
                                    fault::FaultInjector* injector = nullptr);

/// The distributed enforcement protocol for local games (the flooding
/// counterpart of game::ReactionPolicy's coordinator model).
struct MultihopEnforcementConfig {
  /// Per-node sequential detector geometry. Each compliant node monitors
  /// its neighbors against its own entry window (the local agreement from
  /// e.g. local_efficient_cw), with the closed-neighborhood size as n and
  /// the simulator's backoff-stage bound m.
  sim::OnlineDetectorConfig detector;
  /// Fixed episode length. Multihop punishment is not gain-calibrated —
  /// there is no shared stage game to price the what-if profiles; the
  /// single-hop ReactionPolicy implements the calibrated version.
  int punishment_stages = 4;
  /// Jamming window the offender's compliant neighbors drop to during an
  /// episode (punishers play min(own entry window, punishment_w)).
  /// Matching the offender's window would not starve it — deviation
  /// profits come from asymmetry — so punishers undercut it instead.
  int punishment_w = 1;
  /// compliant[i] == 0 marks a node outside the protocol: it never
  /// detects or punishes and keeps playing its entry window forever (the
  /// constant-deviant model). Empty = every node is compliant.
  std::vector<std::uint8_t> compliant;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// Plays the enforcement protocol instead of TFT matching: compliant
/// nodes *hold* their entry windows (deviations are the protocol's job,
/// not min-matching's — so no TFT contagion), each runs an OnlineDetector
/// over its neighbors' observed windows, and a flag is flooded: one
/// episode at a time network-wide, during which the offender's compliant
/// neighbors drop to min(own window, punishment_w) — undercutting it — for
/// `punishment_stages` stages while every detector suspends (punishers
/// must not read each other's punishment as deviation). The episode ends
/// with rehabilitation — the offender's evidence is cleared everywhere —
/// and, for a relentless deviant, fresh evidence re-flags it within a few
/// stages: its neighborhood spends most stages denying it the gain while
/// distant regions never leave their agreement. Observation faults apply
/// per (observer, neighbor) exactly as in play_multihop_tft.
MultihopTftResult play_multihop_enforced(
    MultihopSimulator& sim, RandomWaypointModel* mobility,
    const MultihopTftConfig& config,
    const MultihopEnforcementConfig& enforcement,
    fault::FaultInjector* injector = nullptr);

}  // namespace smac::multihop
