// Umbrella header: the complete public API of the selfish-mac library.
//
// Prefer the specific headers in library code; this is a convenience for
// quick experiments and downstream prototypes:
//
//   #include "smac.hpp"
//   auto w = smac::game::EquilibriumFinder(
//       smac::game::StageGame(smac::phy::Parameters::paper(),
//                             smac::phy::AccessMode::kBasic), 10)
//       .efficient_cw();
#pragma once

// util — numerics, RNG, statistics, I/O helpers
#include "util/csv.hpp"
#include "util/optimize.hpp"
#include "util/rng.hpp"
#include "util/root_finding.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// parallel — thread pool + deterministic Monte-Carlo replication
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"

// phy — parameters, timings, energy
#include "phy/energy.hpp"
#include "phy/parameters.hpp"

// analytical — the extended Bianchi model
#include "analytical/backoff_chain.hpp"
#include "analytical/delay.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_cache.hpp"
#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"

// fault — deterministic fault injection + degradation accounting
#include "fault/degradation.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

// game — the non-cooperative MAC game
#include "game/asymmetric.hpp"
#include "game/deviation.hpp"
#include "game/equilibrium.hpp"
#include "game/rate_game.hpp"
#include "game/repeated_game.hpp"
#include "game/stage_game.hpp"
#include "game/strategies.hpp"
#include "game/tournament.hpp"

// sim — slot-level single-hop simulator and runtimes
#include "sim/adaptive_runtime.hpp"
#include "sim/cw_estimator.hpp"
#include "sim/dcf_node.hpp"
#include "sim/misbehavior_detector.hpp"
#include "sim/search_protocol.hpp"
#include "sim/simulator.hpp"

// multihop — spatial simulator, mobility, local games
#include "multihop/adaptive.hpp"
#include "multihop/geometry.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "multihop/topology.hpp"
