// Metropolitan-scale multihop pipeline (docs/CITY_SCALE.md).
//
// Composes the pieces this tier is built from: a SpatialIndex rebuilt
// after every random-waypoint mobility step and patched in place under
// FaultPlan churn, local-game seeding + graph-TFT convergence per stage, and
// class-deduplicated pricing of every node's closed-neighborhood local
// game through one SolverService::solve_classes batch per profile — so a
// 10^4-node stage solves only its distinct (neighborhood-size,
// window-mix, PER) classes instead of one fixed point per node. The
// per-stage output is the Theorem-3 quasi-optimality fraction at scale:
// how many nodes still earn >= 96% of their own local agreement's payoff
// after TFT drags the component down to its minimum window.
//
// Determinism: every field of CityScaleResult except the *_ms wall-clock
// timings is a pure function of CityScaleConfig — independent of
// solver_jobs (the pool runs fixed chunks that each write their own
// slots; churn, seeding, TFT and the cache's key-order adoption stay
// serial) and of spatial-index bucket insertion order.
// bench/city_scale.cpp keeps the JSON it emits byte-identical at any
// --jobs by writing timings to a separate artifact;
// tests/parallel/city_scale_invariance_test.cpp pins the invariance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analytical/solver_cache.hpp"
#include "game/stage_game.hpp"
#include "multihop/pdes.hpp"
#include "multihop/spatial_index.hpp"

namespace smac::multihop {

struct CityScaleConfig {
  std::size_t nodes = 1000;
  double range_m = 250.0;
  /// Arena side is derived to hold the mean unit-disk degree near this
  /// value at any n (constant density — the metropolitan regime), via
  /// city_arena_side_m. A fixed paper arena at n = 10^5 would otherwise
  /// be one giant clique-like blob with ~2·10^9 edges.
  double target_mean_degree = 12.0;
  int stages = 4;             ///< mobility/churn epochs
  double mobility_dt_s = 60.0;
  double v_min_mps = 0.0;
  double v_max_mps = 5.0;
  /// Per-stage Bernoulli churn (fault::ChurnConfig semantics), applied to
  /// the index through remove_node/insert_node.
  double churn_crash_rate = 0.02;
  double churn_recover_rate = 0.5;
  /// Also price every node's local game at the heterogeneous *seed*
  /// profile (the interesting dedup case); the converged profile is
  /// always priced. Costs roughly one solve per distinct seed
  /// neighborhood: ~8·10^4 per stage at n = 10^5, about 0.2 s of serial
  /// solver time (three Newton steps each) spread over the solver
  /// workers — so sweeps that only need the Theorem-3 fractions turn it
  /// off.
  bool price_seed_profile = true;
  /// Width of the pipeline's one pool: the SpatialIndex scans, the
  /// per-node request build and pricing of price_neighborhoods, and the
  /// SolverService's miss solves (and, at 10^5 nodes, its sort, grouping
  /// and lookup) all run on it. Scheduling only: results are bitwise
  /// identical at any value.
  std::size_t solver_jobs = 1;
  /// Slot-level simulation leg: when sim_slots > 0 each stage also runs
  /// the TFT-converged profile through MultihopSimulator on the stage's
  /// active topology (crashed nodes set inactive), measuring the
  /// realized p_hn and payoff the analytical pricing abstracts away.
  std::uint64_t sim_slots = 0;
  /// Kernel of the slot-sim leg. Scheduling only (the PDES determinism
  /// contract): sim_* outputs are bitwise identical under either value
  /// and any sim_jobs.
  MultihopKernel sim_kernel = MultihopKernel::kSlotLoop;
  std::size_t sim_jobs = 1;  ///< PDES workers (kernel = kPdes only)
  /// Run BOTH kernels per stage, assert bitwise-equal results, and time
  /// each — the source of bench_city_scale's speedup column.
  bool sim_compare_kernels = false;
  std::uint64_t seed = 2026;
};

struct CityScaleStage {
  int stage = 0;
  std::size_t online = 0;
  std::size_t edges = 0;      ///< active-subgraph undirected edges
  std::size_t crashes = 0;    ///< churn events applied entering this stage
  std::size_t joins = 0;
  SpatialIndex::UpdateStats update;  ///< zeros at stage 0 (full build)
  int converged_w = 0;        ///< min window of the TFT-stable profile
  int tft_stages = 0;
  std::size_t priced_nodes = 0;
  std::size_t seed_classes = 0;       ///< 0 when seed pricing is off
  std::size_t converged_classes = 0;  ///< distinct classes actually solved
  double quasi_optimal_fraction = 0.0;  ///< payoff >= 96% of own agreement
  double mean_payoff_fraction = 0.0;
  double min_payoff_fraction = 0.0;
  // Slot-sim leg (sim_slots > 0 only; kernel- and jobs-invariant).
  double sim_p_hn = 0.0;        ///< aggregate hidden-node delivery factor
  double sim_payoff = 0.0;      ///< global payoff rate (Σ_i per-node)
  std::size_t sim_regions = 0;  ///< PDES regions (0 under pure slot-loop)
  /// False iff sim_compare_kernels found a kernel divergence (a PDES
  /// determinism-contract violation; run_city_scale never masks one).
  bool sim_kernels_match = true;
};

struct CityScaleResult {
  std::size_t nodes = 0;
  double arena_m = 0.0;
  std::vector<CityScaleStage> stage;
  /// Cumulative solve-cache traffic over the whole run (deterministic).
  analytical::SolveCacheStats cache;
  // Wall-clock timings — machine-dependent, excluded from the
  // byte-identical contract.
  double build_ms = 0.0;        ///< initial SpatialIndex full build
  double update_ms = 0.0;       ///< total mobility rebuilds + churn
  double tft_ms = 0.0;          ///< total graph-TFT fixpoints
  double solve_ms = 0.0;        ///< total class-dedup pricing
  double sim_ms = 0.0;          ///< slot-sim leg, configured kernel
  /// Slot-loop oracle wall clock when sim_compare_kernels is on, -1
  /// otherwise; sim_oracle_ms / sim_ms is the PDES speedup column.
  double sim_oracle_ms = -1.0;
};

/// Arena side (meters) holding E[deg] = target under uniform placement:
/// side = sqrt(n · π · r² / target).
double city_arena_side_m(std::size_t nodes, double range_m,
                         double target_mean_degree);

/// Class-deduplicated pricing of every *active* node's closed-neighborhood
/// local game at `profile` (size = node_count; isolated nodes play the
/// same 2-player convention as local_efficient_cw). payoff[i] is the
/// stage payoff node i earns in its local game — bitwise what
/// try_stage_utilities on the expanded local profile would give it — and
/// 0 for offline nodes and unusable solves. All nodes' class profiles go
/// to one SolverService::solve_classes batch, which groups identical
/// canonical classes onto one solve and counts the duplicates as cache
/// hits, so SolveCacheStats measures the symmetry collapse directly. The
/// per-node loops run on the game's SolverService pool, if it has one.
struct NeighborhoodPricing {
  std::vector<double> payoff;
  std::size_t priced_nodes = 0;
  std::size_t distinct_classes = 0;  ///< distinct classes in the batch
};
NeighborhoodPricing price_neighborhoods(const SpatialIndex& index,
                                        const std::vector<int>& profile,
                                        const game::StageGame& game);

/// Runs the full pipeline on the paper's PHY (RTS/CTS). Deterministic up
/// to the timing fields; see the header comment.
CityScaleResult run_city_scale(const CityScaleConfig& config);

}  // namespace smac::multihop
