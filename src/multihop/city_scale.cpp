#include "multihop/city_scale.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analytical/utility.hpp"
#include "fault/fault_injector.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"

namespace smac::multihop {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Exact (bitwise) equality of two multihop windows — the check
/// sim_compare_kernels applies per stage. Doubles compare with ==
/// deliberately: the PDES contract promises identical bits, not just
/// identical statistics.
bool results_identical(const MultihopResult& a, const MultihopResult& b) {
  if (a.slots != b.slots || a.bad_state_slots != b.bad_state_slots ||
      a.global_payoff_rate != b.global_payoff_rate ||
      a.aggregate_p_hn != b.aggregate_p_hn ||
      a.node.size() != b.node.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    const MultihopNodeStats& x = a.node[i];
    const MultihopNodeStats& y = b.node[i];
    if (x.attempts != y.attempts || x.successes != y.successes ||
        x.sender_collisions != y.sender_collisions ||
        x.hidden_losses != y.hidden_losses ||
        x.channel_losses != y.channel_losses ||
        x.local_time_us != y.local_time_us ||
        x.payoff_rate != y.payoff_rate ||
        x.measured_tau != y.measured_tau || x.measured_p != y.measured_p ||
        x.measured_p_hn != y.measured_p_hn) {
      return false;
    }
  }
  return true;
}

/// One stage's slot-sim window: the converged profile on the stage's
/// active graph (the simulator copies it), crashed nodes inactive. The
/// stage seed is a stream_seed derivation so stages are independent
/// replications.
MultihopResult run_stage_sim(const CityScaleConfig& config,
                             const SpatialIndex& index,
                             const std::vector<int>& profile, int stage,
                             MultihopKernel kernel, PdesRunStats* stats) {
  MultihopConfig mh;
  mh.seed = parallel::stream_seed(config.seed ^ 0xc17ab5c4ULL,
                                  static_cast<std::size_t>(stage));
  mh.kernel = kernel;
  mh.pdes.jobs = config.sim_jobs;
  MultihopSimulator simulator(mh, index, profile);
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    if (!index.active(i)) simulator.set_node_active(i, false);
  }
  MultihopResult r = simulator.run_slots(config.sim_slots);
  if (stats != nullptr) *stats = simulator.last_pdes_stats();
  return r;
}

}  // namespace

double city_arena_side_m(std::size_t nodes, double range_m,
                         double target_mean_degree) {
  if (nodes == 0 || !(range_m > 0.0) || !(target_mean_degree > 0.0)) {
    throw std::invalid_argument("city_arena_side_m: invalid inputs");
  }
  constexpr double kPi = 3.14159265358979323846;
  return std::sqrt(static_cast<double>(nodes) * kPi * range_m * range_m /
                   target_mean_degree);
}

NeighborhoodPricing price_neighborhoods(const SpatialIndex& index,
                                        const std::vector<int>& profile,
                                        const game::StageGame& game) {
  if (profile.size() != index.node_count()) {
    throw std::invalid_argument(
        "price_neighborhoods: profile size mismatch");
  }
  NeighborhoodPricing out;
  out.payoff.assign(index.node_count(), 0.0);

  // One class request per active node, all in one solve_classes batch.
  // The canonical dedup lives in the SolverService/NetworkSolveCache
  // layer: the batch groups identical (window, multiplicity) multisets
  // onto one solve and tallies the duplicates as cache hits — so
  // SolveCacheStats records exactly how much of the stage the symmetry
  // collapse absorbed (the class-collapse regression test pins that).
  // The per-node build and pricing run on the service's pool in node
  // chunks, each writing only its own requests[r] / payoff[nodes[r]].
  parallel::ThreadPool* const pool = game.solver_service().pool();
  std::vector<std::size_t> nodes;
  nodes.reserve(index.active_count());
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    if (index.active(i)) nodes.push_back(i);
  }
  std::vector<analytical::ClassProfile> requests(nodes.size());
  const auto classify = [&](std::size_t begin, std::size_t end) {
    std::vector<int> local;
    for (std::size_t r = begin; r < end; ++r) {
      const std::size_t i = nodes[r];
      local.assign(1, profile[i]);
      for (const std::size_t j : index.neighbors(i)) {
        local.push_back(profile[j]);
      }
      // Isolated node: the same player floor as local_efficient_cw (a
      // 1-player "game" is degenerate; see local_game.hpp).
      local.resize(std::max<std::size_t>(local.size(), kMinLocalPlayers),
                   profile[i]);
      requests[r] = analytical::classify_profile(local);
    }
  };
  parallel::for_each_chunk(pool, nodes.size(), SpatialIndex::kNodeChunk,
                           classify);
  const phy::Parameters& params = game.params();
  const analytical::SolverService::ClassBatch batch =
      game.solver_service().solve_classes(requests, params.max_backoff_stage,
                                          params.packet_error_rate);
  out.priced_nodes = requests.size();
  out.distinct_classes = batch.results.size();

  // Each node's own class (class_of[0]) priced as
  // StageGame::try_class_utilities_batch prices it, from per-chunk scratch.
  const double t_us = game.stage_duration_us();
  const auto price = [&](std::size_t begin, std::size_t end) {
    std::vector<double> scratch;
    std::vector<double> rates;
    for (std::size_t r = begin; r < end; ++r) {
      const analytical::TrySolveResult& solved =
          batch.results[batch.key_of[r]];
      if (!analytical::usable(solved.diagnostics.status)) continue;
      rates.resize(requests[r].class_count());
      analytical::class_utility_rates(solved.state, requests[r], params,
                                      game.mode(), params.packet_error_rate,
                                      scratch, rates);
      out.payoff[nodes[r]] =
          rates[static_cast<std::size_t>(requests[r].class_of[0])] * t_us;
    }
  };
  parallel::for_each_chunk(pool, requests.size(), SpatialIndex::kNodeChunk,
                           price);
  return out;
}

CityScaleResult run_city_scale(const CityScaleConfig& config) {
  if (config.nodes == 0) {
    throw std::invalid_argument("run_city_scale: no nodes");
  }
  if (config.stages < 1) {
    throw std::invalid_argument("run_city_scale: stages < 1");
  }
  if (!(config.mobility_dt_s >= 0.0) ||
      !std::isfinite(config.mobility_dt_s)) {
    throw std::invalid_argument(
        "run_city_scale: mobility_dt_s not finite >= 0");
  }
  const double arena = city_arena_side_m(config.nodes, config.range_m,
                                         config.target_mean_degree);

  // The pool (when any) must outlive the game and index that use it.
  std::optional<parallel::ThreadPool> pool;
  analytical::SolverService::Options solver_options;
  if (config.solver_jobs > 1) {
    pool.emplace(config.solver_jobs);
    solver_options.pool = &*pool;
  }
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts, solver_options);

  MobilityConfig mobility_config;
  mobility_config.width_m = arena;
  mobility_config.height_m = arena;
  mobility_config.v_min_mps = config.v_min_mps;
  mobility_config.v_max_mps = config.v_max_mps;
  mobility_config.seed = config.seed;
  RandomWaypointModel mobility(mobility_config, config.nodes);

  fault::FaultPlan plan;
  plan.churn.crash_rate = config.churn_crash_rate;
  plan.churn.recover_rate = config.churn_recover_rate;
  fault::FaultInjector injector(plan, config.nodes,
                                config.seed ^ 0x9e3779b97f4a7c15ULL);

  CityScaleResult result;
  result.nodes = config.nodes;
  result.arena_m = arena;

  const auto t_build = Clock::now();
  SpatialIndex index(mobility.positions(), config.range_m, solver_options.pool);
  result.build_ms = ms_since(t_build);

  int seen_crashes = 0;
  int seen_joins = 0;
  for (int k = 0; k < config.stages; ++k) {
    CityScaleStage st;
    st.stage = k;

    if (k > 0) {
      mobility.advance(config.mobility_dt_s);
      const auto t_update = Clock::now();
      index.update_positions(mobility.positions());
      result.update_ms += ms_since(t_update);
      st.update = index.last_update();
    }

    // Churn entering the stage: the injector draws in node-index order
    // (its determinism contract); the index applies the delta.
    injector.begin_stage(k);
    {
      const auto t_churn = Clock::now();
      for (std::size_t i = 0; i < config.nodes; ++i) {
        const bool up = injector.online(i);
        if (up && !index.active(i)) {
          index.insert_node(i);
        } else if (!up && index.active(i)) {
          index.remove_node(i);
        }
      }
      result.update_ms += ms_since(t_churn);
    }
    st.crashes =
        static_cast<std::size_t>(injector.crash_events() - seen_crashes);
    st.joins = static_cast<std::size_t>(injector.join_events() - seen_joins);
    seen_crashes = injector.crash_events();
    seen_joins = injector.join_events();
    st.online = index.active_count();
    st.edges = index.edge_count();

    // Local agreements and graph-TFT on the index's active subgraph
    // (crashed nodes are isolated in it: they keep their seed and price
    // nothing).
    const std::vector<int> seeds = local_efficient_cw(index, game);
    const auto t_tft = Clock::now();
    const TftFixpoint tft = tft_min_fixpoint(index, seeds);
    result.tft_ms += ms_since(t_tft);
    const std::vector<int>& stable = tft.final_profile;
    st.converged_w = tft.converged_w;
    st.tft_stages = tft.stages;

    const auto t_solve = Clock::now();
    if (config.price_seed_profile) {
      st.seed_classes =
          price_neighborhoods(index, seeds, game).distinct_classes;
    }
    const NeighborhoodPricing priced =
        price_neighborhoods(index, stable, game);
    result.solve_ms += ms_since(t_solve);
    st.priced_nodes = priced.priced_nodes;
    st.converged_classes = priced.distinct_classes;

    // Theorem 3 at scale: each node's payoff at the TFT-stable profile
    // against the payoff of its own local agreement (the homogeneous
    // (seed_i, deg_i + 1)-player point — what it would earn had TFT not
    // dragged the window down). seeds[i] is local_efficient_cw's window
    // for this same player count, so that payoff depends on the count
    // alone: one lookup per distinct count, not one per node.
    std::vector<std::optional<double>> u_best_of;  // by player count
    std::size_t counted = 0;
    std::size_t quasi = 0;
    double sum = 0.0;
    double min_frac = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < config.nodes; ++i) {
      if (!index.active(i)) continue;
      const std::size_t n_local =
          std::max<std::size_t>(kMinLocalPlayers, index.degree(i) + 1);
      if (n_local >= u_best_of.size()) u_best_of.resize(n_local + 1);
      std::optional<double>& u_best = u_best_of[n_local];
      if (!u_best) {
        u_best = game.homogeneous_stage_utility(seeds[i],
                                                static_cast<int>(n_local));
      }
      if (!(*u_best > 0.0)) continue;
      const double frac = priced.payoff[i] / *u_best;
      ++counted;
      sum += frac;
      min_frac = std::min(min_frac, frac);
      if (frac >= 0.96) ++quasi;
    }
    if (counted > 0) {
      st.quasi_optimal_fraction =
          static_cast<double>(quasi) / static_cast<double>(counted);
      st.mean_payoff_fraction = sum / static_cast<double>(counted);
      st.min_payoff_fraction = min_frac;
    }

    // Slot-sim leg: what the converged profile actually earns on the air
    // (the pricing above is analytical). Kernel and jobs are scheduling
    // choices only — the PDES determinism contract keeps sim_p_hn and
    // sim_payoff bitwise identical, which sim_compare_kernels verifies.
    if (config.sim_slots > 0) {
      PdesRunStats sim_stats;
      const bool wants_pdes = config.sim_kernel == MultihopKernel::kPdes ||
                              config.sim_compare_kernels;
      const auto t_sim = Clock::now();
      const MultihopResult sim = run_stage_sim(
          config, index, stable, k,
          wants_pdes ? MultihopKernel::kPdes : MultihopKernel::kSlotLoop,
          wants_pdes ? &sim_stats : nullptr);
      result.sim_ms += ms_since(t_sim);
      if (config.sim_compare_kernels) {
        const auto t_oracle = Clock::now();
        const MultihopResult oracle =
            run_stage_sim(config, index, stable, k,
                          MultihopKernel::kSlotLoop, nullptr);
        if (result.sim_oracle_ms < 0.0) result.sim_oracle_ms = 0.0;
        result.sim_oracle_ms += ms_since(t_oracle);
        st.sim_kernels_match = results_identical(sim, oracle);
      }
      st.sim_p_hn = sim.aggregate_p_hn;
      st.sim_payoff = sim.global_payoff_rate;
      st.sim_regions = sim_stats.regions;
    }
    result.stage.push_back(st);
  }
  result.cache = game.solve_cache_stats();
  return result;
}

}  // namespace smac::multihop
