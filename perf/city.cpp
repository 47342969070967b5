// city_1e5: multihop::run_city_scale at 10^5 nodes, two stages.
//
// Each stage moves the nodes, updates the spatial index, applies churn,
// seeds and runs TFT, then prices two profiles. The TFT-converged profile
// collapses to a few dozen classes, so its pricing is the cache-hit path
// (the read side); every node's heterogeneous seed profile gives ~8·10^4
// distinct classes, past the 65 536-entry insert cap, so the solver kernel
// and SolverService carry it (the write side).
//
// The traced pass re-drives run_city_scale's steps through public calls,
// one span per layer call, and must reproduce every CityScaleStage field
// and the cache counters bitwise.
#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "analytical/batch_solver.hpp"
#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "multihop/city_scale.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"
#include "trace.hpp"

namespace perf {
namespace {

using namespace smac;

using ClassKey = std::pair<std::vector<int>, std::vector<int>>;

class City final : public Workload {
 public:
  explicit City(const RunOptions& options) : options_(options) {}

  const char* work_unit() const override { return "priced node-stage"; }
  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"nodes", std::to_string(base_.nodes)},
            {"stages_per_round", std::to_string(base_.stages)},
            {"price_seed_profile", "true"},
            {"solver_jobs", std::to_string(base_.solver_jobs)},
            {"target_mean_degree", "12"}};
  }
  std::size_t units_per_round() const override {
    return static_cast<std::size_t>(base_.stages);
  }

  void setup() override {
    base_ = multihop::CityScaleConfig{};
    base_.nodes = options_.smoke ? 2000 : 100000;
    base_.stages = 2;
    base_.price_seed_profile = true;
    base_.solver_jobs = kWorkers;
    base_seed_ = parallel::stream_seed(options_.seed, 0);
    // The input check: round 0's initial layout must have the constant
    // density the workload claims (E[deg] = target_mean_degree).
    const multihop::CityScaleConfig first = config_for(0);
    const double arena = multihop::city_arena_side_m(
        first.nodes, first.range_m, first.target_mean_degree);
    multihop::MobilityConfig mc;
    mc.width_m = arena;
    mc.height_m = arena;
    mc.seed = first.seed;
    const multihop::SpatialIndex index(
        multihop::RandomWaypointModel(mc, first.nodes).positions(),
        first.range_m);
    mean_degree_ = 2.0 * static_cast<double>(index.edge_count()) /
                   static_cast<double>(first.nodes);
  }

  double run_round(std::size_t round) override {
    last_ = multihop::run_city_scale(config_for(round));
    double priced = 0.0;
    for (const auto& st : last_.stage) {
      priced += static_cast<double>(st.priced_nodes);
    }
    return priced;
  }

  std::size_t check_round(std::vector<std::string>& why) override {
    if (!first_) first_ = last_;
    if (!(rel_diff(mean_degree_, base_.target_mean_degree) <= 0.1)) {
      why.push_back("initial layout mean degree is off its target");
      return last_.stage.size();
    }
    std::size_t failed = 0;
    std::uint64_t submitted = 0;
    for (const auto& st : last_.stage) {
      submitted += 2 * st.priced_nodes;  // the seed and the converged profile
      if (!(st.quasi_optimal_fraction >= 0.99)) {
        ++failed;
        why.push_back("a stage's quasi_optimal_fraction < 0.99");
      }
    }
    if (last_.cache.hits + last_.cache.misses != submitted) {
      why.push_back("cache hits + misses != requests submitted");
      return last_.stage.size();
    }
    return failed;
  }

  TracedPass trace() override;

 private:
  multihop::CityScaleConfig config_for(std::size_t round) const {
    multihop::CityScaleConfig config = base_;
    config.seed = parallel::stream_seed(base_seed_, round);
    return config;
  }

  RunOptions options_;
  multihop::CityScaleConfig base_;
  std::uint64_t base_seed_ = 0;
  double mean_degree_ = 0.0;
  multihop::CityScaleResult last_;
  std::optional<multihop::CityScaleResult> first_;
};

/// What the traced pricing of one profile hands back.
struct Priced {
  multihop::NeighborhoodPricing pricing;
  double cpu_ms = 0.0;  ///< process CPU across try_class_utilities_batch
};

/// price_neighborhoods split at its layer boundary: per-node local-profile
/// assembly and classification, then the class batch. One representative
/// per distinct class is appended to `reps` for the kernel replay.
Priced price_traced(const multihop::SpatialIndex& index,
                    const std::vector<int>& profile,
                    const game::StageGame& game,
                    std::vector<analytical::ClassProfile>& reps) {
  Priced out;
  out.pricing.payoff.assign(index.node_count(), 0.0);
  std::map<ClassKey, std::size_t> distinct;
  std::vector<std::pair<std::size_t, std::size_t>> refs;  // node, own class
  std::vector<analytical::ClassProfile> requests;
  {
    const trace::Scope span("multihop.classify");
    std::vector<int> local;
    for (std::size_t i = 0; i < index.node_count(); ++i) {
      if (!index.active(i)) continue;
      local.clear();
      local.push_back(profile[i]);
      for (const std::size_t j : index.neighbors(i)) {
        local.push_back(profile[j]);
      }
      if (local.size() == 1) local.push_back(profile[i]);
      analytical::ClassProfile cls = analytical::classify_profile(local);
      distinct.emplace(ClassKey(cls.window, cls.multiplicity), refs.size());
      refs.emplace_back(i, static_cast<std::size_t>(cls.class_of[0]));
      requests.push_back(std::move(cls));
    }
  }
  out.pricing.priced_nodes = refs.size();
  out.pricing.distinct_classes = distinct.size();

  std::vector<game::StageGame::ClassPayoffs> priced;
  {
    const trace::Scope span("game.class_batch");
    const double cpu0 = cpu_seconds();
    priced = game.try_class_utilities_batch(requests);
    out.cpu_ms = (cpu_seconds() - cpu0) * 1e3;
  }
  for (std::size_t r = 0; r < refs.size(); ++r) {
    if (analytical::usable(priced[r].diagnostics.status)) {
      out.pricing.payoff[refs[r].first] = priced[r].utilities[refs[r].second];
    }
  }
  for (const auto& [key, r] : distinct) reps.push_back(std::move(requests[r]));
  return out;
}

void compare_stage(const multihop::CityScaleStage& got,
                   const multihop::CityScaleStage& want,
                   std::vector<std::string>& mismatches) {
  const bool same =
      got.stage == want.stage && got.online == want.online &&
      got.edges == want.edges && got.crashes == want.crashes &&
      got.joins == want.joins && got.update.moved == want.update.moved &&
      got.update.rebucketed == want.update.rebucketed &&
      got.update.rescanned == want.update.rescanned &&
      got.converged_w == want.converged_w &&
      got.tft_stages == want.tft_stages &&
      got.priced_nodes == want.priced_nodes &&
      got.seed_classes == want.seed_classes &&
      got.converged_classes == want.converged_classes &&
      got.quasi_optimal_fraction == want.quasi_optimal_fraction &&
      got.mean_payoff_fraction == want.mean_payoff_fraction &&
      got.min_payoff_fraction == want.min_payoff_fraction &&
      got.sim_p_hn == want.sim_p_hn && got.sim_payoff == want.sim_payoff &&
      got.sim_regions == want.sim_regions &&
      got.sim_kernels_match == want.sim_kernels_match;
  if (!same) {
    mismatches.push_back("run_city_scale stage " + std::to_string(want.stage));
  }
}

/// What the traced re-drive of one run_city_scale call measured besides
/// its spans.
struct Recomposed {
  multihop::CityScaleResult result;  ///< stages and cache counters only
  /// Per stage, one representative of each class its pricing submitted.
  std::vector<std::vector<analytical::ClassProfile>> stage_classes;
  analytical::SolverOptions solver_options;  ///< the pass's cache options
  double class_cpu_ms = 0.0;
  double distinct_classes = 0.0;
  double rescanned = 0.0;
  double tft_rounds = 0.0;
};

/// multihop::run_city_scale (src/multihop/city_scale.cpp) re-driven step
/// by step through public calls, one span per layer call. The caller
/// compares the result with the library's bitwise, which catches any
/// drift.
Recomposed recompose(const multihop::CityScaleConfig& config) {
  const trace::Scope round("city.round");
  Recomposed out;
  const double arena = multihop::city_arena_side_m(
      config.nodes, config.range_m, config.target_mean_degree);
  std::optional<parallel::ThreadPool> pool;
  analytical::SolverService::Options solver_options;
  if (config.solver_jobs > 1) {
    pool.emplace(config.solver_jobs);
    solver_options.pool = &*pool;
  }
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts, solver_options);
  multihop::MobilityConfig mobility_config;
  mobility_config.width_m = arena;
  mobility_config.height_m = arena;
  mobility_config.v_min_mps = config.v_min_mps;
  mobility_config.v_max_mps = config.v_max_mps;
  mobility_config.seed = config.seed;
  multihop::RandomWaypointModel mobility(mobility_config, config.nodes);
  fault::FaultPlan plan;
  plan.churn.crash_rate = config.churn_crash_rate;
  plan.churn.recover_rate = config.churn_recover_rate;
  fault::FaultInjector injector(plan, config.nodes,
                                config.seed ^ 0x9e3779b97f4a7c15ULL);

  std::optional<multihop::SpatialIndex> index;
  {
    const trace::Scope span("multihop.index_build");
    index.emplace(mobility.positions(), config.range_m);
  }
  int seen_crashes = 0;
  int seen_joins = 0;
  for (int k = 0; k < config.stages; ++k) {
    const trace::Scope stage_span("city.stage");
    multihop::CityScaleStage st;
    st.stage = k;
    if (k > 0) {
      {
        const trace::Scope span("multihop.mobility");
        mobility.advance(config.mobility_dt_s);
      }
      {
        const trace::Scope span("multihop.index_update");
        index->update_positions(mobility.positions());
      }
      st.update = index->last_update();
      out.rescanned += static_cast<double>(st.update.rescanned);
    }
    injector.begin_stage(k);
    {
      const trace::Scope span("multihop.index_churn");
      for (std::size_t i = 0; i < config.nodes; ++i) {
        const bool up = injector.online(i);
        if (up && !index->active(i)) {
          index->insert_node(i);
        } else if (!up && index->active(i)) {
          index->remove_node(i);
        }
      }
    }
    st.crashes =
        static_cast<std::size_t>(injector.crash_events() - seen_crashes);
    st.joins = static_cast<std::size_t>(injector.join_events() - seen_joins);
    seen_crashes = injector.crash_events();
    seen_joins = injector.join_events();
    st.online = index->active_count();
    st.edges = index->edge_count();

    std::optional<multihop::Topology> topo;
    {
      const trace::Scope span("multihop.topology");
      topo.emplace(index->topology());
    }
    std::vector<int> seeds;
    {
      const trace::Scope span("multihop.local_seed");
      seeds = multihop::local_efficient_cw(*topo, game);
    }
    std::optional<multihop::TftConvergence> conv;
    {
      const trace::Scope span("multihop.tft");
      conv.emplace(multihop::tft_min_convergence(*topo, seeds));
    }
    st.converged_w = conv->converged_w;
    st.tft_stages = conv->stages;
    out.tft_rounds += conv->stages;

    std::vector<analytical::ClassProfile> reps;
    if (config.price_seed_profile) {
      const Priced p = price_traced(*index, seeds, game, reps);
      st.seed_classes = p.pricing.distinct_classes;
      out.class_cpu_ms += p.cpu_ms;
      out.distinct_classes += static_cast<double>(p.pricing.distinct_classes);
    }
    const Priced p =
        price_traced(*index, conv->trajectory.back(), game, reps);
    st.priced_nodes = p.pricing.priced_nodes;
    st.converged_classes = p.pricing.distinct_classes;
    out.class_cpu_ms += p.cpu_ms;
    out.distinct_classes += static_cast<double>(p.pricing.distinct_classes);

    std::size_t counted = 0;
    std::size_t quasi = 0;
    double sum = 0.0;
    double min_frac = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < config.nodes; ++i) {
      if (!index->active(i)) continue;
      const int n_local = std::max(2, static_cast<int>(index->degree(i)) + 1);
      const double u_best = game.homogeneous_stage_utility(seeds[i], n_local);
      if (!(u_best > 0.0)) continue;
      const double frac = p.pricing.payoff[i] / u_best;
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
    out.result.stage.push_back(st);
    out.stage_classes.push_back(std::move(reps));
  }
  out.result.cache = game.solve_cache_stats();
  out.solver_options = game.solver_service().cache().options();
  return out;
}

TracedPass City::trace() {
  const Recomposed r = recompose(config_for(0));

  // Kernel replay: each stage's distinct classes solved cold, in one batch
  // on this thread — the bare kernel cost of the stage's pricing.
  const phy::Parameters params = phy::Parameters::paper();
  double replay_ms = 0.0;
  for (const auto& reps : r.stage_classes) {
    std::map<ClassKey, const analytical::ClassProfile*> distinct;
    for (const auto& cls : reps) {
      distinct.emplace(ClassKey(cls.window, cls.multiplicity), &cls);
    }
    std::vector<analytical::ClassProfileInstance> instances;
    for (const auto& [key, cls] : distinct) {
      instances.push_back({*cls, params.max_backoff_stage,
                           params.packet_error_rate, r.solver_options});
    }
    const double cpu0 = cpu_seconds();
    {
      const trace::Scope span("analytical.kernel_replay");
      (void)analytical::try_solve_classes_batch(instances);
    }
    replay_ms += (cpu_seconds() - cpu0) * 1e3;
  }

  const auto spans = trace::collect();
  TracedPass out;
  out.round_s = trace::total_ms(spans, "city.round") * 1e-3;
  LayerValues& m = out.layers;
  for (const char* layer :
       {"multihop.index_build", "multihop.index_update", "multihop.index_churn",
        "multihop.topology", "multihop.mobility", "multihop.local_seed",
        "multihop.tft", "multihop.classify", "game.class_batch"}) {
    m[std::string(layer) + "_ms"] = trace::total_ms(spans, layer);
  }
  m["multihop.index_rescanned"] = r.rescanned;
  m["multihop.tft_rounds"] = r.tft_rounds;
  m["game.class_batch_cpu_ms"] = r.class_cpu_ms;
  const analytical::SolveCacheStats& cache = r.result.cache;
  add_cache_layers(cache, m);
  m["analytical.distinct_classes"] = r.distinct_classes;
  m["analytical.kernel_replay_ms"] = replay_ms;
  m["analytical.kernel_share"] = replay_ms / r.class_cpu_ms;

  const multihop::CityScaleResult& want = *first_;
  if (r.result.stage.size() != want.stage.size()) {
    out.mismatches.push_back("run_city_scale stage count");
  } else {
    for (std::size_t k = 0; k < want.stage.size(); ++k) {
      compare_stage(r.result.stage[k], want.stage[k], out.mismatches);
    }
  }
  if (cache.size != want.cache.size || cache.hits != want.cache.hits ||
      cache.misses != want.cache.misses) {
    out.mismatches.push_back("run_city_scale cache stats");
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_city(const RunOptions& options) {
  return std::make_unique<City>(options);
}

}  // namespace perf
