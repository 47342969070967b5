// quasiopt_sweep: the multihop slot simulator.
//
// Paper §VII.B as bench_multihop_quasioptimal runs it: 100 mobile nodes, a
// sweep of common windows around the TFT-converged W_m, one grid point per
// task on a 4-worker pool. The slot kernel is small and cache-resident and
// the work is 8 coarse tasks, so the pool's tail shows.
//
// The timed and the traced run execute the same code: the spans are inert
// until tracing is switched on. The traced pass adds the PDES measurement
// on a 10^4-node network, the size where a region-parallel kernel could
// pay.
#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "harness.hpp"
#include "multihop/city_scale.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"
#include "trace.hpp"

namespace perf {
namespace {

using namespace smac;

constexpr double kRange = 250.0;

/// attempts == successes + sender_collisions + hidden_losses +
/// channel_losses for every node of the window.
bool outcomes_add_up(const multihop::MultihopResult& r) {
  return std::all_of(r.node.begin(), r.node.end(), [](const auto& s) {
    return s.attempts == s.successes + s.sender_collisions +
                             s.hidden_losses + s.channel_losses;
  });
}

void add_delivery(const multihop::MultihopResult& r, double& successes,
                  double& attempts) {
  for (const auto& s : r.node) {
    successes += static_cast<double>(s.successes);
    attempts += static_cast<double>(s.attempts);
  }
}

bool identical(const multihop::MultihopResult& a,
               const multihop::MultihopResult& b) {
  if (a.slots != b.slots || a.bad_state_slots != b.bad_state_slots ||
      a.global_payoff_rate != b.global_payoff_rate ||
      a.aggregate_p_hn != b.aggregate_p_hn || a.node.size() != b.node.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    const auto& x = a.node[i];
    const auto& y = b.node[i];
    if (x.attempts != y.attempts || x.successes != y.successes ||
        x.sender_collisions != y.sender_collisions ||
        x.hidden_losses != y.hidden_losses ||
        x.channel_losses != y.channel_losses ||
        x.local_time_us != y.local_time_us || x.payoff_rate != y.payoff_rate ||
        x.measured_tau != y.measured_tau || x.measured_p != y.measured_p ||
        x.measured_p_hn != y.measured_p_hn) {
      return false;
    }
  }
  return true;
}

/// One mobility epoch after a window: move, rebuild the unit-disk graph,
/// rebind the simulator.
void move_nodes(multihop::RandomWaypointModel& mobility,
                multihop::MultihopSimulator& sim, double dt_s) {
  {
    const trace::Scope span("multihop.mobility");
    mobility.advance(dt_s);
  }
  std::optional<multihop::Topology> topo;
  {
    const trace::Scope span("multihop.topology");
    topo.emplace(mobility.positions(), kRange);
  }
  const trace::Scope span("multihop.update_topology");
  sim.update_topology(std::move(*topo));
}

void add_sim_layers(const std::vector<trace::Span>& spans,
                    double node_slots, double successes, double attempts,
                    LayerValues& m) {
  m["multihop.sim_ms"] = trace::total_ms(spans, "multihop.sim");
  m["multihop.ns_per_node_slot"] = m["multihop.sim_ms"] * 1e6 / node_slots;
  m["multihop.mobility_ms"] = trace::total_ms(spans, "multihop.mobility");
  m["multihop.topology_ms"] = trace::total_ms(spans, "multihop.topology");
  m["multihop.update_topology_ms"] =
      trace::total_ms(spans, "multihop.update_topology");
  m["multihop.delivery_ratio"] = successes / attempts;
}

/// The PDES keep-or-delete measurement: one epoch of a network at city
/// density (E[deg] = 12) with its TFT-converged profile, through the
/// slot-loop kernel and through run_multihop_pdes on kWorkers. The two
/// must agree bitwise.
void measure_pdes(std::uint64_t seed, std::size_t nodes, std::uint64_t slots,
                  TracedPass& out) {
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);
  const double arena = multihop::city_arena_side_m(nodes, kRange, 12.0);
  multihop::MobilityConfig mc;
  mc.width_m = arena;
  mc.height_m = arena;
  mc.seed = parallel::stream_seed(seed, 0);
  const multihop::Topology topo(
      multihop::RandomWaypointModel(mc, nodes).positions(), kRange);
  const std::vector<int> profile =
      multihop::tft_min_convergence(topo,
                                    multihop::local_efficient_cw(topo, game))
          .trajectory.back();
  multihop::MultihopConfig config;
  config.seed = parallel::stream_seed(seed, 1);
  multihop::MultihopConfig pdes_config = config;
  pdes_config.pdes.jobs = kWorkers;

  multihop::PdesRunStats stats;
  multihop::MultihopResult loop;
  multihop::MultihopResult pdes;
  {
    const trace::Scope span("multihop.slot_loop_epoch");
    loop = multihop::run_multihop_slot_loop(config, topo, profile, slots);
  }
  {
    const trace::Scope span("multihop.pdes_epoch");
    pdes = multihop::run_multihop_pdes(pdes_config, topo, profile, slots,
                                       &stats);
  }
  const auto spans = trace::collect();
  out.layers["multihop.pdes_speedup"] =
      trace::total_ms(spans, "multihop.slot_loop_epoch") /
      trace::total_ms(spans, "multihop.pdes_epoch");
  out.layers["multihop.pdes_regions"] = static_cast<double>(stats.regions);
  if (!identical(loop, pdes)) out.mismatches.push_back("pdes vs slot loop");
  if (!outcomes_add_up(loop)) {
    out.mismatches.push_back("per-node outcomes do not add up (pdes leg)");
  }
}

// ---------------------------------------------------------------------------

class QuasiOpt final : public Workload {
 public:
  explicit QuasiOpt(const RunOptions& options) : options_(options) {}

  const char* work_unit() const override { return "node-slot"; }
  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"nodes", std::to_string(kNodes)},
            {"layouts", std::to_string(kLayouts)},
            {"grid_points", std::to_string(kGrid.size())},
            {"epochs", std::to_string(epochs())},
            {"slots_per_epoch", std::to_string(slots())},
            {"workers", std::to_string(kWorkers)}};
  }
  std::size_t units_per_round() const override { return kGrid.size(); }

  /// The inputs of kLayouts rounds: each layout's TFT-converged W_m and
  /// the common-window grid around it.
  void setup() override {
    const game::StageGame game(phy::Parameters::paper(),
                               phy::AccessMode::kRtsCts);
    layouts_.clear();
    for (std::size_t k = 0; k < kLayouts; ++k) {
      Layout layout;
      layout.mobility.seed = parallel::stream_seed(base_seed(), k);
      const multihop::Topology topo(
          multihop::RandomWaypointModel(layout.mobility, kNodes).positions(),
          kRange);
      const int w_m = multihop::tft_min_convergence(
                          topo, multihop::local_efficient_cw(topo, game))
                          .converged_w;
      for (const double f : kGrid) {
        layout.grid.push_back(std::max(1, static_cast<int>(w_m * f + 0.5)));
      }
      layouts_.push_back(std::move(layout));
    }
  }

  double run_round(std::size_t round) override {
    last_ = sweep(round);
    return static_cast<double>(kNodes) * static_cast<double>(epochs()) *
           static_cast<double>(slots()) * static_cast<double>(kGrid.size());
  }

  std::size_t check_round(std::vector<std::string>& why) override {
    if (first_.empty()) first_ = last_;
    double best = 0.0;
    for (const Point& p : last_) best = std::max(best, p.global_payoff);
    std::size_t failed = 0;
    for (std::size_t g = 0; g < last_.size(); ++g) {
      const bool adds_up = std::all_of(last_[g].epochs.begin(),
                                       last_[g].epochs.end(), outcomes_add_up);
      if (!adds_up) why.push_back("per-node outcomes do not add up");
      const bool quasi =
          g != kAtWm || last_[g].global_payoff >= kQuasiOptimal * best;
      if (!quasi) why.push_back("global payoff at W_m below the grid best");
      if (!adds_up || !quasi) ++failed;
    }
    return failed;
  }

  TracedPass trace() override {
    TracedPass out;
    const std::vector<Point> points = sweep(0);
    const auto spans = trace::collect();
    const trace::FanoutUse use =
        trace::fanout_use(spans, "parallel.fanout", kWorkers);
    out.round_s = trace::total_ms(spans, "parallel.fanout") * 1e-3;
    double successes = 0.0;
    double attempts = 0.0;
    for (const Point& p : points) {
      for (const auto& r : p.epochs) add_delivery(r, successes, attempts);
    }
    add_sim_layers(spans,
                   static_cast<double>(kNodes) * epochs() * slots() *
                       static_cast<double>(kGrid.size()),
                   successes, attempts, out.layers);
    out.layers["parallel.busy_frac"] = use.busy_ms / use.capacity_ms;
    out.layers["parallel.tail_ms"] = use.tail_ms;
    for (std::size_t g = 0; g < points.size(); ++g) {
      if (points[g].global_payoff != first_[g].global_payoff) {
        out.mismatches.push_back("traced sweep point " + std::to_string(g));
      }
    }
    // At 100 nodes a region-parallel kernel has nothing to split.
    measure_pdes(parallel::stream_seed(options_.seed, 3),
                 options_.smoke ? 1000 : 10000, options_.smoke ? 200 : 2000,
                 out);
    return out;
  }

 private:
  static constexpr std::size_t kNodes = 100;
  static constexpr std::size_t kLayouts = 8;
  /// Common windows as multiples of W_m, as bench_multihop_quasioptimal
  /// sweeps them; kAtWm indexes W_m itself.
  static constexpr std::array<double, 8> kGrid{0.4, 0.6, 0.8, 1.0,
                                               1.4, 2.0, 3.0, 4.5};
  static constexpr std::size_t kAtWm = 3;
  /// Paper §VII.B puts the global payoff at W_m within 3% of the best
  /// common window after a 1000 s run. One round's 8 x 30k slots per point
  /// estimate that ratio at 0.978 with a standard deviation of 0.0067 (97
  /// rounds on seeds 1001-1012, lowest 0.965), so the check allows 5%:
  /// about four standard deviations below the mean.
  static constexpr double kQuasiOptimal = 0.95;

  struct Layout {
    multihop::MobilityConfig mobility;  ///< 1000 m x 1000 m, v in [0, 5]
    std::vector<int> grid;
  };
  struct Point {
    std::vector<multihop::MultihopResult> epochs;
    double global_payoff = 0.0;  ///< mean over epochs
  };

  std::uint64_t base_seed() const {
    return parallel::stream_seed(options_.seed, 2);
  }
  // No smaller smoke size: the quasi-optimality check needs a full round.
  static constexpr int epochs() { return 8; }
  static constexpr std::uint64_t slots() { return 30000; }

  /// One grid point: the layout's mobility trace at a common window.
  Point run_point(const Layout& layout, int w, std::uint64_t seed) const {
    multihop::RandomWaypointModel mobility(layout.mobility, kNodes);
    multihop::MultihopConfig config;
    config.seed = seed;
    multihop::MultihopSimulator sim(
        config, multihop::Topology(mobility.positions(), kRange),
        std::vector<int>(kNodes, w));
    Point out;
    for (int e = 0; e < epochs(); ++e) {
      {
        const trace::Scope span("multihop.sim");
        out.epochs.push_back(sim.run_slots(slots()));
      }
      out.global_payoff += out.epochs.back().global_payoff_rate / epochs();
      // The bench moves nodes 125 s per 120k-slot epoch; keep that rate.
      move_nodes(mobility, sim, 125.0 * static_cast<double>(slots()) / 120000);
    }
    return out;
  }

  /// Round r: layout r mod kLayouts, every grid point on the same
  /// mobility trace and slot seed (common random numbers), one task each.
  std::vector<Point> sweep(std::size_t round) const {
    const Layout& layout = layouts_[round % kLayouts];
    const std::uint64_t seed =
        parallel::stream_seed(base_seed(), kLayouts + round);
    std::vector<Point> points(kGrid.size());
    const trace::Scope fanout("parallel.fanout");
    parallel::ThreadPool pool(kWorkers);
    pool.for_each_index(kGrid.size(), [&](std::size_t g) {
      const trace::Scope task("quasiopt.point", fanout.id());
      points[g] = run_point(layout, layout.grid[g], seed);
    });
    return points;
  }

  RunOptions options_;
  std::vector<Layout> layouts_;
  std::vector<Point> last_;
  std::vector<Point> first_;
};

}  // namespace

std::unique_ptr<Workload> make_quasiopt(const RunOptions& options) {
  return std::make_unique<QuasiOpt>(options);
}

}  // namespace perf
