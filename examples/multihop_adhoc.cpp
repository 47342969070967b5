// Scenario: a mobile multi-hop ad hoc network of selfish nodes (§VI-VII.B
// at example scale).
//
// 40 nodes roam a 800 m × 800 m field under random waypoint; each seeds
// its contention window with the efficient NE of its *local* single-hop
// game (it knows only its neighbor count), then plays TFT. The example
// traces the window convergence to W_m = min_i W_i, verifies Theorem 3's
// no-deviation property in simulation, and measures quasi-optimality.
//
// Build & run:  ./build/examples/multihop_adhoc
#include <algorithm>
#include <cstdio>
#include <vector>

#include "game/equilibrium.hpp"
#include "multihop/local_game.hpp"
#include "multihop/mobility.hpp"
#include "multihop/multihop_simulator.hpp"
#include "util/stats.hpp"

int main() {
  using namespace smac;
  constexpr int kNodes = 40;
  constexpr double kRangeM = 250.0;

  multihop::MobilityConfig mob_config;
  mob_config.width_m = 800.0;
  mob_config.height_m = 800.0;
  mob_config.seed = 7;
  multihop::RandomWaypointModel mobility(mob_config, kNodes);

  multihop::MultihopConfig config;
  config.seed = 7;
  multihop::Topology topo(mobility.positions(), kRangeM);
  std::printf("field: 800x800 m, %d nodes, range %.0f m, connected: %s, "
              "diameter: %zu hops\n",
              kNodes, kRangeM, topo.connected() ? "yes" : "no",
              topo.connected() ? topo.diameter() : 0);

  // 1. Local-game seeding: each node solves the (deg+1)-player single-hop
  //    game — no global knowledge needed.
  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kRtsCts);
  const auto seeds = multihop::local_efficient_cw(topo, game);
  std::printf("\nlocal NE seeds (per node, from its neighbor count):\n  ");
  for (int w : seeds) std::printf("%d ", w);
  std::printf("\n");

  // 2. Graph-TFT convergence: the minimum floods the network within
  //    diameter stages (Theorem 3's W_m).
  const auto conv = multihop::tft_min_convergence(topo, seeds);
  std::printf("\nTFT convergence to W_m = %d in %d stages:\n",
              conv.converged_w, conv.stages);
  for (std::size_t k = 0; k < conv.trajectory.size(); ++k) {
    util::RunningStats spread;
    for (int w : conv.trajectory[k]) spread.add(w);
    std::printf("  stage %zu: min=%g max=%g mean=%.1f\n", k, spread.min(),
                spread.max(), spread.mean());
  }

  // 3. Theorem 3 in simulation: at W_m, unilateral deviation does not pay.
  const int w_m = conv.converged_w;
  multihop::MultihopSimulator sim(config, topo,
                                  std::vector<int>(kNodes, w_m));
  const auto at_ne = sim.run_slots(400000);
  // Let the best-connected node try deviating down and up.
  std::size_t probe = 0;
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    if (topo.degree(i) > topo.degree(probe)) probe = i;
  }
  std::printf("\nTheorem 3 check at node %zu (degree %zu):\n", probe,
              topo.degree(probe));
  std::printf("  payoff at W_m=%d:        %.3e\n", w_m,
              at_ne.node[probe].payoff_rate);
  for (int w_dev : {std::max(1, w_m / 2), w_m * 2}) {
    multihop::MultihopSimulator dev_sim(config, topo,
                                        std::vector<int>(kNodes, w_m));
    dev_sim.set_cw(probe, w_dev);
    // TFT reaction: after one stage the neighbors match a downward
    // deviation; an upward deviation just loses share. Simulate the
    // deviation stage followed by the converged aftermath.
    const auto during = dev_sim.run_slots(400000);
    if (w_dev < w_m) {
      dev_sim.set_all_cw(w_dev);  // contagion
      const auto after = dev_sim.run_slots(400000);
      std::printf("  deviate down to %d: stage payoff %.3e, but after TFT "
                  "contagion %.3e\n",
                  w_dev, during.node[probe].payoff_rate,
                  after.node[probe].payoff_rate);
    } else {
      std::printf("  deviate up to %d:   stage payoff %.3e (immediately "
                  "worse)\n",
                  w_dev, during.node[probe].payoff_rate);
    }
  }

  // 4. Quasi-optimality under mobility: global payoff at W_m vs a sweep,
  //    averaged over mobility epochs.
  std::printf("\nquasi-optimality under mobility (global payoff, 6 epochs):\n");
  double best = 0.0;
  double at_wm = 0.0;
  for (int w : {std::max(1, w_m / 2), w_m, w_m * 2, w_m * 3}) {
    multihop::RandomWaypointModel epochs_mobility(mob_config, kNodes);
    multihop::MultihopSimulator mobile_sim(
        config, multihop::Topology(epochs_mobility.positions(), kRangeM),
        std::vector<int>(kNodes, w));
    double total = 0.0;
    for (int epoch = 0; epoch < 6; ++epoch) {
      total += mobile_sim.run_slots(80000).global_payoff_rate / 6.0;
      epochs_mobility.advance(60.0);
      mobile_sim.update_topology(
          multihop::Topology(epochs_mobility.positions(), kRangeM));
    }
    std::printf("  W=%3d: global payoff %.3e\n", w, total);
    best = std::max(best, total);
    if (w == w_m) at_wm = total;
  }
  std::printf("  -> W_m earns %.1f%% of the sweep maximum "
              "(paper: within ~3%%)\n",
              at_wm / best * 100.0);
  return 0;
}
