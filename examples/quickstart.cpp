// Quickstart: the five-minute tour of the selfish-MAC library.
//
//   1. Pick the network parameters (Table I of the paper).
//   2. Solve the extended Bianchi model for a contention-window profile.
//   3. Find the efficient Nash equilibrium W_c* of the MAC game.
//   4. Check the analytical answer against the slot-level simulator.
//
// Build & run:  ./build/examples/quickstart [n]
#include <cstdio>
#include <vector>

#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"
#include "example_args.hpp"
#include "game/equilibrium.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace smac;
  constexpr const char* kUsage = "[n >= 2]";
  examples::check_arg_count(argc, argv, 1, kUsage);
  const int n = examples::int_arg(argc, argv, 1, 10, 2, kUsage);

  // 1. Parameters: 1 Mbit/s 802.11 with the paper's frame sizes and the
  //    game constants g = 1, e = 0.01, T = 10 s, delta = 0.9999.
  const phy::Parameters params = phy::Parameters::paper();
  const auto mode = phy::AccessMode::kBasic;
  const phy::SlotTimes t = params.slot_times(mode);
  std::printf("slot times: sigma=%.0fus Ts=%.0fus Tc=%.0fus\n\n", t.sigma_us,
              t.ts_us, t.tc_us);

  // 2. The coupled (tau, p) fixed point for a heterogeneous profile: one
  //    aggressive node among conservative ones.
  std::vector<int> profile(static_cast<std::size_t>(n), 128);
  profile[0] = 16;  // the selfish one
  const auto state =
      analytical::try_solve_network(profile, params.max_backoff_stage).state;
  const auto metrics = analytical::channel_metrics(state.tau, params, mode);
  const auto utilities = analytical::utility_rates(state, params, mode);
  std::printf("heterogeneous profile (node 0 plays W=16, others W=128):\n");
  std::printf("  node 0: tau=%.4f p=%.4f throughput=%.3f utility=%.3e\n",
              state.tau[0], state.p[0], metrics.per_node_throughput[0],
              utilities[0]);
  std::printf("  node 1: tau=%.4f p=%.4f throughput=%.3f utility=%.3e\n",
              state.tau[1], state.p[1], metrics.per_node_throughput[1],
              utilities[1]);
  std::printf("  -> the aggressor grabs %.1fx the throughput (Lemma 1)\n\n",
              metrics.per_node_throughput[0] / metrics.per_node_throughput[1]);

  // 3. The efficient NE of the n-player game: every common window in
  //    [W_c0, W_c*] is a NE (Theorem 2); refinement keeps W_c*.
  const game::StageGame game(params, mode);
  const game::EquilibriumFinder finder(game, n);
  const auto nash = finder.nash_set();
  std::printf("n = %d players: NE set = [%d, %d] (%d equilibria), "
              "efficient NE W_c* = %d\n",
              n, nash.w_min_viable, nash.w_efficient, nash.count(),
              nash.w_efficient);
  std::printf("  stage utility at W_c*: %.3f (gain units per 10 s stage)\n\n",
              game.homogeneous_stage_utility(nash.w_efficient, n));

  // 4. Validate on the slot-level simulator: measured payoff at W_c*
  //    should beat nearby windows and match the model.
  sim::SimConfig config;
  config.mode = mode;
  config.seed = 42;
  for (int w : {nash.w_efficient / 2, nash.w_efficient, nash.w_efficient * 2}) {
    sim::Simulator simulator(config, std::vector<int>(
                                         static_cast<std::size_t>(n), w));
    const auto r = simulator.run_slots(200000);
    std::printf("  sim @ W=%4d: throughput=%.3f payoff_rate=%.3e "
                "(model %.3e)\n",
                w, r.throughput, r.payoff_rate[0],
                game.homogeneous_utility_rate(w, n));
  }
  std::printf("\nDone. See selfish_wlan_study / multihop_adhoc / "
              "cw_search_demo for full scenarios.\n");
  return 0;
}
