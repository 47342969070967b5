// §V.E — impact of malicious players.
//
// A malicious node drops its window to W_mal; TFT contagion drags every
// player down with it, degrading the global payoff — and, if W_mal is
// small enough (and backoff headroom limited), paralyzing the network.
// This harness traces the welfare-degradation curve, verifies the TFT
// contagion dynamics stage by stage, and locates the paralysis threshold
// in the no-backoff (m = 0) regime.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "game/deviation.hpp"
#include "game/equilibrium.hpp"
#include "game/repeated_game.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Malicious player impact",
      "paper §V.E (TFT contagion; small W_mal paralyzes the network)",
      "Basic access, n = 5.");

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kBasic);
  const int n = 5;
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();

  // 1. Welfare after contagion vs the attacker's window.
  util::TextTable curve({"W_mal", "welfare vs W_c* (m=6)",
                         "welfare vs W_c* (m=0)"});
  phy::Parameters bare = params;
  bare.max_backoff_stage = 0;
  const game::StageGame bare_game(bare, phy::AccessMode::kBasic);
  const int bare_star = game::EquilibriumFinder(bare_game, n).efficient_cw();
  for (int w_mal : {w_star, w_star / 2, w_star / 4, w_star / 8, 8, 4, 2, 1}) {
    curve.add_row(
        {std::to_string(w_mal),
         util::fmt_percent(
             game::malicious_welfare_ratio(game, n, w_star, w_mal), 1),
         util::fmt_percent(
             game::malicious_welfare_ratio(bare_game, n, bare_star, w_mal),
             1)});
  }
  std::printf("%s\n", curve.to_string().c_str());

  const auto paralysis = game::paralysis_threshold(bare_game, n);
  std::printf("paralysis threshold (m=0): W <= %s drives utility negative; "
              "m=6 never paralyzes at n=%d\n\n",
              paralysis ? std::to_string(*paralysis).c_str() : "none", n);

  // 2. Stage-by-stage contagion through a TFT population.
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::MaliciousStrategy>(w_star, 2, 2));
  for (int i = 1; i < n; ++i) {
    pop.push_back(std::make_unique<game::TitForTat>(w_star));
  }
  game::RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(6);
  util::TextTable traj({"stage", "attacker W", "TFT W", "attacker payoff",
                        "TFT payoff"});
  for (std::size_t k = 0; k < result.history.size(); ++k) {
    const auto& rec = result.history[k];
    traj.add_row({std::to_string(k), std::to_string(rec.cw[0]),
                  std::to_string(rec.cw[1]),
                  util::fmt_double(rec.utility[0], 1),
                  util::fmt_double(rec.utility[1], 1)});
  }
  std::printf("%s\n", traj.to_string().c_str());
  std::printf(
      "Expectation: welfare decays monotonically as W_mal shrinks; the m=0\n"
      "column goes negative (collapse) while m=6 bottoms out positive; the\n"
      "trajectory shows one attack stage dragging all TFT players down for\n"
      "good — selfish TFT cannot recover from a malicious anchor.\n");
  return 0;
}
