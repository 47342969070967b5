// Extension — asymmetric player classes (relaxing g_i = g, e_i = e).
//
// The paper homogenizes utility coefficients "to simplify the problem".
// This harness plays the game with two classes (energy-cheap vs
// energy-dear) and reports each class's preferred common window, the TFT
// outcome W_m = min preference, the welfare-maximizing compromise, and
// who pays for the disagreement — the single-hop analogue of Theorem 3's
// quasi-optimality tension.
#include <cstdio>

#include "bench_common.hpp"
#include "game/asymmetric.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Asymmetric classes: energy-cheap vs energy-dear players",
      "paper §IV simplification (g_i = g, e_i = e) relaxed",
      "Basic access, 3 + 3 players, g = 1 for both classes.");

  util::TextTable table({"e_dear", "W pref (cheap)", "W pref (dear)",
                         "W_m (TFT)", "W welfare", "dear loss at W_m %",
                         "cheap loss at W welfare %"});
  for (double e_dear : {0.01, 0.05, 0.15, 0.35, 0.6}) {
    const game::AsymmetricGame game(phy::Parameters::paper(),
                                    phy::AccessMode::kBasic,
                                    {{1.0, 0.01, 3}, {1.0, e_dear, 3}});
    const int w_cheap = game.preferred_common_window(0);
    const int w_dear = game.preferred_common_window(1);
    const int w_m = game.tft_outcome_window();
    const int w_welfare = game.welfare_maximizing_common_window();
    const double dear_loss =
        1.0 - game.common_window_utility(1, w_m) /
                  game.common_window_utility(1, w_dear);
    const double cheap_loss =
        1.0 - game.common_window_utility(0, w_welfare) /
                  game.common_window_utility(0, w_cheap);
    table.add_row({util::fmt_double(e_dear, 2), std::to_string(w_cheap),
                   std::to_string(w_dear), std::to_string(w_m),
                   std::to_string(w_welfare),
                   util::fmt_percent(dear_loss, 2),
                   util::fmt_percent(cheap_loss, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Myopic collapse still happens with mixed classes.
  const game::AsymmetricGame game(phy::Parameters::paper(),
                                  phy::AccessMode::kBasic,
                                  {{1.0, 0.01, 3}, {1.0, 0.35, 3}});
  const auto br = game.iterated_best_response(std::vector<int>(6, 150), 40);
  std::printf("myopic best-response fixed point: [");
  for (std::size_t i = 0; i < br.profile.size(); ++i) {
    std::printf(i ? " %d" : "%d", br.profile[i]);
  }
  std::printf("] (converged: %s, rounds: %d)\n\n",
              br.converged ? "yes" : "no", br.rounds);
  std::printf(
      "Expectation: the dear class prefers larger windows (each attempt\n"
      "costs more), the gap widening with e_dear; TFT lands on the cheap\n"
      "class's preference and the dear class eats the loss; the welfare\n"
      "window sits between the two. Myopic play ends in *monopolization*,\n"
      "not symmetric collapse: the cheap player dives to W = 1, which\n"
      "drives the dear players' expected reward (1-p)g below their cost e,\n"
      "and their best response is to withdraw to W_max — the selfish\n"
      "stage game prices the energy-constrained class off the channel.\n");
  return 0;
}
