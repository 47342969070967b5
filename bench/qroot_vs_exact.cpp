// Ablation — the paper's Q-root condition vs exact discrete maximization.
//
// Lemma 3 derives the efficient τ from Q(τ) = 0 under two approximations
// (g ≫ e and T_s ≈ T_c). This ablation quantifies, across n and both
// access modes, how far the Q-root window sits from the exact argmax of
// the unapproximated utility and how much payoff the approximation costs.
// It explains the Table III discrepancy: T_s ≈ T_c is fine in basic mode
// and poor under RTS/CTS, yet the payoff cost stays negligible because the
// optimum is a plateau.
#include <cmath>
#include <cstdio>

#include "analytical/utility.hpp"
#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Ablation: Lemma 3 Q-root vs exact discrete argmax",
      "paper Lemma 3 / Tables II-III methodology",
      "window gap and payoff cost of the paper's T_s ~ T_c approximation.");

  const phy::Parameters params = phy::Parameters::paper();
  util::TextTable table({"mode", "n", "W (Q-root)", "W (exact)", "gap %",
                         "payoff cost %"});
  for (auto mode : {phy::AccessMode::kBasic, phy::AccessMode::kRtsCts}) {
    const game::StageGame game(params, mode);
    for (int n : {2, 5, 10, 20, 50, 100}) {
      const game::EquilibriumFinder finder(game, n);
      const int w_exact = finder.efficient_cw();
      const auto w_qroot = finder.w_star_continuous();
      if (!w_qroot) continue;
      const int w_q = std::max(1, static_cast<int>(*w_qroot + 0.5));
      const double u_exact = game.homogeneous_utility_rate(w_exact, n);
      const double u_q = game.homogeneous_utility_rate(w_q, n);
      table.add_row(
          {to_string(mode), std::to_string(n), std::to_string(w_q),
           std::to_string(w_exact),
           util::fmt_double(
               std::abs(w_q - w_exact) * 100.0 / w_exact, 1),
           util::fmt_double((1.0 - u_q / u_exact) * 100.0, 3)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation: basic-mode gap stays within a few percent; RTS/CTS gap\n"
      "grows large (T_c' << T_s' breaks the approximation) but the payoff\n"
      "cost column stays near zero — both answers live on the plateau,\n"
      "which is why the paper's Table III values are operationally fine.\n");
  return 0;
}
