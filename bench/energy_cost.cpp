// Ablation — grounding the game's cost parameter e in radio energy.
//
// The paper treats e as an abstract transmission cost ("nodes are
// energy-constrained"). This harness maps e to physics: per-event
// energies from a WaveLAN-class power profile, the long-run power draw
// each node pays at the NE, and how the efficient NE moves when e is
// derived from an actual energy price instead of the fixed 0.01.
#include <cstdio>

#include "analytical/fixed_point_solver.hpp"
#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "phy/energy.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Energy grounding of the cost parameter e",
      "paper §IV ('they are also energy-constrained'; e = 0.01 in Table I)",
      "WaveLAN-class power profile: tx 1900 mW, rx/idle 1340 mW.");

  const phy::Parameters params = phy::Parameters::paper();
  const phy::PowerProfile power;

  // 1. Event energies per access mode.
  util::TextTable events({"mode", "success (mJ)", "collision (mJ)",
                          "collision/success"});
  for (auto mode : {phy::AccessMode::kBasic, phy::AccessMode::kRtsCts}) {
    const double s = successful_exchange_energy(params, mode, power).total_mj();
    const double c = collided_attempt_energy(params, mode, power).total_mj();
    events.add_row({to_string(mode), util::fmt_double(s, 2),
                    util::fmt_double(c, 2), util::fmt_double(c / s, 3)});
  }
  std::printf("%s\n", events.to_string().c_str());

  // 2. Power draw at the efficient NE vs at an undercut profile.
  const game::StageGame game(params, phy::AccessMode::kBasic);
  const int n = 10;
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
  util::TextTable draw({"profile", "draw node0 (mW)", "draw others (mW)"});
  for (int w0 : {w_star, w_star / 8}) {
    std::vector<int> profile(n, w_star);
    profile[0] = w0;
    const auto state =
        analytical::try_solve_network(profile, params.max_backoff_stage).state;
    const auto mw = phy::node_power_draw_mw(state.tau, state.p, params,
                                            phy::AccessMode::kBasic, power);
    draw.add_row({w0 == w_star ? "all at W_c*" : "node0 undercuts to W_c*/8",
                  util::fmt_double(mw[0], 0), util::fmt_double(mw[1], 0)});
  }
  std::printf("%s\n", draw.to_string().c_str());

  // 3. NE sensitivity to an energy-derived e.
  util::TextTable ne({"energy price (gain/mJ)", "equivalent e",
                      "W_c* (n=10)"});
  for (double price : {0.0, 3e-4, 6e-4, 3e-3, 1.5e-2}) {
    const double e = phy::equivalent_transmission_cost(
        params, phy::AccessMode::kBasic, power, 0.1, price);
    phy::Parameters priced = params;
    priced.cost = e;
    const game::StageGame priced_game(priced, phy::AccessMode::kBasic);
    ne.add_row({util::fmt_double(price, 4), util::fmt_double(e, 4),
                std::to_string(
                    game::EquilibriumFinder(priced_game, n).efficient_cw())});
  }
  std::printf("%s\n", ne.to_string().c_str());
  std::printf(
      "Expectation: basic-mode collisions cost nearly as much energy as\n"
      "successes while RTS/CTS collisions are ~30x cheaper; an undercutter\n"
      "pays visibly more power than conformers; pricier energy (larger\n"
      "derived e) pushes the efficient NE to larger windows — transmit\n"
      "less when transmitting costs more.\n");
  return 0;
}
