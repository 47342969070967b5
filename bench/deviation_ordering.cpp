// Lemma 1 / Lemma 4 — numerical validation of the payoff orderings.
//
// Lemma 1: in any profile, W_i > W_j ⇒ p_i > p_j, τ_i < τ_j,
// U_i^s < U_j^s. Lemma 4: a unilateral deviation above (below) a
// homogeneous profile hurts (helps) the deviator relative to both the
// symmetric payoff and the conformers'. Both are verified on the model
// and on the slot-level simulator side by side.
#include <cstdio>
#include <vector>

#include "analytical/utility.hpp"
#include "bench_common.hpp"
#include "game/deviation.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Deviation payoff orderings",
      "paper Lemma 1 and Lemma 4 (numerical check, model + simulator)",
      "Basic access. U values are stage payoffs (T = 10 s).");

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kBasic);

  // Lemma 1: a strictly increasing profile.
  const std::vector<int> profile{20, 40, 80, 160, 320};
  const auto state =
      analytical::try_solve_network(profile, params.max_backoff_stage).state;
  const auto u_model = game.try_stage_utilities(profile).utilities;

  sim::SimConfig config;
  config.seed = 0xde71a7;
  sim::Simulator simulator(config, profile);
  const auto r = simulator.run_slots(600000);

  util::TextTable lemma1({"W_i", "tau (model)", "tau (sim)", "p (model)",
                          "p (sim)", "U^s (model)", "U^s (sim)"});
  for (std::size_t i = 0; i < profile.size(); ++i) {
    lemma1.add_row({std::to_string(profile[i]),
                    util::fmt_double(state.tau[i], 5),
                    util::fmt_double(r.measured_tau[i], 5),
                    util::fmt_double(state.p[i], 4),
                    util::fmt_double(r.measured_p[i], 4),
                    util::fmt_double(u_model[i], 1),
                    util::fmt_double(r.payoff_rate[i] * 1e7, 1)});
  }
  std::printf("%s\n", lemma1.to_string().c_str());

  // Lemma 4: deviations around a homogeneous profile at W = 100, n = 5.
  util::TextTable lemma4({"W_dev", "U_dev", "U_conform", "U_symmetric",
                          "ordering"});
  for (int w_dev : {25, 50, 75, 100, 150, 300}) {
    const auto d = game::deviation_stage_payoffs(game, 5, 100, w_dev);
    const char* ordering =
        w_dev < 100   ? (d.conformer < d.symmetric && d.symmetric < d.deviator
                             ? "U_j < U^s < U_i  (Lemma 4.2 OK)"
                             : "VIOLATED")
        : w_dev > 100 ? (d.deviator < d.symmetric && d.symmetric < d.conformer
                             ? "U_i < U^s < U_j  (Lemma 4.1 OK)"
                             : "VIOLATED")
                      : "degenerate (no deviation)";
    lemma4.add_row({std::to_string(w_dev), util::fmt_double(d.deviator, 1),
                    util::fmt_double(d.conformer, 1),
                    util::fmt_double(d.symmetric, 1), ordering});
  }
  std::printf("%s\n", lemma4.to_string().c_str());
  std::printf(
      "Expectation: tau decreasing / p increasing / U decreasing down the\n"
      "Lemma 1 table in both columns; every Lemma 4 row reports OK.\n");
  return 0;
}
