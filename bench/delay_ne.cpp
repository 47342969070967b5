// §VIII extension — access delay at the NE and delay-aware equilibria.
//
// The paper concedes its utility ignores delay and that "the CW value of
// NE may seem too long in some cases"; deriving "a more desirable NE"
// from a richer utility is left as future work. This harness does it:
// it tabulates the mean/σ access delay along the NE band, shows that for
// the paper's own utility the efficient NE already sits at the delay
// minimum (maximizing q/T_slot and minimizing T_slot/q coincide when
// g ≫ e), and sweeps the delay-penalty weight λ to show how a
// latency-priced utility shrinks the equilibrium window.
#include <cstdio>

#include "analytical/delay.hpp"
#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Access delay at the NE and delay-aware equilibria",
      "paper §VIII discussion (delay-extended utility = future work)",
      "Basic access. Delays in ms.");

  const phy::Parameters params = phy::Parameters::paper();
  const auto mode = phy::AccessMode::kBasic;
  const game::StageGame game(params, mode);

  // 1. Delay profile across the NE band for n = 5/20/50.
  util::TextTable profile({"n", "W", "E[D] (ms)", "SD[D] (ms)", "note"});
  for (int n : {5, 20, 50}) {
    const game::EquilibriumFinder finder(game, n);
    const int w_star = finder.efficient_cw();
    for (double f : {0.1, 0.5, 1.0, 4.0, 16.0}) {
      const int w = std::max(1, static_cast<int>(w_star * f));
      const auto d = analytical::homogeneous_access_delay(w, n, params, mode);
      profile.add_row({std::to_string(n), std::to_string(w),
                       util::fmt_double(d.mean_us / 1e3, 1),
                       util::fmt_double(d.stddev_us / 1e3, 1),
                       f == 1.0 ? "<- W_c*" : ""});
    }
  }
  std::printf("%s\n", profile.to_string().c_str());

  // 2. Delay-penalized NE vs λ.
  util::TextTable aware({"lambda", "W* (n=20)", "E[D] at W* (ms)",
                         "throughput-utility kept %"});
  const int w0 = analytical::delay_aware_efficient_cw(20, params, mode, 0.0);
  const double u0 = game.homogeneous_utility_rate(w0, 20);
  for (double lambda : {0.0, 1e-13, 1e-12, 1e-11, 1e-10}) {
    const int w = analytical::delay_aware_efficient_cw(20, params, mode,
                                                       lambda);
    const auto d = analytical::homogeneous_access_delay(w, 20, params, mode);
    aware.add_row({util::fmt_double(lambda * 1e12, 2) + "e-12",
                   std::to_string(w),
                   util::fmt_double(d.mean_us / 1e3, 1),
                   util::fmt_double(
                       game.homogeneous_utility_rate(w, 20) / u0 * 100.0,
                       2)});
  }
  std::printf("%s\n", aware.to_string().c_str());
  std::printf(
      "Expectation: delay at W_c* is the minimum of each n-row, and the\n"
      "lambda sweep barely moves the equilibrium. Both follow from one\n"
      "structural fact: with g >> e, maximizing u ~ q/T_slot and minimizing\n"
      "E[D] = T_slot/q are the same program, so the efficient NE is already\n"
      "latency-optimal. Sec. VIII's worry that the NE window 'may seem too\n"
      "long' does not materialize under the saturated model — a delay-aware\n"
      "utility reshapes the NE only once saturation is relaxed (see\n"
      "bench_nonsaturated) or delay enters nonlinearly (deadlines).\n");
  return 0;
}
