// §IX extension — the rate-control game.
//
// The paper's closing claim: the framework extends to "other selfish
// behaviors such as rate control by redefining the proper utility
// function". This harness plays that game (payload size as the strategic
// variable, CW pinned at the MAC-game NE) and reports:
//   * the race-to-max regime at BER = 0 (the Tan-Guttag inefficiency [7]
//     the paper cites);
//   * interior social optima and selfish equilibria for BER > 0, with the
//     selfish frame size sitting above the social optimum (externalized
//     collision cost) in basic mode;
//   * RTS/CTS removing the length externality (collisions never carry
//     data), which shrinks the gap.
#include <cstdio>

#include "bench_common.hpp"
#include "game/rate_game.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Rate-control game: selfish payload sizing",
      "paper §IX (framework extension) / Tan & Guttag [7] contrast",
      "n = 10, CW fixed at the MAC game's W_c*; payloads in bits.");

  util::TextTable table({"mode", "BER", "L social opt", "L selfish NE",
                         "gap %", "welfare at NE vs opt %"});
  for (auto mode : {phy::AccessMode::kBasic, phy::AccessMode::kRtsCts}) {
    for (double ber : {0.0, 1e-6, 1e-5, 5e-5, 2e-4}) {
      game::RateGameConfig config;
      config.mode = mode;
      config.bit_error_rate = ber;
      const game::RateGame rate_game(config);
      const double l_social = rate_game.efficient_payload();
      const double l_selfish = rate_game.equilibrium_payload();
      const double u_social = rate_game.homogeneous_utility_rate(l_social);
      const double u_selfish = rate_game.homogeneous_utility_rate(l_selfish);
      table.add_row(
          {to_string(mode), util::fmt_double(ber * 1e6, 1) + "e-6",
           util::fmt_double(l_social, 0), util::fmt_double(l_selfish, 0),
           util::fmt_double((l_selfish - l_social) / l_social * 100.0, 1),
           util::fmt_double(u_selfish / u_social * 100.0, 2)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // Externality check: how much one jumbo sender hurts a bystander.
  util::TextTable ext({"mode", "bystander utility drop from one jumbo %"});
  for (auto mode : {phy::AccessMode::kBasic, phy::AccessMode::kRtsCts}) {
    game::RateGameConfig config;
    config.mode = mode;
    config.bit_error_rate = 1e-5;
    const game::RateGame rate_game(config);
    std::vector<double> moderate(10, 8184.0);
    std::vector<double> jumbo = moderate;
    jumbo[0] = 60000.0;
    const double before = rate_game.utility_rates(moderate)[1];
    const double after = rate_game.utility_rates(jumbo)[1];
    ext.add_row({to_string(mode),
                 util::fmt_double((before - after) / before * 100.0, 1)});
  }
  std::printf("%s\n", ext.to_string().c_str());
  std::printf(
      "Expectation: BER = 0 races to the configured maximum payload in both\n"
      "modes (no gap — the Tan-Guttag regime); BER > 0 creates interior\n"
      "social optima that shrink as BER grows, while the selfish NE stays\n"
      "far above them (at moderate BER it still pins the cap), burning\n"
      "20-40%% of the achievable welfare. The jumbo externality is only\n"
      "slightly weaker under RTS/CTS: the collision externality disappears\n"
      "but the clock-share externality (long success slots slow everyone's\n"
      "schedule) remains and dominates.\n");
  return 0;
}
