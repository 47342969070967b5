// Scenario: a mixed population — laptops vs battery sensors.
//
// Half the stations are mains-powered (transmission cost e = 0.01), half
// run on batteries (configurable, default e = 0.35). The example shows
// the asymmetric game's structure: who wants which common window, what
// TFT actually delivers, what a welfare-maximizing convention would pick,
// and what raw myopic selfishness does to the battery class.
//
// All knobs are key=value arguments, e.g.:
//   ./build/examples/asymmetric_classes n_per_class=4 e_dear=0.5 mode=basic
#include <cstdio>
#include <string>
#include <vector>

#include "example_args.hpp"
#include "game/asymmetric.hpp"
#include "phy/energy.hpp"

int main(int argc, char** argv) {
  using namespace smac;
  int n_per_class = 3;
  double e_cheap = 0.01;
  double e_dear = 0.35;
  auto mode = phy::AccessMode::kBasic;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const std::size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    bool ok = !value.empty();
    if (ok && key == "n_per_class") {
      ok = examples::parse_int(value.c_str(), 1, n_per_class);
    } else if (ok && (key == "e_cheap" || key == "e_dear")) {
      double& cost = key == "e_cheap" ? e_cheap : e_dear;
      ok = examples::parse_finite(value.c_str(), cost) && cost >= 0.0;
    } else if (ok && key == "mode") {
      ok = value == "basic" || value == "rts-cts";
      if (value == "rts-cts") mode = phy::AccessMode::kRtsCts;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad argument '%s' (expected n_per_class=N >= 1, "
                   "e_cheap=X or e_dear=X finite and >= 0, or "
                   "mode=basic|rts-cts)\n",
                   argv[i]);
      return 1;
    }
  }

  const phy::Parameters params = phy::Parameters::paper();
  const game::AsymmetricGame game(
      params, mode,
      {{1.0, e_cheap, n_per_class}, {1.0, e_dear, n_per_class}});

  std::printf("population: %d mains-powered (e=%.2f) + %d battery (e=%.2f), "
              "%s access\n\n",
              n_per_class, e_cheap, n_per_class, e_dear,
              to_string(mode).c_str());

  const int w_cheap = game.preferred_common_window(0);
  const int w_dear = game.preferred_common_window(1);
  const int w_m = game.tft_outcome_window();
  const int w_welfare = game.welfare_maximizing_common_window();
  std::printf("preferred common window:  mains %d, battery %d\n", w_cheap,
              w_dear);
  std::printf("TFT converges to:         W_m = %d (the min preference)\n",
              w_m);
  std::printf("welfare-optimal common W: %d\n\n", w_welfare);

  std::printf("battery-class utility across candidate conventions:\n");
  for (int w : {w_m, w_welfare, w_dear}) {
    std::printf("  W=%4d: u_battery = %.3e, u_mains = %.3e\n", w,
                game.common_window_utility(1, w),
                game.common_window_utility(0, w));
  }

  // What happens without any convention at all.
  const auto br = game.iterated_best_response(
      std::vector<int>(static_cast<std::size_t>(2 * n_per_class), w_welfare),
      50);
  std::printf("\nmyopic free-for-all fixed point: [");
  for (std::size_t i = 0; i < br.profile.size(); ++i) {
    std::printf(i ? " %d" : "%d", br.profile[i]);
  }
  std::printf("]\n");
  const auto u = game.utility_rates(br.profile);
  std::printf("  utilities: mains %.3e, battery %.3e\n", u[0],
              u[static_cast<std::size_t>(n_per_class)]);
  std::printf(
      "  -> without the TFT convention the cheap class monopolizes the\n"
      "     channel and the battery class is priced off the air.\n");
  return 0;
}
