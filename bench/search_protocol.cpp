// §V.C — the distributed search algorithm for the efficient NE.
//
// The paper proposes the Start-Search / Ready / broadcast protocol and
// argues it reaches W_c* without knowing n. This harness measures, for
// several network sizes and starting points, where the search lands, how
// many Ready rounds it takes, how much channel time it consumes, and what
// fraction of the optimal payoff the found window earns.
#include <cstdio>
#include <vector>

#include "analytical/utility.hpp"
#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "sim/search_protocol.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_serial_args(argc, argv);
  bench::print_header(
      "Search protocol convergence to the efficient NE",
      "paper §V.C (algorithm) + §VII.A robustness remark",
      "RTS/CTS access. payoff%% = model utility at the found window over\n"
      "the model utility at W_c*.");

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kRtsCts);

  util::TextTable table({"n", "W_c*", "start", "found", "steps",
                         "left-search", "channel time (s)", "payoff%"});
  for (int n : {5, 10, 20}) {
    const game::EquilibriumFinder finder(game, n);
    const int w_star = finder.efficient_cw();
    const double u_star = game.homogeneous_utility_rate(w_star, n);

    for (int start : {std::max(2, w_star / 4), w_star, w_star * 4}) {
      sim::SimConfig config;
      config.mode = phy::AccessMode::kRtsCts;
      config.seed = 0x5ea4c4 + static_cast<std::uint64_t>(n * 1000 + start);
      sim::Simulator simulator(config, std::vector<int>(n, start));

      sim::SearchConfig search;
      search.w_start = start;
      search.settle_us = 1e5;
      search.measure_us = 8e6;
      search.patience = 3;
      search.improvement_epsilon = 0.005;
      const sim::SearchResult r = sim::run_search(simulator, 0, search);

      const double u_found = game.homogeneous_utility_rate(r.w_found, n);
      table.add_row({std::to_string(n), std::to_string(w_star),
                     std::to_string(start), std::to_string(r.w_found),
                     std::to_string(r.steps),
                     r.used_left_search ? "yes" : "no",
                     util::fmt_double(r.elapsed_us / 1e6, 1),
                     util::fmt_double(u_found / u_star * 100.0, 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation: payoff%% >= ~95 everywhere — the found window sits on\n"
      "the W_c* plateau even when the exact argmax is missed (the paper's\n"
      "robustness observation makes this the operationally relevant metric).\n");
  return 0;
}
