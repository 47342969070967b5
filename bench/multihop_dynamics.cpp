// Multi-hop TFT dynamics under mobility (paper §VI convergence argument).
//
// §VI argues windows converge to the global minimum "after sufficiently
// long time as long as the network is not partitioned", with contagion
// spreading one hop per stage. This harness plays the dynamics on the
// spatial simulator and measures: stages to convergence vs topology
// diameter (static), and the effect of mobility speed — movement both
// carries minima across partitions and keeps re-wiring who observes whom.
// Sweep points are independent experiments and fan across --jobs; each
// keeps its own fixed seed, so the tables are identical at any job count.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "game/stage_game.hpp"
#include "multihop/adaptive.hpp"
#include "multihop/local_game.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace smac;

int main(int argc, char** argv) {
  bench::check_args(argc, argv,
                    {"--jobs", "--ci-target", "--ci-rel", "--max-reps"});
  bench::print_header(
      "Multi-hop TFT dynamics: convergence vs diameter and mobility",
      "paper §VI (contagion of the minimum window)",
      "RTS/CTS, local-NE seeds, slot-level spatial simulator.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  parallel::ThreadPool pool(jobs);
  bench::print_jobs(jobs);

  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);

  // 1. Static: stages-to-stable tracks the hop distance from the minimum.
  const std::vector<int> chain_lengths{4, 8, 12, 16};
  std::vector<std::vector<std::string>> static_rows(chain_lengths.size());
  pool.for_each_index(chain_lengths.size(), [&](std::size_t idx) {
    const int n = chain_lengths[idx];
    std::vector<multihop::Vec2> pos;
    for (int i = 0; i < n; ++i) pos.push_back({i * 200.0, 0.0});
    const multihop::Topology topo(pos, 250.0);
    std::vector<int> seed(static_cast<std::size_t>(n), 60);
    seed[0] = 15;  // minimum at one end
    multihop::MultihopConfig config;
    config.seed = 7;
    multihop::MultihopSimulator sim(config, topo, seed);
    multihop::MultihopTftConfig tft;
    tft.slots_per_stage = 8000;
    tft.stages = n + 2;
    const auto result = multihop::play_multihop_tft(sim, nullptr, tft);
    static_rows[idx] = {std::to_string(n), std::to_string(topo.diameter()),
                        std::to_string(result.stable_from),
                        std::to_string(result.converged_cw.value_or(-1))};
  });
  util::TextTable static_table({"chain length", "diameter", "stable from",
                                "W_m"});
  for (auto& row : static_rows) static_table.add_row(std::move(row));
  std::printf("%s\n", static_table.to_string().c_str());

  // 2. Mobile: 30 nodes, sparse (sometimes partitioned) field; how fast
  //    does the global minimum reach everyone as speed grows?
  const std::vector<double> speeds{0.0, 2.0, 8.0, 20.0};
  std::vector<std::vector<std::string>> mobile_rows(speeds.size());
  pool.for_each_index(speeds.size(), [&](std::size_t idx) {
    const double v_max = speeds[idx];
    multihop::MobilityConfig mob;
    mob.width_m = 1200.0;
    mob.height_m = 1200.0;
    mob.v_min_mps = 0.0;
    mob.v_max_mps = std::max(v_max, 1e-9);
    mob.seed = 11;
    multihop::RandomWaypointModel mobility(mob, 30);

    multihop::MultihopConfig config;
    config.seed = 13;
    const multihop::Topology topo0(mobility.positions(), 250.0);
    const auto seeds = multihop::local_efficient_cw(topo0, game);
    multihop::MultihopSimulator sim(config, topo0, seeds);

    multihop::MultihopTftConfig tft;
    tft.slots_per_stage = 6000;
    tft.stages = 40;
    tft.mobility_dt_s = v_max > 0.0 ? 20.0 : 0.0;
    const auto result = multihop::play_multihop_tft(sim, &mobility, tft);

    const auto& last = result.stages.back().cw;
    mobile_rows[idx] = {
        util::fmt_double(v_max, 1), std::to_string(result.stages.size()),
        result.converged_cw ? "yes" : "no",
        std::to_string(*std::min_element(last.begin(), last.end())),
        std::to_string(*std::max_element(last.begin(), last.end()))};
  });
  util::TextTable mobile_table({"speed (m/s)", "stages run",
                                "uniform at end", "final min W",
                                "final max W"});
  for (auto& row : mobile_rows) mobile_table.add_row(std::move(row));
  std::printf("%s\n", mobile_table.to_string().c_str());

  // 3. Replicated batch: measurement noise of one spatial configuration
  //    (12-node chain at the converged window), seed-streams fanned
  //    across jobs and streaming-reduced. Default: fixed 8 replications;
  //    --ci-target X replicates (up to --max-reps, batches of 4) until
  //    the success-fraction CI half-width falls below X.
  {
    std::vector<multihop::Vec2> pos;
    for (int i = 0; i < 12; ++i) pos.push_back({i * 200.0, 0.0});
    const multihop::Topology topo(pos, 250.0);
    multihop::MultihopConfig config;
    config.seed = 29;
    const parallel::StoppingRule rule = bench::resolve_stopping(
        bench::stopping_option(argc, argv), "success fraction", 8, 4);
    const auto batch = multihop::run_replicated(
        config, topo, std::vector<int>(12, 15), 5000, rule, jobs);
    std::printf("replicated 12-chain at W = 15:\n%s\n%s\n",
                batch.stopping.summary().c_str(),
                util::format_metric_summaries(batch.metrics).c_str());
  }
  std::printf(
      "Expectation: static chains stabilize in exactly diameter stages (one\n"
      "hop of contagion per stage); on the sparse mobile field a static\n"
      "snapshot can stay non-uniform (partitions keep their own minima)\n"
      "while increasing speed mixes partitions and drives the profile to\n"
      "the global minimum. The replication CI quantifies how much of any\n"
      "single-run payoff figure is seed noise.\n");
  return 0;
}
