// TFT/GTFT convergence dynamics (paper §IV property 4 + GTFT design).
//
// The paper asserts that under TFT all players converge to a common
// window within a finite number of stages and that GTFT trades reaction
// speed for tolerance. This harness measures convergence stages from
// heterogeneous starts (model-driven and sim-driven engines) and sweeps
// the GTFT (β, r0) tolerance knobs — the design-choice ablation from
// DESIGN.md.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "game/repeated_game.hpp"
#include "parallel/replication.hpp"
#include "sim/adaptive_runtime.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

std::vector<int> heterogeneous_starts(int n, int lo, int hi,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> w(static_cast<std::size_t>(n));
  for (auto& wi : w) wi = static_cast<int>(rng.uniform_int(lo, hi));
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_args(argc, argv,
                    {"--jobs", "--ci-target", "--ci-rel", "--max-reps"});
  bench::print_header(
      "TFT / GTFT convergence",
      "paper §IV (TFT properties; GTFT tolerance parameters beta, r0)",
      "Basic access, n = 6, heterogeneous initial windows in [40, 400].");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  bench::print_jobs(jobs);

  const phy::Parameters params = phy::Parameters::paper();
  const game::StageGame game(params, phy::AccessMode::kBasic);
  const int n = 6;

  // 1. TFT from heterogeneous starts: converges to min in one stage in a
  //    single collision domain (full observation), both engines agreeing.
  //    The trials are independent Monte-Carlo replications (base seed
  //    100): each derives its starts and its simulator stream from the
  //    per-trial seed, so the table is identical at any --jobs.
  struct TrialRow {
    std::string starts;
    int converged = -1;
    int stable_from = 0;
    bool sim_agrees = false;
  };
  std::vector<TrialRow> rows(4);
  parallel::ThreadPool(jobs).for_each_index(
      rows.size(), [&](std::size_t trial) {
        const std::uint64_t seed = parallel::stream_seed(100, trial);
        const auto starts =
            heterogeneous_starts(n, 40, 400, parallel::stream_seed(seed, 0));
        std::vector<std::unique_ptr<game::Strategy>> model_pop;
        std::vector<std::unique_ptr<game::Strategy>> sim_pop;
        TrialRow& row = rows[trial];
        for (int w : starts) {
          model_pop.push_back(std::make_unique<game::TitForTat>(w));
          sim_pop.push_back(std::make_unique<game::TitForTat>(w));
          row.starts += std::to_string(w) + " ";
        }
        game::RepeatedGameEngine engine(game, std::move(model_pop));
        const auto model_result = engine.play(5);

        sim::SimConfig config;
        config.seed = parallel::stream_seed(seed, 1);
        sim::AdaptiveRuntime runtime(config, std::move(sim_pop), 3e5);
        const auto sim_result = runtime.play(5);

        row.converged = model_result.converged_cw.value_or(-1);
        row.stable_from = model_result.stable_from;
        row.sim_agrees = sim_result.converged_cw == model_result.converged_cw;
      });
  util::TextTable tft({"trial", "initial windows", "converged W",
                       "stable from stage", "sim agrees"});
  for (std::size_t trial = 0; trial < rows.size(); ++trial) {
    tft.add_row({std::to_string(trial), rows[trial].starts,
                 std::to_string(rows[trial].converged),
                 std::to_string(rows[trial].stable_from),
                 rows[trial].sim_agrees ? "yes" : "no"});
  }
  std::printf("%s\n", tft.to_string().c_str());

  // 2. GTFT tolerance ablation: an undercutter switches from 76 to w_def
  //    at stage 3; the r0-stage running average delays the reaction, and
  //    beta sets how deep an undercut is tolerated at all.
  util::TextTable gtft(
      {"beta", "r0", "defector W", "reacted", "reaction stage"});
  for (double beta : {0.7, 0.9, 0.97}) {
    for (int r0 : {1, 3, 6}) {
      for (int w_def : {70, 40}) {  // mild vs strong undercut of 76
        std::vector<std::unique_ptr<game::Strategy>> pop;
        for (int i = 0; i + 1 < n; ++i) {
          pop.push_back(
              std::make_unique<game::GenerousTitForTat>(76, beta, r0));
        }
        pop.push_back(std::make_unique<game::MaliciousStrategy>(76, w_def, 3));
        game::RepeatedGameEngine engine(game, std::move(pop));
        const auto result = engine.play(14);
        int reacted_stage = -1;
        for (std::size_t k = 0; k < result.history.size(); ++k) {
          if (result.history[k].cw[0] != 76) {
            reacted_stage = static_cast<int>(k);
            break;
          }
        }
        gtft.add_row({util::fmt_double(beta, 2), std::to_string(r0),
                      std::to_string(w_def),
                      reacted_stage >= 0 ? "yes" : "no",
                      std::to_string(reacted_stage)});
      }
    }
  }
  std::printf("%s\n", gtft.to_string().c_str());

  // 3. Adaptive replication of the trial family: the same experiment as
  //    table 1 under a sequential stopping rule, streamed instead of
  //    buffered. Convergence stage barely varies across starts, so a
  //    --ci-target stops the run at the first batch boundary; the default
  //    (target 0) streams the fixed budget. Stop points and aggregates
  //    are jobs-invariant.
  const parallel::StoppingRule rule = bench::resolve_stopping(
      bench::stopping_option(argc, argv), "stable stage", 16, 4);
  const auto summary = parallel::run_sequential(
      {"converged W", "stable stage", "sim agrees"}, rule, 100, jobs,
      [&](std::uint64_t seed, std::size_t /*trial*/) {
        const auto starts =
            heterogeneous_starts(n, 40, 400, parallel::stream_seed(seed, 0));
        std::vector<std::unique_ptr<game::Strategy>> model_pop;
        std::vector<std::unique_ptr<game::Strategy>> sim_pop;
        for (int w : starts) {
          model_pop.push_back(std::make_unique<game::TitForTat>(w));
          sim_pop.push_back(std::make_unique<game::TitForTat>(w));
        }
        game::RepeatedGameEngine engine(game, std::move(model_pop));
        const auto model_result = engine.play(5);
        sim::SimConfig config;
        config.seed = parallel::stream_seed(seed, 1);
        sim::AdaptiveRuntime runtime(config, std::move(sim_pop), 3e5);
        const auto sim_result = runtime.play(5);
        return std::vector<double>{
            static_cast<double>(model_result.converged_cw.value_or(-1)),
            static_cast<double>(model_result.stable_from),
            sim_result.converged_cw == model_result.converged_cw ? 1.0 : 0.0};
      });
  std::printf("Replicated convergence (override: --ci-target X, "
              "--ci-rel X, --max-reps N):\n%s\n%s\n",
              summary.stopping.summary().c_str(),
              util::format_metric_summaries(summary.metrics).c_str());

  std::printf(
      "Expectation: TFT converges to min(initial) with stable_from <= 1 and\n"
      "identical trajectories in both engines; GTFT ignores undercuts above\n"
      "beta*W (tolerant) and reacts to those below, later for larger r0.\n");
  return 0;
}
