// Enforcement invasion matrix: detection → calibrated reaction →
// rehabilitation, measured end to end.
//
// PR 5's tournament left a gap: contrite-tft (and forgiving-gtft) are
// INVADED by the relentless short-sighted deviant — forgiveness that
// rescues honest populations from observation noise also lets a deviant
// farm the drift-back. This harness measures whether the enforcement
// closed loop (sim::OnlineDetector SPRT → game::ReactionPolicy calibrated
// jamming episodes → rehabilitation) closes it:
//
//   1. the headline flip — PR 5's invasion verdicts (Basic access, n = 5,
//      300 stages) with enforcement off vs on;
//   2. a deviant × noise × monitor-filter grid (RTS/CTS, n = 6): flag
//      latency, episode accounting, and the deviant's payoff against the
//      enforced all-compliant counterfactual on the same fault stream;
//   3. false-flag calibration — a population that actually holds the
//      agreement, replicated, against the 1.5 × significance bound;
//   4. one grid cell replicated across fault trajectories under
//      sequential stopping;
//   5. multihop containment — the flooding protocol on a 6-node chain
//      with a pinned deviant, vs the TFT contagion baseline.
//
// Every cell runs under a fixed per-cell seed, fanned across --jobs and
// reduced in grid order — stdout is byte-identical for any jobs value (the
// acceptance check diffs --jobs 1 against --jobs 4, so nothing here may
// print the job count). Also writes BENCH_enforcement.json (--out PATH to
// move it): flag latency in stages and deviant payoff delta vs honest;
// a file that cannot be written exits 1.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "game/equilibrium.hpp"
#include "game/reaction.hpp"
#include "game/repeated_game.hpp"
#include "game/stage_game.hpp"
#include "game/tournament.hpp"
#include "multihop/adaptive.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

constexpr int kPlayers = 6;     // RTS/CTS grid network size
constexpr int kStages = 200;    // grid horizon
constexpr std::uint64_t kBaseSeed = 0xe4f0;

// ---------------------------------------------------------------------
// Grid machinery: one enforced repeated game under a given noise level.

game::ReactionConfig reaction_config(int w_agreed, bool monitor_filter) {
  game::ReactionConfig rc;
  rc.w_agreed = w_agreed;
  if (monitor_filter) {
    rc.monitor_filter.kind = game::FilterKind::kMedian;
    rc.monitor_filter.window = 3;
  }
  return rc;
}

game::RepeatedGameResult play(
    const game::StageGame& game,
    std::vector<std::unique_ptr<game::Strategy>> pop,
    const game::ReactionConfig* rc, double noise, std::uint64_t seed) {
  game::RepeatedGameEngine engine(game, std::move(pop));
  if (rc != nullptr) {
    engine.set_enforcement(*rc);
    // The recommended stack pairs enforcement with the PR 5 player-side
    // median filter, so compliant reactions don't chase phantom reads.
    game::ObservationFilterConfig fc;
    fc.kind = game::FilterKind::kMedian;
    fc.window = 3;
    engine.set_observation_filter(fc);
  }
  if (noise <= 0.0) return engine.play(kStages);
  fault::FaultPlan plan;
  plan.observation.noise_probability = noise;
  plan.observation.noise_magnitude = 4;
  fault::FaultInjector injector(plan, kPlayers, seed);
  return engine.play(kStages, &injector);
}

std::unique_ptr<game::Strategy> make_deviant(int kind, int w_coop) {
  if (kind == 0) {
    return std::make_unique<game::ShortSightedStrategy>(
        std::max(1, w_coop / 4));
  }
  return std::make_unique<game::MaliciousStrategy>(w_coop, 2, 3);
}

const char* deviant_name(int kind) {
  return kind == 0 ? "short-sighted" : "malicious";
}

struct GridCell {
  int deviant = 0;            ///< 0 short-sighted, 1 malicious
  double noise = 0.0;
  bool monitor_filter = false;
  game::EnforcementReport report;
  double deviant_payoff = 0.0;       ///< deviant's total utility, enforced
  double counterfactual = 0.0;       ///< member of enforced honest pop
  double delta = 0.0;                ///< deviant_payoff − counterfactual
};

GridCell run_grid_cell(const game::StageGame& game, int w_coop, int deviant,
                       double noise, bool monitor_filter,
                       std::uint64_t seed) {
  GridCell cell;
  cell.deviant = deviant;
  cell.noise = noise;
  cell.monitor_filter = monitor_filter;
  const game::ReactionConfig rc = reaction_config(w_coop, monitor_filter);

  auto pop = game::make_contrite_population(kPlayers - 1, w_coop, 3);
  pop.push_back(make_deviant(deviant, w_coop));
  const auto enforced = play(game, std::move(pop), &rc, noise, seed);
  cell.report = enforced.enforcement;
  cell.deviant_payoff = enforced.total_utility.back();

  // The §V.D counterfactual: the same protocol, the same fault stream,
  // but the deviant slot plays compliantly. Deviating is unprofitable iff
  // the deviant earned less than it would have by just cooperating.
  const auto honest = play(
      game, game::make_contrite_population(kPlayers, w_coop, 3), &rc, noise,
      seed);
  double sum = 0.0;
  for (const double u : honest.total_utility) sum += u;
  cell.counterfactual = sum / static_cast<double>(kPlayers);
  cell.delta = cell.deviant_payoff - cell.counterfactual;
  return cell;
}

struct FlagCount {
  double noise = 0.0;
  int episodes = 0;
  int runs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::check_args(argc, argv, {"--jobs", "--out", "--ci-target",
                                 "--ci-rel", "--max-reps"});
  bench::print_header(
      "Enforcement: online detection -> calibrated reaction -> rehabilitation",
      "robustness extension of paper §V.C/§V.D (detection + punishment)",
      "SPRT monitor flags deviants; compliant players serve gain-calibrated\n"
      "jamming episodes and rehabilitate the offender. Measures the PR 5\n"
      "invasion flip, flag latency, deviant profitability, false flags,\n"
      "and multihop containment. Deterministic per-cell seeds.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  parallel::ThreadPool pool(jobs);
  // Deliberately no jobs line: output must be byte-identical at any --jobs.
  const char* out_flag = bench::option_value(argc, argv, "--out");
  const std::string out_path =
      out_flag != nullptr ? out_flag : "BENCH_enforcement.json";

  const phy::Parameters params = phy::Parameters::paper();

  // -------------------------------------------------------------------
  // 1. Headline: does enforcement flip PR 5's invasion verdicts?
  //    Same setting as bench_tournament: Basic access, n = 5, 300 stages.
  const game::StageGame basic(params, phy::AccessMode::kBasic);
  const int n5 = 5;
  const int w5 = game::EquilibriumFinder(basic, n5).efficient_cw();
  const auto residents = game::enforcement_roster(basic, n5, w5);
  const auto deviants = game::deviant_roster(w5);

  game::Tournament unenforced(basic, n5, 300, jobs);
  game::Tournament enforced5(basic, n5, 300, jobs);
  enforced5.set_enforcement(reaction_config(w5, false));

  struct Flip {
    bool off = false;
    bool on = false;
  };
  std::vector<Flip> flips(residents.size() * deviants.size());
  pool.for_each_index(flips.size(), [&](std::size_t k) {
    const auto& res = residents[k / deviants.size()];
    const auto& dev = deviants[k % deviants.size()];
    flips[k].off = unenforced.resists_invasion(res, dev);
    flips[k].on = enforced5.resists_invasion(res, dev);
  });

  std::printf("headline: PR 5 invasion verdicts, Basic access, n = %d, "
              "W* = %d, 300 stages\n", n5, w5);
  util::TextTable headline(
      {"population \\ mutant", "vs " + deviants[0].name + " (off -> on)",
       "vs " + deviants[1].name + " (off -> on)"});
  for (std::size_t i = 0; i < residents.size(); ++i) {
    std::vector<std::string> row{residents[i].name};
    for (std::size_t j = 0; j < deviants.size(); ++j) {
      const Flip& f = flips[i * deviants.size() + j];
      const std::string off = f.off ? "resists" : "INVADED";
      const std::string on = f.on ? "resists" : "INVADED";
      row.push_back(off + " -> " + on + (f.on && !f.off ? "  (flip)" : ""));
    }
    headline.add_row(std::move(row));
  }
  std::printf("%s\n", headline.to_string().c_str());
  const game::MixOutcome sample =
      enforced5.play_mix(residents[2], deviants[0], n5 - 1);
  std::printf("sample enforced mix (%s vs %s): %s\n\n",
              residents[2].name.c_str(), deviants[0].name.c_str(),
              sample.enforcement.summary().c_str());

  // -------------------------------------------------------------------
  // 2. The grid: deviant type x observation noise x monitor filter.
  const game::StageGame rtscts(params, phy::AccessMode::kRtsCts);
  const int w_star = game::EquilibriumFinder(rtscts, kPlayers).efficient_cw();
  const std::vector<double> noise_levels{0.0, 0.05, 0.15};
  const std::vector<bool> filter_variants{false, true};

  std::vector<GridCell> cells(2 * noise_levels.size() *
                              filter_variants.size());
  pool.for_each_index(cells.size(), [&](std::size_t k) {
    const int deviant = static_cast<int>(k / (noise_levels.size() *
                                              filter_variants.size()));
    const std::size_t rest =
        k % (noise_levels.size() * filter_variants.size());
    const double noise = noise_levels[rest / filter_variants.size()];
    const bool filtered = filter_variants[rest % filter_variants.size()];
    cells[k] = run_grid_cell(rtscts, w_star, deviant, noise, filtered,
                             parallel::stream_seed(kBaseSeed, k));
  });

  std::printf("invasion grid: %d contrite(3) residents + 1 deviant, RTS/CTS, "
              "n = %d, W* = %d, %d stages,\nplayer-side median(3) filter; "
              "payoffs are total utility over the run, the counterfactual\n"
              "is a member of the enforced all-compliant population on the "
              "same fault stream:\n", kPlayers - 1, kPlayers, w_star, kStages);
  util::TextTable grid({"deviant", "noise", "monitor", "first flag",
                        "episodes", "punished", "rehabs", "deviant payoff",
                        "counterfactual", "delta", "verdict"});
  for (const GridCell& cell : cells) {
    grid.add_row(
        {deviant_name(cell.deviant), util::fmt_double(cell.noise, 2),
         cell.monitor_filter ? "median(3)" : "raw",
         std::to_string(cell.report.first_flag_stage),
         std::to_string(cell.report.episodes),
         std::to_string(cell.report.punished_stages),
         std::to_string(cell.report.rehabilitations),
         util::fmt_double(cell.deviant_payoff, 1),
         util::fmt_double(cell.counterfactual, 1),
         util::fmt_double(cell.delta, 1),
         cell.delta < 0.0 ? "unprofitable" : "PROFITABLE"});
  }
  std::printf("%s\n", grid.to_string().c_str());

  // The gap the loop closes: the same deviant, no enforcement.
  {
    auto pop = game::make_contrite_population(kPlayers - 1, w_star, 3);
    pop.push_back(make_deviant(0, w_star));
    const auto open = play(rtscts, std::move(pop), nullptr, 0.0, 0);
    std::printf("unenforced contrast (short-sighted vs contrite, no noise): "
                "deviant %.1f vs resident %.1f — the PR 5 invasion.\n\n",
                open.total_utility.back(), open.total_utility.front());
  }

  // -------------------------------------------------------------------
  // 3. False-flag calibration: the SPRT's H0, replicated.
  const double alpha = game::ReactionConfig{}.detector.significance;
  const int reps = 20;
  std::vector<int> flag_slots(noise_levels.size() *
                              static_cast<std::size_t>(reps));
  pool.for_each_index(flag_slots.size(), [&](std::size_t k) {
    const double noise = noise_levels[k / static_cast<std::size_t>(reps)];
    const game::ReactionConfig rc = reaction_config(w_star, false);
    std::vector<std::unique_ptr<game::Strategy>> pop;
    for (int i = 0; i < kPlayers; ++i) {
      pop.push_back(std::make_unique<game::ConstantStrategy>(w_star));
    }
    const auto result = play(rtscts, std::move(pop), &rc, noise,
                             parallel::stream_seed(kBaseSeed ^ 0xff, k));
    flag_slots[k] = result.enforcement.episodes;
  });
  std::vector<FlagCount> flag_counts;
  for (std::size_t a = 0; a < noise_levels.size(); ++a) {
    FlagCount fc;
    fc.noise = noise_levels[a];
    fc.runs = reps;
    for (int r = 0; r < reps; ++r) {
      fc.episodes += flag_slots[a * static_cast<std::size_t>(reps) +
                                static_cast<std::size_t>(r)];
    }
    flag_counts.push_back(fc);
  }
  const double bound = 1.5 * alpha * reps * kPlayers;
  std::printf("false-flag calibration: %d constant-W* players (true H0), "
              "%d reps, bound = 1.5 x alpha x reps x players = %.1f:\n",
              kPlayers, reps, bound);
  util::TextTable fp({"noise", "false-flag episodes", "bound", "verdict"});
  for (const FlagCount& fc : flag_counts) {
    fp.add_row({util::fmt_double(fc.noise, 2), std::to_string(fc.episodes),
                util::fmt_double(bound, 1),
                static_cast<double>(fc.episodes) <= bound ? "ok" : "OVER"});
  }
  std::printf("%s", fp.to_string().c_str());
  std::printf("(magnitude-4 noise around W* implies a tau below the SPRT's "
              "break-even rate, so the\nmeasured count is structurally 0 — "
              "the bound is the property, not the estimate.)\n\n");

  // -------------------------------------------------------------------
  // 4. One grid cell replicated across fault trajectories under
  //    sequential stopping (short-sighted, 5% noise, raw monitor).
  {
    const parallel::StoppingRule rule = bench::resolve_stopping(
        bench::stopping_option(argc, argv), "deviant delta", 6, 3);
    const auto summary = parallel::run_sequential(
        {"deviant payoff", "counterfactual", "deviant delta",
         "first flag stage"},
        rule, kBaseSeed ^ 0x5eedULL, jobs,
        [&](std::uint64_t seed, std::size_t /*index*/) {
          const GridCell cell =
              run_grid_cell(rtscts, w_star, 0, 0.05, false, seed);
          return std::vector<double>{
              cell.deviant_payoff, cell.counterfactual, cell.delta,
              static_cast<double>(cell.report.first_flag_stage)};
        });
    std::printf("replicated cell (short-sighted, noise 0.05, raw monitor; "
                "override: --ci-target X, --ci-rel X, --max-reps N):\n%s\n%s\n",
                summary.stopping.summary().c_str(),
                util::format_metric_summaries(summary.metrics).c_str());
  }

  // -------------------------------------------------------------------
  // 5. Multihop containment: flooding protocol vs TFT contagion on a
  //    6-node chain with node 2 pinned at w = 2, outside the protocol.
  multihop::MultihopTftResult mh_tft;
  multihop::MultihopTftResult mh_enf;
  double dev_tft = 0.0;
  double dev_enf = 0.0;
  {
    std::vector<multihop::Vec2> pos;
    for (int i = 0; i < 6; ++i) pos.push_back({i * 200.0, 0.0});
    const multihop::Topology topo(pos, 250.0);
    multihop::MultihopConfig mc;
    mc.seed = 9;
    const std::vector<int> seed_windows{32, 32, 2, 32, 32, 32};
    multihop::MultihopTftConfig tc;
    tc.slots_per_stage = 15000;
    tc.stages = 24;

    multihop::MultihopSimulator tft_sim(mc, topo, seed_windows);
    mh_tft = play_multihop_tft(tft_sim, nullptr, tc);
    multihop::MultihopSimulator enf_sim(mc, topo, seed_windows);
    multihop::MultihopEnforcementConfig ec;
    ec.compliant = {1, 1, 0, 1, 1, 1};
    mh_enf = play_multihop_enforced(enf_sim, nullptr, tc, ec);
    for (int k = 0; k < tc.stages; ++k) {
      dev_tft += mh_tft.stages[static_cast<std::size_t>(k)].payoff[2];
      dev_enf += mh_enf.stages[static_cast<std::size_t>(k)].payoff[2];
    }
    std::printf("multihop containment (6-node chain, node 2 pinned at w = 2, "
                "%d stages x %llu slots):\n"
                "  graph-local TFT : converged W = %s (contagion — the whole "
                "chain matches down)\n"
                "  enforcement     : flags=%d episodes=%d punished=%d "
                "rehabs=%d; non-neighbors hold W = 32\n"
                "  deviant payoff  : %.3e enforced vs %.3e under TFT "
                "(%s)\n\n",
                tc.stages,
                static_cast<unsigned long long>(tc.slots_per_stage),
                mh_tft.converged_cw ? std::to_string(*mh_tft.converged_cw)
                                          .c_str()
                                    : "mixed",
                mh_enf.flags_raised, mh_enf.punishment_episodes,
                mh_enf.punished_stages, mh_enf.rehabilitations, dev_enf,
                dev_tft, dev_enf < dev_tft ? "unprofitable" : "PROFITABLE");
  }

  // -------------------------------------------------------------------
  // JSON artifact: flag latency and deviant payoff delta vs honest.
  std::FILE* out = bench::open_output(out_path);
  if (out == nullptr) return 1;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"enforcement invasion matrix\",\n");
  std::fprintf(out,
               "  \"setting\": {\"access\": \"rts-cts\", \"players\": %d, "
               "\"w_star\": %d, \"stages\": %d},\n",
               kPlayers, w_star, kStages);
  std::fprintf(out, "  \"headline_flips\": [\n");
  for (std::size_t i = 0; i < residents.size(); ++i) {
    for (std::size_t j = 0; j < deviants.size(); ++j) {
      const Flip& f = flips[i * deviants.size() + j];
      std::fprintf(out,
                   "    {\"resident\": \"%s\", \"mutant\": \"%s\", "
                   "\"resists_unenforced\": %s, \"resists_enforced\": %s}%s\n",
                   residents[i].name.c_str(), deviants[j].name.c_str(),
                   f.off ? "true" : "false", f.on ? "true" : "false",
                   i + 1 < residents.size() || j + 1 < deviants.size() ? ","
                                                                       : "");
    }
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"grid\": [\n");
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const GridCell& c = cells[k];
    std::fprintf(out,
                 "    {\"deviant\": \"%s\", \"noise\": %.2f, "
                 "\"monitor_filter\": %s, \"flag_latency_stages\": %d, "
                 "\"episodes\": %d, \"punished_stages\": %d, "
                 "\"rehabilitations\": %d, \"deviant_payoff\": %.3f, "
                 "\"honest_counterfactual\": %.3f, \"payoff_delta\": %.3f, "
                 "\"unprofitable\": %s}%s\n",
                 deviant_name(c.deviant), c.noise,
                 c.monitor_filter ? "true" : "false",
                 c.report.first_flag_stage, c.report.episodes,
                 c.report.punished_stages, c.report.rehabilitations,
                 c.deviant_payoff, c.counterfactual, c.delta,
                 c.delta < 0.0 ? "true" : "false",
                 k + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"false_flags\": [\n");
  for (std::size_t a = 0; a < flag_counts.size(); ++a) {
    std::fprintf(out,
                 "    {\"noise\": %.2f, \"episodes\": %d, \"runs\": %d, "
                 "\"bound\": %.1f}%s\n",
                 flag_counts[a].noise, flag_counts[a].episodes,
                 flag_counts[a].runs, bound,
                 a + 1 < flag_counts.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"multihop\": {\"deviant_payoff_enforced\": %.6e, "
               "\"deviant_payoff_tft\": %.6e, \"flags\": %d, "
               "\"episodes\": %d, \"punished_stages\": %d, "
               "\"rehabilitations\": %d}\n",
               dev_enf, dev_tft, mh_enf.flags_raised,
               mh_enf.punishment_episodes, mh_enf.punished_stages,
               mh_enf.rehabilitations);
  std::fprintf(out, "}\n");
  if (!bench::close_output(out, out_path)) return 1;
  std::printf("wrote %s\n\n", out_path.c_str());

  std::printf(
      "Expectation: the headline table flips contrite-tft and\n"
      "forgiving-gtft from INVADED to resists against both deviants —\n"
      "enforcement supplies the deterrence their forgiveness gave up —\n"
      "while tft and gtft resist either way. In the grid every deviant\n"
      "row is flagged within a few stages and lands strictly below the\n"
      "honest counterfactual (delta < 0) at every noise level; the\n"
      "false-flag table stays at zero episodes because magnitude-4 noise\n"
      "cannot push a compliant node's implied tau past the SPRT's\n"
      "break-even rate. Multihop enforcement contains the deviation to\n"
      "the offender's neighborhood (no TFT contagion) and still makes\n"
      "deviating pay worse than the contagion it exploits.\n");
  return 0;
}
