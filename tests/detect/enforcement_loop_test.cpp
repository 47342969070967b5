// The closed enforcement loop end to end (ctest -L detect): ReactionPolicy
// semantics driven standalone, deviant unprofitability through the
// repeated-game engine, the PR 5 invasion flip under Tournament
// enforcement, and the multihop flooding variant's containment.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "fault/fault_injector.hpp"
#include "game/equilibrium.hpp"
#include "game/reaction.hpp"
#include "game/repeated_game.hpp"
#include "game/tournament.hpp"
#include "multihop/adaptive.hpp"
#include "multihop/multihop_simulator.hpp"
#include "parallel/replication.hpp"
#include "phy/parameters.hpp"

namespace {

using namespace smac;

constexpr int kPlayers = 6;

const game::StageGame& rts_game() {
  static const game::StageGame game(phy::Parameters::paper(),
                                    phy::AccessMode::kRtsCts);
  return game;
}

int agreed_window() {
  static const int w =
      game::EquilibriumFinder(rts_game(), kPlayers).efficient_cw();
  return w;
}

game::ReactionConfig make_reaction() {
  game::ReactionConfig rc;
  rc.w_agreed = agreed_window();
  return rc;
}

game::StageRecord record_with(std::vector<int> cw) {
  game::StageRecord rec;
  rec.cw = std::move(cw);
  return rec;
}

TEST(ReactionConfigTest, ValidatesEveryField) {
  EXPECT_NO_THROW(make_reaction().validate());
  auto rc = make_reaction();
  rc.w_agreed = 0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc = make_reaction();
  rc.detector.significance = 0.0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc = make_reaction();
  rc.min_punishment_stages = 0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc = make_reaction();
  rc.max_punishment_stages = rc.min_punishment_stages - 1;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc = make_reaction();
  rc.penalty_margin = 0.0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc = make_reaction();
  rc.punishment_w = 0;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  rc = make_reaction();
  rc.punishment_w = rc.w_agreed + 1;
  EXPECT_THROW(rc.validate(), std::invalid_argument);
  // The policy ctor re-validates and also rejects tiny populations.
  EXPECT_THROW(game::ReactionPolicy(rts_game(), make_reaction(), 1),
               std::invalid_argument);
  // The engine fails fast on installation, not at the first play().
  auto pop = game::make_tft_population(kPlayers, agreed_window());
  game::RepeatedGameEngine engine(rts_game(), std::move(pop));
  rc = make_reaction();
  rc.detector.tolerance = 10.0;  // swallows the design cheat
  EXPECT_THROW(engine.set_enforcement(rc), std::invalid_argument);
}

TEST(ReactionPolicyTest, DetectorModelsTheGamesBackoffStage) {
  // The monitor's null rate is the compliant τ of the enforced game's own
  // model: at m = 3 it is the m = 3 fixed point, tolerance added.
  phy::Parameters params = phy::Parameters::paper();
  params.max_backoff_stage = 3;
  const game::StageGame game(params, phy::AccessMode::kRtsCts);
  const auto rc = make_reaction();
  const game::ReactionPolicy policy(game, rc, kPlayers);
  const double tau =
      analytical::try_homogeneous_tau(rc.w_agreed, kPlayers, 3).tau;
  EXPECT_EQ(policy.detector().tau_null(),
            tau * (1.0 + rc.detector.tolerance));
}

TEST(ReactionPolicyTest, ClosesTheLoopOnSyntheticObservations) {
  const auto rc = make_reaction();
  game::ReactionPolicy policy(rts_game(), rc, kPlayers);
  EXPECT_FALSE(policy.punishing());
  EXPECT_THROW(policy.offender(), std::logic_error);
  EXPECT_THROW(policy.punishment_window(), std::logic_error);
  EXPECT_EQ(policy.command(0, 7), 7);  // idle: decisions pass through

  // Player 3 operates W*/4; everyone else holds the agreement.
  std::vector<int> cw(kPlayers, rc.w_agreed);
  cw[3] = std::max(1, rc.w_agreed / 4);
  int stage = 0;
  while (!policy.punishing() && stage < 10) {
    policy.end_stage(record_with(cw), stage);
    ++stage;
  }
  ASSERT_TRUE(policy.punishing());
  EXPECT_LE(stage, 3);  // flag latency of the quarter-window cheat
  EXPECT_EQ(policy.offender(), 3u);
  EXPECT_EQ(policy.punishment_window(), rc.punishment_w);
  // Punishers are commanded to jam; the sanctioned offender is commanded
  // back to the agreement (meaningful for falsely-flagged compliants).
  EXPECT_EQ(policy.command(0, rc.w_agreed), rc.punishment_w);
  EXPECT_EQ(policy.command(3, cw[3]), rc.w_agreed);

  const auto& episode = policy.report().history.at(0);
  EXPECT_EQ(episode.offender, 3u);
  EXPECT_GT(episode.gain_per_stage, 0.0);
  EXPECT_GT(episode.loss_per_stage, 0.0);
  EXPECT_GE(episode.length, rc.min_punishment_stages);
  EXPECT_LE(episode.length, rc.max_punishment_stages);
  // A real deviation calibrates above the false-flag minimum.
  EXPECT_GT(episode.length, rc.min_punishment_stages);

  // Serve the sentence: the episode counts down and ends in
  // rehabilitation.
  for (int k = 0; k < episode.length; ++k) {
    ASSERT_TRUE(policy.punishing()) << "punished stage " << k;
    policy.end_stage(record_with(cw), stage + k);
  }
  EXPECT_FALSE(policy.punishing());
  const auto& report = policy.report();
  EXPECT_EQ(report.rehabilitations, 1);
  EXPECT_EQ(report.punished_stages, episode.length);
  EXPECT_EQ(report.first_flag_stage, stage - 1);
  EXPECT_TRUE(report.any());
  EXPECT_NE(report.summary(), "clean");
  EXPECT_FALSE(policy.detector().flagged(3));  // evidence cleared
}

TEST(ReactionPolicyTest, CalibrationRepaysTheEstimatedTheft) {
  // The what-if calibration prices the *total* estimated theft: per-stage
  // gain times the undetected streak, repaid with the penalty margin. A
  // blatant w = 2 cheat steals more per stage and is flagged sooner; a
  // marginal w = 8 cheat steals less per stage but for longer. Both must
  // repay: length × per-stage loss ≥ margin × per-stage gain (streak ≥ 1),
  // unless the episode cap truncates the sentence.
  const auto rc = make_reaction();
  struct Outcome {
    int first_flag = 0;
    game::PunishmentEpisode episode;
  };
  auto run = [&](int w_dev) {
    game::ReactionPolicy policy(rts_game(), rc, kPlayers);
    std::vector<int> cw(kPlayers, rc.w_agreed);
    cw[2] = w_dev;
    for (int stage = 0; stage < 40 && !policy.punishing(); ++stage) {
      policy.end_stage(record_with(cw), stage);
    }
    const auto& report = policy.report();
    EXPECT_FALSE(report.history.empty()) << "w_dev " << w_dev;
    return Outcome{report.first_flag_stage, report.history.at(0)};
  };
  const Outcome severe = run(2);
  const Outcome marginal = run(8);
  // Blatant cheats flag sooner and steal more per stage.
  EXPECT_LE(severe.first_flag, marginal.first_flag);
  EXPECT_GT(severe.episode.gain_per_stage, marginal.episode.gain_per_stage);
  for (const Outcome* o : {&severe, &marginal}) {
    EXPECT_GE(o->episode.length, rc.min_punishment_stages);
    EXPECT_LE(o->episode.length, rc.max_punishment_stages);
    const double repaid = o->episode.length * o->episode.loss_per_stage;
    const double owed = rc.penalty_margin * o->episode.gain_per_stage;
    EXPECT_TRUE(repaid >= owed ||
                o->episode.length == rc.max_punishment_stages)
        << "repaid " << repaid << " < owed " << owed;
  }
}

// Plays contrite residents (plus an optional deviant as the last player)
// with enforcement and the recommended median(3) player filter; returns
// mean per-stage utilities.
struct EnforcedRun {
  std::vector<double> per_stage;
  game::EnforcementReport enforcement;
};

EnforcedRun play_enforced(bool with_deviant, double noise,
                          std::uint64_t seed, int stages) {
  const int w = agreed_window();
  auto pop = game::make_contrite_population(
      with_deviant ? kPlayers - 1 : kPlayers, w, 3);
  if (with_deviant) {
    pop.push_back(
        std::make_unique<game::ShortSightedStrategy>(std::max(1, w / 4)));
  }
  game::RepeatedGameEngine engine(rts_game(), std::move(pop));
  engine.set_enforcement(make_reaction());
  game::ObservationFilterConfig fc;
  fc.kind = game::FilterKind::kMedian;
  fc.window = 3;
  engine.set_observation_filter(fc);
  game::RepeatedGameResult result;
  if (noise > 0.0) {
    fault::FaultPlan plan;
    plan.observation.noise_probability = noise;
    plan.observation.noise_magnitude = 4;
    fault::FaultInjector injector(plan, kPlayers, seed);
    result = engine.play(stages, &injector);
  } else {
    result = engine.play(stages);
  }
  EnforcedRun run;
  run.enforcement = result.enforcement;
  for (const double u : result.total_utility) {
    run.per_stage.push_back(u / stages);
  }
  return run;
}

TEST(EnforcementLoopTest, DeviantIsStrictlyUnprofitableUnderEnforcement) {
  // The acceptance headline: under enforcement the short-sighted deviant
  // earns strictly less per stage than a member of the enforced
  // all-compliant population (the never-deviate counterfactual) — at 0%
  // and at 5% observation noise.
  const int stages = 200;
  for (const double noise : {0.0, 0.05}) {
    const auto invaded = play_enforced(true, noise, 0xd0d0, stages);
    const auto pure = play_enforced(false, noise, 0xd0d0, stages);
    const double deviant = invaded.per_stage.back();
    const double counterfactual = pure.per_stage.front();
    EXPECT_LT(deviant, counterfactual)
        << "noise " << noise << ": " << invaded.enforcement.summary();
    // The loop actually closed: flags fired and sentences were served.
    EXPECT_GT(invaded.enforcement.episodes, 0);
    EXPECT_GT(invaded.enforcement.rehabilitations, 0);
    // Residents do better enforcing than being exploited would leave
    // them (the punishment is not self-destructive).
    EXPECT_GT(invaded.per_stage.front(), 0.0);
  }
}

TEST(EnforcementLoopTest, TournamentFlipsThePr5InvasionFinding) {
  // PR 5's headline negative result (bench_tournament, Basic access,
  // n = 5): the forgiving residents — contrite-tft — are INVADED by the
  // relentless short-sighted deviant. Installing enforcement must flip
  // that verdict without touching the strategies.
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kBasic);
  const int n = 5;
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
  const auto residents = game::enforcement_roster(game, n, w_star);
  const auto deviants = game::deviant_roster(w_star);
  const auto& contrite = residents.at(2);
  const auto& shortsighted = deviants.at(0);

  game::Tournament tournament(game, n, 120, 1);
  EXPECT_FALSE(tournament.resists_invasion(contrite, shortsighted));

  game::ReactionConfig rc;
  rc.w_agreed = w_star;
  tournament.set_enforcement(rc);
  ASSERT_TRUE(tournament.enforcement().has_value());
  EXPECT_TRUE(tournament.resists_invasion(contrite, shortsighted));
  // The mix outcome carries the enforcement accounting.
  const auto mix = tournament.play_mix(contrite, shortsighted, n - 1);
  EXPECT_GT(mix.enforcement.episodes, 0);

  tournament.set_enforcement(std::nullopt);
  EXPECT_FALSE(tournament.resists_invasion(contrite, shortsighted));
}

TEST(MultihopEnforcementTest, ValidatesConfig) {
  std::vector<multihop::Vec2> pos;
  for (int i = 0; i < 3; ++i) pos.push_back({i * 200.0, 0.0});
  multihop::MultihopConfig mc;
  multihop::MultihopSimulator sim(mc, multihop::Topology(pos, 250.0),
                                  {16, 16, 16});
  multihop::MultihopTftConfig tc;
  tc.slots_per_stage = 1000;
  tc.stages = 2;
  multihop::MultihopEnforcementConfig ec;
  ec.punishment_stages = 0;
  EXPECT_THROW(play_multihop_enforced(sim, nullptr, tc, ec),
               std::invalid_argument);
  ec = {};
  ec.punishment_w = 0;
  EXPECT_THROW(play_multihop_enforced(sim, nullptr, tc, ec),
               std::invalid_argument);
  ec = {};
  ec.detector.significance = 0.0;
  EXPECT_THROW(play_multihop_enforced(sim, nullptr, tc, ec),
               std::invalid_argument);
  ec = {};
  ec.compliant = {1, 1};  // wrong size
  EXPECT_THROW(play_multihop_enforced(sim, nullptr, tc, ec),
               std::invalid_argument);
  ec = {};
  for (const double dt : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    multihop::MultihopTftConfig bad = tc;
    bad.mobility_dt_s = dt;
    EXPECT_THROW(play_multihop_enforced(sim, nullptr, bad, ec),
                 std::invalid_argument)
        << dt;
  }
}

TEST(MultihopEnforcementTest, ContainsADeviantWithoutContagion) {
  // 6-node chain, node 2 pinned at w = 2 and outside the protocol. Under
  // graph-local TFT the deviation is contagious (the whole chain matches
  // down to 2); under enforcement only the offender's neighbors ever
  // leave the agreement, and only while serving episodes.
  std::vector<multihop::Vec2> pos;
  for (int i = 0; i < 6; ++i) pos.push_back({i * 200.0, 0.0});
  const multihop::Topology topo(pos, 250.0);
  multihop::MultihopConfig mc;
  mc.seed = 9;
  const std::vector<int> seed{32, 32, 2, 32, 32, 32};
  multihop::MultihopTftConfig tc;
  tc.slots_per_stage = 15000;
  tc.stages = 24;

  multihop::MultihopSimulator tft_sim(mc, topo, seed);
  const auto tft = play_multihop_tft(tft_sim, nullptr, tc);
  ASSERT_EQ(tft.converged_cw.value_or(-1), 2);  // contagion baseline

  multihop::MultihopSimulator enf_sim(mc, topo, seed);
  multihop::MultihopEnforcementConfig ec;
  ec.compliant = {1, 1, 0, 1, 1, 1};
  const auto enforced = play_multihop_enforced(enf_sim, nullptr, tc, ec);
  EXPECT_GT(enforced.flags_raised, 0);
  EXPECT_GT(enforced.punishment_episodes, 0);
  EXPECT_GE(enforced.rehabilitations, 1);
  EXPECT_GE(enforced.punished_stages, ec.punishment_stages);

  double dev_enforced = 0.0, dev_tft = 0.0;
  for (int k = 0; k < tc.stages; ++k) {
    dev_enforced += enforced.stages[(std::size_t)k].payoff[2];
    dev_tft += tft.stages[(std::size_t)k].payoff[2];
    // Containment: non-neighbors of the offender never leave the
    // agreement; neighbors only drop to the jamming window while serving.
    for (const int i : {0, 4, 5}) {
      EXPECT_EQ(enforced.stages[(std::size_t)k].cw[(std::size_t)i], 32)
          << "stage " << k << " node " << i;
    }
    for (const int i : {1, 3}) {
      const int w = enforced.stages[(std::size_t)k].cw[(std::size_t)i];
      EXPECT_TRUE(w == 32 || w == ec.punishment_w)
          << "stage " << k << " node " << i << " w=" << w;
    }
  }
  // Deviating pays strictly worse under enforcement than under the TFT
  // contagion it exploits.
  EXPECT_LT(dev_enforced, dev_tft);

  // An honest network under the same protocol never flags.
  multihop::MultihopSimulator honest_sim(mc, topo, std::vector<int>(6, 32));
  multihop::MultihopEnforcementConfig honest_ec;
  const auto honest =
      play_multihop_enforced(honest_sim, nullptr, tc, honest_ec);
  EXPECT_EQ(honest.flags_raised, 0);
  EXPECT_EQ(honest.punishment_episodes, 0);
}

}  // namespace
