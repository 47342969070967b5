// enforced_tournament: game::Tournament with the enforcement closed loop
// (detect → calibrated punishment → rehabilitation) under observation
// noise and churn. Basic access, n = 5, W* from EquilibriumFinder; the
// roster is the compliant cast plus both deviants; invasion_matrix and
// round_robin_scores fan 180 play_mix calls over 4 workers. Game,
// strategy and detector work on a mostly-hit solve cache with small
// batches; the per-stage cost grows with the horizon, which a long
// horizon makes visible.
//
// The traced pass re-drives both entry points through Tournament::play_mix
// and StageGame::prefetch_profiles and must reproduce the verdicts and the
// scores bitwise.
#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>

#include "fault/fault_plan.hpp"
#include "game/equilibrium.hpp"
#include "game/reaction.hpp"
#include "game/tournament.hpp"
#include "harness.hpp"
#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace perf {
namespace {

using namespace smac;

constexpr int kPlayers = 5;
/// enforcement_roster's compliant residents (tft, gtft, contrite-tft,
/// forgiving-gtft) come first in the roster, deviant_roster's two
/// deviants (short-sighted, malicious) last.
constexpr std::size_t kResidents = 4;
constexpr std::size_t kContrite = 2;

struct Verdicts {
  std::vector<std::vector<bool>> matrix;
  std::vector<double> scores;
};

class Tourney final : public Workload {
 public:
  explicit Tourney(const RunOptions& options) : options_(options) {}

  const char* work_unit() const override { return "repeated-game stage"; }
  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"players", std::to_string(kPlayers)},
            {"w_star", std::to_string(w_star_)},
            {"roster", std::to_string(roster_.size())},
            {"horizon", std::to_string(horizon())},
            {"mixes", std::to_string(mixes())},
            {"observation_noise", "0.05 x 4"},
            {"churn", "0.01/0.3"},
            {"jobs", std::to_string(kWorkers)}};
  }
  std::size_t units_per_round() const override {
    return roster_.size() * (roster_.size() - 1) + roster_.size();
  }

  void setup() override {
    const game::StageGame game(phy::Parameters::paper(),
                               phy::AccessMode::kBasic);
    w_star_ = game::EquilibriumFinder(game, kPlayers).efficient_cw();
    roster_ = game::enforcement_roster(game, kPlayers, w_star_);
    for (auto& deviant : game::deviant_roster(w_star_)) {
      roster_.push_back(std::move(deviant));
    }
    plan_ = fault::FaultPlan{};
    plan_.observation.noise_probability = 0.05;
    plan_.observation.noise_magnitude = 4;
    plan_.churn.crash_rate = 0.01;
    plan_.churn.recover_rate = 0.3;
    reaction_ = game::ReactionConfig{};
    reaction_.w_agreed = w_star_;
  }

  double run_round(std::size_t round) override {
    // A fresh game per round: every tournament pays its own cache fill.
    const game::StageGame game(phy::Parameters::paper(),
                               phy::AccessMode::kBasic);
    const game::Tournament t = tournament(game, horizon(), round);
    last_.matrix = t.invasion_matrix(roster_);
    last_.scores = t.round_robin_scores(roster_);
    return static_cast<double>(mixes()) * horizon();
  }

  std::size_t check_round(std::vector<std::string>& why) override {
    if (!first_) first_ = last_;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < kResidents; ++i) {
      for (std::size_t j = kResidents; j < roster_.size(); ++j) {
        if (!last_.matrix[i][j]) {
          ++failed;
          why.push_back("a compliant resident was invaded by a deviant");
        }
      }
    }
    for (const double s : last_.scores) {
      if (!std::isfinite(s)) {
        ++failed;
        why.push_back("non-finite round-robin score");
      }
    }
    return failed;
  }

  TracedPass trace() override;

 private:
  int horizon() const { return options_.smoke ? 60 : 1000; }
  std::size_t mixes() const {
    const std::size_t pairs = roster_.size() * (roster_.size() - 1);
    return 2 * pairs + pairs * (kPlayers - 1);
  }

  game::Tournament tournament(const game::StageGame& game, int stages,
                              std::size_t round) const {
    game::Tournament t(game, kPlayers, stages, kWorkers);
    const std::uint64_t base = parallel::stream_seed(options_.seed, 5);
    t.set_fault_plan(plan_, parallel::stream_seed(base, round));
    t.set_enforcement(reaction_);
    return t;
  }

  RunOptions options_;
  int w_star_ = 0;
  std::vector<game::Contender> roster_;
  fault::FaultPlan plan_;
  game::ReactionConfig reaction_;
  Verdicts last_;
  std::optional<Verdicts> first_;
};

/// Runs fn(k) for k < count on `pool` under one fan-out span; each task
/// span names the fan-out as its parent.
template <class Fn>
void fan_out(parallel::ThreadPool& pool, std::size_t count, Fn&& fn) {
  const trace::Scope fanout("parallel.fanout");
  pool.for_each_index(count, [&](std::size_t k) {
    const trace::Scope task("tourney.task", fanout.id());
    fn(k);
  });
}

game::MixOutcome play_traced(const game::Tournament& t,
                             const game::Contender& a,
                             const game::Contender& b, int count_a) {
  const trace::Scope span("game.play_mix");
  return t.play_mix(a, b, count_a);
}

TracedPass Tourney::trace() {
  // Mirrors Tournament::invasion_matrix and round_robin_scores
  // (src/game/tournament.cpp): the same opening-window prefetch, the same
  // tasks, the same reduction order.
  TracedPass out;
  const std::size_t r = roster_.size();
  std::vector<int> opening(r);
  for (std::size_t i = 0; i < r; ++i) {
    opening[i] = roster_[i].make()->initial_cw();
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  struct Mix {
    std::size_t i, j;
    int count_a;
  };
  std::vector<Mix> mixes;
  for (const auto& [i, j] : pairs) {
    for (int count_a = 1; count_a < kPlayers; ++count_a) {
      mixes.push_back({i, j, count_a});
    }
  }

  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kBasic);
  const game::Tournament t = tournament(game, horizon(), 0);
  std::vector<char> verdict(pairs.size(), 0);
  std::vector<game::MixOutcome> outcomes(2 * pairs.size() + mixes.size());
  {
    const trace::Scope round("tourney.round");
    parallel::ThreadPool pool(kWorkers);
    {
      std::set<std::vector<int>> distinct;
      for (const auto& [i, j] : pairs) {
        std::vector<int> invaded(kPlayers, opening[j]);
        std::fill_n(invaded.begin(), kPlayers - 1, opening[i]);
        distinct.insert(std::move(invaded));
        distinct.insert(std::vector<int>(kPlayers, opening[i]));
      }
      const trace::Scope span("game.prefetch");
      game.prefetch_profiles({distinct.begin(), distinct.end()});
    }
    fan_out(pool, pairs.size(), [&](std::size_t k) {
      const auto [i, j] = pairs[k];
      // Tournament::resists_invasion with its default tolerance.
      const game::MixOutcome invaded =
          play_traced(t, roster_[i], roster_[j], kPlayers - 1);
      const game::MixOutcome pure =
          play_traced(t, roster_[i], roster_[j], kPlayers);
      verdict[k] = invaded.payoff_b <=
                   pure.payoff_a + 1e-3 * std::abs(pure.payoff_a);
      outcomes[2 * k] = invaded;
      outcomes[2 * k + 1] = pure;
    });
    {
      std::set<std::vector<int>> distinct;
      for (const Mix& mix : mixes) {
        std::vector<int> profile(kPlayers, opening[mix.j]);
        std::fill_n(profile.begin(), mix.count_a, opening[mix.i]);
        distinct.insert(std::move(profile));
      }
      const trace::Scope span("game.prefetch");
      game.prefetch_profiles({distinct.begin(), distinct.end()});
    }
    fan_out(pool, mixes.size(), [&](std::size_t k) {
      const Mix& mix = mixes[k];
      outcomes[2 * pairs.size() + k] =
          play_traced(t, roster_[mix.i], roster_[mix.j], mix.count_a);
    });
  }
  const analytical::SolveCacheStats cache = game.solve_cache_stats();

  Verdicts v;
  v.matrix.assign(r, std::vector<bool>(r, true));
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    v.matrix[pairs[k].first][pairs[k].second] = verdict[k] != 0;
  }
  v.scores.assign(r, 0.0);
  std::vector<int> samples(r, 0);
  for (std::size_t k = 0; k < mixes.size(); ++k) {
    v.scores[mixes[k].i] += outcomes[2 * pairs.size() + k].payoff_a;
    ++samples[mixes[k].i];
  }
  for (std::size_t i = 0; i < r; ++i) {
    if (samples[i] > 0) v.scores[i] /= samples[i];
  }
  if (v.matrix != first_->matrix) {
    out.mismatches.push_back("invasion_matrix verdicts");
  }
  if (v.scores != first_->scores) {
    out.mismatches.push_back("round_robin_scores");
  }

  // Horizon growth: one enforced contrite-tft vs short-sighted mix at twice
  // the horizon, against the same mix at the horizon, per stage.
  const game::Contender& contrite = roster_[kContrite];
  const game::Contender& short_sighted = roster_[kResidents];
  for (const int stages : {horizon(), 2 * horizon()}) {
    const game::StageGame fresh(phy::Parameters::paper(),
                                phy::AccessMode::kBasic);
    const game::Tournament single = tournament(fresh, stages, 0);
    const trace::Scope span(stages == horizon() ? "tourney.horizon_1x"
                                                : "tourney.horizon_2x");
    (void)single.play_mix(contrite, short_sighted, kPlayers - 1);
  }

  const auto spans = trace::collect();
  const std::vector<double> mix_ms =
      trace::durations_ms(spans, "game.play_mix");
  double mix_total = 0.0;
  for (const double ms : mix_ms) mix_total += ms;
  const trace::FanoutUse use =
      trace::fanout_use(spans, "parallel.fanout", kWorkers);
  double episodes = 0.0;
  double failed_stages = 0.0;
  for (const game::MixOutcome& o : outcomes) {
    episodes += o.enforcement.episodes;
    failed_stages += o.degradation.failed_stages;
  }
  LayerValues& m = out.layers;
  m["game.play_mix_ms_p50"] = quantile(mix_ms, 0.5);
  m["game.play_mix_ms_p90"] = quantile(mix_ms, 0.9);
  m["game.play_mix_n"] = static_cast<double>(mix_ms.size());
  m["game.us_per_stage"] = mix_total * 1e3 / (mix_ms.size() * horizon());
  m["game.prefetch_ms"] = trace::total_ms(spans, "game.prefetch");
  m["game.horizon_growth"] =
      trace::total_ms(spans, "tourney.horizon_2x") /
      (2.0 * trace::total_ms(spans, "tourney.horizon_1x"));
  m["game.enforcement_episodes"] = episodes;
  m["game.failed_stages"] = failed_stages;
  m["parallel.busy_frac"] = use.busy_ms / use.capacity_ms;
  m["parallel.tail_ms"] = use.tail_ms;
  add_cache_layers(cache, m);
  out.round_s = trace::total_ms(spans, "tourney.round") * 1e-3;
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_tourney(const RunOptions& options) {
  return std::make_unique<Tourney>(options);
}

}  // namespace perf
