#include "game/repeated_game.hpp"

#include <stdexcept>

namespace smac::game {

RepeatedGameEngine::RepeatedGameEngine(
    const StageGame& game, std::vector<std::unique_ptr<Strategy>> strategies)
    : game_(game), strategies_(std::move(strategies)) {
  if (strategies_.empty()) {
    throw std::invalid_argument("RepeatedGameEngine: no strategies");
  }
  for (const auto& s : strategies_) {
    if (!s) throw std::invalid_argument("RepeatedGameEngine: null strategy");
  }
}

void RepeatedGameEngine::set_observation_filter(
    ObservationFilterConfig config) {
  filter_ = ObservationFilter(config);
}

void RepeatedGameEngine::set_enforcement(
    std::optional<ReactionConfig> config) {
  if (config) {
    // Fail fast on a bad config (including a detector geometry that
    // cannot be built) instead of at the first play().
    ReactionPolicy probe(game_, *config, strategies_.size());
  }
  enforcement_ = std::move(config);
}

RepeatedGameResult RepeatedGameEngine::play(int stages,
                                            fault::FaultInjector* injector) {
  if (stages < 1) throw std::invalid_argument("play: stages < 1");
  const std::size_t n = strategies_.size();
  if (injector && injector->node_count() != n) {
    throw std::invalid_argument(
        "play: injector node_count != player_count");
  }
  const double delta = game_.params().discount;
  // Per-player observed histories only matter when observations can be
  // perturbed, smoothed, or sanitized by enforcement; otherwise every
  // player reads the true trajectory.
  const bool faulted_obs = injector && injector->plan().observation.enabled();
  const bool enforcing = enforcement_.has_value();
  const bool per_view = faulted_obs || filter_.enabled() || enforcing;
  std::optional<ReactionPolicy> police;
  if (enforcing) police.emplace(game_, *enforcement_, n);

  const auto horizon = static_cast<std::size_t>(stages);
  RepeatedGameResult result;
  result.history.reserve(horizon);
  result.discounted_utility.assign(n, 0.0);
  result.total_utility.assign(n, 0.0);

  // `observed` holds each player's raw (post-fault) view; when a filter
  // is installed, `smoothed` holds the filtered view the player actually
  // decides on (raw stays the loss-fallback source, matching how a node
  // would remember raw readings and re-filter).
  std::vector<History> observed(per_view ? n : 0);
  std::vector<History> smoothed(per_view && filter_.enabled() ? n : 0);
  for (History& view : observed) view.reserve(horizon);
  for (History& view : smoothed) view.reserve(horizon);
  // The enforcement monitor's (possibly faulted) reading of the last
  // stage: the loss fallback of its next reading.
  StageRecord monitor;
  std::vector<int> current_cw(n, 1);
  std::vector<double> last_good;  // per-player payoffs of last usable solve
  // The online sub-network of a stage: its windows and their players.
  std::vector<int> sub;
  std::vector<std::size_t> sub_index;
  sub.reserve(n);
  sub_index.reserve(n);

  double discount_k = 1.0;
  for (int k = 0; k < stages; ++k) {
    if (injector) injector->begin_stage(k);

    StageRecord record;
    record.cw.resize(n);
    if (injector) record.online = injector->online_mask();
    for (std::size_t i = 0; i < n; ++i) {
      if (k == 0) {
        current_cw[i] = strategies_[i]->initial_cw();
      } else if (player_online(record, i)) {
        const History& view = !per_view ? result.history
                              : filter_.enabled() ? smoothed[i]
                                                  : observed[i];
        current_cw[i] = strategies_[i]->decide(view, i);
      }  // a crashed player keeps its configured window
      if (current_cw[i] < 1) {
        throw std::runtime_error("RepeatedGameEngine: strategy returned w < 1");
      }
      if (enforcing && police->punishing() && player_online(record, i) &&
          strategies_[i]->follows_enforcement()) {
        current_cw[i] = police->command(i, current_cw[i]);
      }
      record.cw[i] = current_cw[i];
    }
    // Whether stage k's decisions were overridden by an episode — fixed
    // before end_stage below can open or close one.
    const bool punished_stage = enforcing && police->punishing();

    // Solve the stage over the online sub-network at the effective PER.
    sub.clear();
    sub_index.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (player_online(record, i)) {
        sub.push_back(record.cw[i]);
        sub_index.push_back(i);
      }
    }
    record.utility.assign(n, 0.0);
    if (!sub.empty()) {
      const double base_per = game_.params().packet_error_rate;
      const StageGame::StagePayoffs payoffs = game_.try_stage_utilities(
          sub, injector ? injector->effective_per(base_per) : base_per);
      const analytical::SolveDiagnostics& d = payoffs.diagnostics;
      if (analytical::usable(d.status)) {
        for (std::size_t s = 0; s < sub_index.size(); ++s) {
          record.utility[sub_index[s]] = payoffs.utilities[s];
        }
        last_good = record.utility;
        if (d.status == analytical::SolveStatus::kDegraded) {
          ++result.degradation.degraded_stages;
          result.degradation.incidents.push_back(
              {k, d.status, d.residual, d.retries, false});
        }
      } else {
        // Graceful degradation: keep the trajectory alive on the last
        // payoffs that actually solved (zero before any did).
        for (const std::size_t i : sub_index) {
          record.utility[i] = i < last_good.size() ? last_good[i] : 0.0;
        }
        ++result.degradation.failed_stages;
        ++result.degradation.reused_stages;
        result.degradation.incidents.push_back(
            {k, d.status, d.residual, d.retries, true});
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      result.discounted_utility[i] += discount_k * record.utility[i];
      result.total_utility[i] += record.utility[i];
    }
    discount_k *= delta;
    result.history.push_back(std::move(record));

    if (per_view) {
      // Each player's view of this stage: own window exact, opponents'
      // through the observation fault model (fixed i-then-j draw order),
      // then — when a filter is installed — smoothed over the trailing
      // raw observations. Punished stages are sanitized to the agreement
      // window for every online player (the sanction owns the response;
      // without this, TFT-style rules would ratchet on the punishment
      // profile itself and never return to cooperation).
      const StageRecord& truth = result.history.back();
      for (std::size_t i = 0; i < n; ++i) {
        StageRecord view = truth;
        if (faulted_obs) {
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i || !player_online(truth, j)) continue;
            const int fallback =
                k > 0 ? observed[i][static_cast<std::size_t>(k - 1)].cw[j]
                      : truth.cw[j];
            view.cw[j] = injector->observe_cw(truth.cw[j], fallback).cw;
          }
        }
        if (punished_stage) {
          for (std::size_t j = 0; j < n; ++j) {
            if (player_online(truth, j)) view.cw[j] = enforcement_->w_agreed;
          }
        }
        observed[i].push_back(std::move(view));
        if (filter_.enabled()) {
          smoothed[i].push_back(filter_.filter_latest(observed[i], i));
        }
      }
    }

    if (enforcing) {
      // The monitor's own reading of this stage: true windows through the
      // observation fault model, drawn after every player view in a fixed
      // player order so the draw sequence stays deterministic. Updated in
      // place: each reading falls back on the one it replaces.
      const StageRecord& truth = result.history.back();
      monitor.cw.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        int& reading = monitor.cw[j];
        if (faulted_obs && player_online(truth, j)) {
          const int fallback = k > 0 ? reading : truth.cw[j];
          reading = injector->observe_cw(truth.cw[j], fallback).cw;
        } else {
          reading = truth.cw[j];
        }
      }
      monitor.utility = truth.utility;
      monitor.online = truth.online;
      police->end_stage(monitor, k);
    }
  }

  if (enforcing) result.enforcement = police->report();

  result.degradation.record_run(stages, injector);
  static_cast<Convergence&>(result) = convergence_of(result.history);
  return result;
}

std::vector<std::unique_ptr<Strategy>> make_tft_population(std::size_t n,
                                                           int initial_w) {
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pop.push_back(std::make_unique<TitForTat>(initial_w));
  }
  return pop;
}

std::vector<std::unique_ptr<Strategy>> make_gtft_population(std::size_t n,
                                                            int initial_w,
                                                            double beta,
                                                            int r0) {
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pop.push_back(std::make_unique<GenerousTitForTat>(initial_w, beta, r0));
  }
  return pop;
}

std::vector<std::unique_ptr<Strategy>> make_contrite_population(
    std::size_t n, int w_coop, int clean_stages) {
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pop.push_back(std::make_unique<ContriteTitForTat>(w_coop, clean_stages));
  }
  return pop;
}

std::vector<std::unique_ptr<Strategy>> make_forgiving_gtft_population(
    std::size_t n, int initial_w, double beta, int r0, int trigger_stages,
    int clean_stages) {
  std::vector<std::unique_ptr<Strategy>> pop;
  pop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pop.push_back(std::make_unique<ForgivingGtft>(initial_w, beta, r0,
                                                  trigger_stages,
                                                  clean_stages));
  }
  return pop;
}

}  // namespace smac::game
