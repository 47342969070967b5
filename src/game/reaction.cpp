#include "game/reaction.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace smac::game {

void ReactionConfig::validate() const {
  if (!detector.valid()) {
    throw std::invalid_argument("ReactionConfig: invalid detector config");
  }
  if (w_agreed < 1) {
    throw std::invalid_argument("ReactionConfig: w_agreed < 1");
  }
  monitor_filter.validate();
  if (min_punishment_stages < 1 ||
      max_punishment_stages < min_punishment_stages) {
    throw std::invalid_argument("ReactionConfig: bad punishment bounds");
  }
  if (!(penalty_margin > 0.0) || !std::isfinite(penalty_margin)) {
    throw std::invalid_argument("ReactionConfig: bad penalty_margin");
  }
  if (punishment_w < 1 || punishment_w > w_agreed) {
    throw std::invalid_argument("ReactionConfig: bad punishment_w");
  }
}

std::string EnforcementReport::summary() const {
  if (!any()) return "clean";
  std::ostringstream out;
  out << "flags=" << flags_raised << " episodes=" << episodes
      << " punished=" << punished_stages << " rehabs=" << rehabilitations
      << " first@" << first_flag_stage;
  return out.str();
}

namespace {

sim::OnlineDetector make_monitor(const StageGame& game,
                                 const ReactionConfig& config,
                                 std::size_t players) {
  config.validate();
  if (players < 2) {
    throw std::invalid_argument("ReactionPolicy: players < 2");
  }
  return sim::OnlineDetector(config.detector, config.w_agreed,
                             static_cast<int>(players),
                             game.params().max_backoff_stage, players);
}

}  // namespace

ReactionPolicy::ReactionPolicy(const StageGame& game,
                               const ReactionConfig& config,
                               std::size_t players)
    : game_(game),
      config_(config),
      detector_(make_monitor(game, config, players)),
      filter_(config.monitor_filter),
      series_(players) {}

std::size_t ReactionPolicy::offender() const {
  if (!episode_) throw std::logic_error("ReactionPolicy: no episode");
  return episode_->offender;
}

int ReactionPolicy::punishment_window() const {
  if (!episode_) throw std::logic_error("ReactionPolicy: no episode");
  return episode_->w_punish;
}

int ReactionPolicy::command(std::size_t player, int decided) const {
  if (!episode_) return decided;
  return player == episode_->offender ? config_.w_agreed
                                      : episode_->w_punish;
}

void ReactionPolicy::end_stage(const StageRecord& observed, int stage) {
  if (observed.cw.size() != series_.size()) {
    throw std::invalid_argument(
        "ReactionPolicy::end_stage: record size != players");
  }
  if (episode_) {
    ++report_.punished_stages;
    // Keep only the offender's belief series fresh during the episode:
    // everyone else is playing a commanded window, and feeding commanded
    // values to the series would corrupt the next episode's ŵ estimate
    // (and, with a monitor filter, poison post-episode detection).
    const std::size_t o = episode_->offender;
    if (player_online(observed, o)) {
      series_[o].push_back(observed.cw[o]);
    }
    if (--episode_->remaining == 0) {
      detector_.rehabilitate(episode_->offender);
      ++report_.rehabilitations;
      episode_.reset();
    }
    return;
  }

  for (std::size_t j = 0; j < series_.size(); ++j) {
    if (!player_online(observed, j)) continue;
    series_[j].push_back(observed.cw[j]);
    const int w_read =
        filter_.enabled() ? filter_.smooth(series_[j]) : observed.cw[j];
    detector_.try_observe_window(j, w_read);
  }
  report_.flags_raised = detector_.flags_raised();

  // Highest-evidence flagged player first; the rest stay latched and get
  // their episode after this one's rehabilitation.
  std::optional<std::size_t> worst;
  for (std::size_t j = 0; j < series_.size(); ++j) {
    const auto& v = detector_.verdict(j);
    if (!v.flagged) continue;
    if (!worst || v.evidence > detector_.verdict(*worst).evidence) {
      worst = j;
    }
  }
  if (worst) open_episode(*worst, stage + 1);
}

void ReactionPolicy::open_episode(std::size_t offender, int first_stage) {
  const auto& verdict = detector_.verdict(offender);
  if (report_.first_flag_stage < 0) {
    report_.first_flag_stage = first_stage - 1;
  }

  // ŵ: the monitor's estimate of the offender's operating window.
  const std::vector<int>& s = series_[offender];
  const int w_observed = s.empty() ? config_.w_agreed
                         : filter_.enabled() ? filter_.smooth(s)
                                             : s.back();
  const int w_dev = std::max(1, w_observed);
  const int w_punish = std::min(config_.punishment_w, config_.w_agreed);

  // Calibration: what did the deviant gain per stage, and what does a
  // punished stage cost *it* (the deviant keeps ŵ; the crowd jams)? One
  // batch covers the three asymmetric what-if profiles.
  const std::size_t n = series_.size();
  std::vector<std::vector<int>> profiles(3);
  profiles[0].assign(n, config_.w_agreed);            // all-compliant
  profiles[1].assign(n, config_.w_agreed);            // deviant vs crowd
  profiles[1][0] = w_dev;
  profiles[2].assign(n, w_punish);                    // deviant vs jammers
  profiles[2][0] = w_dev;
  const auto what_if = game_.try_stage_utilities_batch(profiles);

  double gain = 0.0;
  double loss = 0.0;
  const bool solved =
      analytical::usable(what_if[0].diagnostics.status) &&
      analytical::usable(what_if[1].diagnostics.status) &&
      analytical::usable(what_if[2].diagnostics.status);
  if (solved) {
    const double u_base = what_if[0].utilities[0];
    gain = what_if[1].utilities[0] - u_base;
    loss = u_base - what_if[2].utilities[0];
  }

  // Episode length makes the deviant's loss repay margin × (per-stage
  // gain × undetected stages). A false flag has gain ≈ 0 (ŵ ≈ W_agreed)
  // and lands on the minimum.
  int length = config_.min_punishment_stages;
  if (gain > 0.0 && loss > 0.0) {
    const double stages_deviated =
        std::max(1, verdict.suspect_streak);
    const double repay =
        std::ceil(config_.penalty_margin * gain * stages_deviated / loss);
    length = std::clamp(static_cast<int>(repay),
                        config_.min_punishment_stages,
                        config_.max_punishment_stages);
  }

  episode_ = ActiveEpisode{offender, length, w_punish};
  ++report_.episodes;
  report_.history.push_back(
      {offender, first_stage, length, w_punish, gain, loss});
}

}  // namespace smac::game
