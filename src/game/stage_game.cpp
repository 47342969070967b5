#include "game/stage_game.hpp"

#include <stdexcept>

#include "analytical/utility.hpp"

namespace smac::game {

StageGame::StageGame(phy::Parameters params, phy::AccessMode mode)
    : StageGame(std::move(params), mode,
                analytical::SolverService::Options{}) {}

StageGame::StageGame(phy::Parameters params, phy::AccessMode mode,
                     analytical::SolverService::Options solver_options)
    : params_(std::move(params)), mode_(mode),
      solver_(std::move(solver_options)) {
  params_.validate();
}

std::vector<double> StageGame::utility_rates(const std::vector<int>& w) const {
  if (w.empty()) throw std::invalid_argument("StageGame: empty profile");
  for (const int wi : w) {
    if (wi < 1) throw std::invalid_argument("StageGame: window < 1");
  }
  // Routed through the canonical solve cache: repeated games replay the
  // same profile stage after stage, and deviation scans revisit
  // permutations of one-deviant profiles — all of which collapse to a
  // handful of class keys.
  const analytical::TrySolveResult solved = solver_.solve(
      w, params_.max_backoff_stage, params_.packet_error_rate);
  return analytical::utility_rates(solved.state, params_, mode_);
}

std::vector<double> StageGame::stage_utilities(
    const std::vector<int>& w) const {
  std::vector<double> u = utility_rates(w);
  const double t_us = stage_duration_us();
  for (double& v : u) v *= t_us;
  return u;
}

StageGame::StagePayoffs StageGame::try_stage_utilities(
    const std::vector<int>& w, std::optional<double> per_override) const {
  if (w.empty()) {
    StagePayoffs out;
    out.diagnostics.status = analytical::SolveStatus::kFailed;
    out.diagnostics.method = "invalid";
    return out;
  }
  const double per = per_override.value_or(params_.packet_error_rate);
  const analytical::TrySolveResult solved =
      solver_.solve(w, params_.max_backoff_stage, per);
  StagePayoffs out;
  out.diagnostics = solved.diagnostics;
  if (analytical::usable(solved.diagnostics.status)) {
    out.utilities = analytical::utility_rates(solved.state, params_, mode_);
    const double t_us = stage_duration_us();
    for (double& v : out.utilities) v *= t_us;
  }
  return out;
}

std::vector<StageGame::StagePayoffs> StageGame::try_stage_utilities_batch(
    const std::vector<std::vector<int>>& profiles,
    std::optional<double> per_override) const {
  const double per = per_override.value_or(params_.packet_error_rate);
  std::vector<analytical::SolverService::Ticket> tickets(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (!profiles[i].empty()) {
      tickets[i] =
          solver_.submit(profiles[i], params_.max_backoff_stage, per);
    }
  }
  solver_.drain();
  std::vector<StagePayoffs> out(profiles.size());
  const double t_us = stage_duration_us();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].empty()) {
      out[i].diagnostics.status = analytical::SolveStatus::kFailed;
      out[i].diagnostics.method = "invalid";
      continue;
    }
    const analytical::TrySolveResult& solved = tickets[i].result();
    out[i].diagnostics = solved.diagnostics;
    if (analytical::usable(solved.diagnostics.status)) {
      out[i].utilities =
          analytical::utility_rates(solved.state, params_, mode_);
      for (double& v : out[i].utilities) v *= t_us;
    }
  }
  return out;
}

std::vector<StageGame::ClassPayoffs> StageGame::try_class_utilities_batch(
    const std::vector<analytical::ClassProfile>& profiles,
    std::optional<double> per_override) const {
  const double per = per_override.value_or(params_.packet_error_rate);
  const analytical::SolverService::ClassBatch batch =
      solver_.solve_classes(profiles, params_.max_backoff_stage, per);
  std::vector<ClassPayoffs> out(profiles.size());
  const double t_us = stage_duration_us();
  std::vector<double> scratch;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const analytical::TrySolveResult& solved =
        batch.results[batch.key_of[i]];
    out[i].diagnostics = solved.diagnostics;
    if (!analytical::usable(solved.diagnostics.status)) continue;
    // Nodes of a class share tau/p bit for bit, so one rate per class is
    // every node's rate; the slot length still sums this request's nodes
    // in its own order, as the per-node path does.
    out[i].utilities.resize(profiles[i].class_count());
    analytical::class_utility_rates(solved.state, profiles[i], params_, mode_,
                                    scratch, out[i].utilities);
    for (double& v : out[i].utilities) v *= t_us;
  }
  return out;
}

void StageGame::prefetch_profiles(const std::vector<std::vector<int>>& profiles,
                                  std::optional<double> per_override) const {
  const double per = per_override.value_or(params_.packet_error_rate);
  bool submitted = false;
  for (const std::vector<int>& w : profiles) {
    if (w.empty()) continue;
    solver_.submit(w, params_.max_backoff_stage, per);
    submitted = true;
  }
  if (submitted) solver_.drain();
}

double StageGame::homogeneous_utility_rate(int w, int n) const {
  if (w < 1 || n < 1) {
    throw std::invalid_argument("StageGame: homogeneous w/n out of range");
  }
  const auto key = std::make_pair(w, n);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (const auto it = homogeneous_cache_.find(key);
        it != homogeneous_cache_.end()) {
      return it->second;
    }
  }
  // Solve outside the lock: concurrent misses on the same key may both
  // compute, but the solver is deterministic so they agree.
  const double u = analytical::homogeneous_utility_rate(
      static_cast<double>(w), n, params_, mode_);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  homogeneous_cache_.emplace(key, u);
  return u;
}

double StageGame::homogeneous_stage_utility(int w, int n) const {
  return homogeneous_utility_rate(w, n) * stage_duration_us();
}

double StageGame::social_welfare(int w, int n) const {
  return static_cast<double>(n) * homogeneous_stage_utility(w, n);
}

double StageGame::normalized_global_payoff(int w, int n) const {
  return static_cast<double>(n) * homogeneous_utility_rate(w, n) *
         params_.sigma_us / params_.gain;
}

}  // namespace smac::game
