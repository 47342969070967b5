#include "game/stage_game.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "analytical/utility.hpp"

namespace smac::game {

namespace {

std::vector<analytical::ClassProfile> classify_all(
    const std::vector<std::vector<int>>& profiles) {
  std::vector<analytical::ClassProfile> classes(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    classes[i] = analytical::classify_profile(profiles[i]);
  }
  return classes;
}

/// Each node gets its class's value: nodes of a class share tau/p bit for
/// bit, so this is the per-node utility.
StageGame::StagePayoffs per_node(const StageGame::ClassPayoffs& priced,
                                 const analytical::ClassProfile& classes) {
  StageGame::StagePayoffs out{{}, priced.diagnostics};
  if (priced.utilities.empty()) return out;
  out.utilities.reserve(classes.node_count());
  for (const std::int32_t c : classes.class_of) {
    out.utilities.push_back(priced.utilities[static_cast<std::size_t>(c)]);
  }
  return out;
}

}  // namespace

StageGame::StageGame(phy::Parameters params, phy::AccessMode mode)
    : StageGame(std::move(params), mode,
                analytical::SolverService::Options{}) {}

StageGame::StageGame(phy::Parameters params, phy::AccessMode mode,
                     analytical::SolverService::Options solver_options)
    : params_(std::move(params)), mode_(mode),
      solver_(std::move(solver_options)) {
  params_.validate();
}

std::vector<StageGame::ClassPayoffs> StageGame::price_classes(
    std::span<const analytical::ClassProfile> requests, double per,
    bool as_payoff) const {
  const analytical::SolverService::ClassBatch batch =
      solver_.solve_classes(requests, params_.max_backoff_stage, per);
  std::vector<ClassPayoffs> out(requests.size());
  const double t_us = stage_duration_us();
  std::vector<double> scratch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const analytical::TrySolveResult& solved =
        batch.results[batch.key_of[i]];
    out[i].diagnostics = solved.diagnostics;
    if (!analytical::usable(solved.diagnostics.status)) continue;
    out[i].utilities.resize(requests[i].class_count());
    analytical::class_utility_rates(solved.state, requests[i], params_, mode_,
                                    per, scratch, out[i].utilities);
    if (as_payoff) {
      for (double& v : out[i].utilities) v *= t_us;
    }
  }
  return out;
}

std::vector<double> StageGame::utility_rates(const std::vector<int>& w) const {
  if (w.empty()) throw std::invalid_argument("StageGame: empty profile");
  for (const int wi : w) {
    if (wi < 1) throw std::invalid_argument("StageGame: window < 1");
  }
  const analytical::ClassProfile classes = analytical::classify_profile(w);
  StagePayoffs rates = per_node(
      price_classes({&classes, 1}, params_.packet_error_rate, false).front(),
      classes);
  if (!analytical::usable(rates.diagnostics.status)) {
    throw std::runtime_error(
        std::string("StageGame::utility_rates: stage solve failed (") +
        rates.diagnostics.method + ")");
  }
  return std::move(rates.utilities);
}

StageGame::StagePayoffs StageGame::try_stage_utilities(
    const std::vector<int>& w, std::optional<double> per_override) const {
  const analytical::ClassProfile classes = analytical::classify_profile(w);
  const double per = per_override.value_or(params_.packet_error_rate);
  return per_node(price_classes({&classes, 1}, per, true).front(), classes);
}

std::vector<StageGame::StagePayoffs> StageGame::try_stage_utilities_batch(
    const std::vector<std::vector<int>>& profiles,
    std::optional<double> per_override) const {
  const std::vector<analytical::ClassProfile> classes = classify_all(profiles);
  const std::vector<ClassPayoffs> priced = price_classes(
      classes, per_override.value_or(params_.packet_error_rate), true);
  std::vector<StagePayoffs> out(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    out[i] = per_node(priced[i], classes[i]);
  }
  return out;
}

std::vector<StageGame::ClassPayoffs> StageGame::try_class_utilities_batch(
    const std::vector<analytical::ClassProfile>& profiles,
    std::optional<double> per_override) const {
  return price_classes(
      profiles, per_override.value_or(params_.packet_error_rate), true);
}

void StageGame::prefetch_profiles(const std::vector<std::vector<int>>& profiles,
                                  std::optional<double> per_override) const {
  (void)solver_.solve_classes(
      classify_all(profiles), params_.max_backoff_stage,
      per_override.value_or(params_.packet_error_rate));
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
  const double u = analytical::homogeneous_utility_rate(w, n, params_, mode_);
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
