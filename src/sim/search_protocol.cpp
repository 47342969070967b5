#include "sim/search_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace smac::sim {

namespace {

/// One Ready round: every node adopts `w`, the channel settles, and the
/// leader measures its payoff over the measurement window.
double measure_at(Simulator& sim, std::size_t leader, int w,
                  const SearchConfig& config, SearchResult& result) {
  sim.set_all_cw(w);
  if (config.settle_us > 0.0) {
    const SimResult settle = sim.run_for(config.settle_us);
    result.elapsed_us += settle.elapsed_us;
  }
  const SimResult window = sim.run_for(config.measure_us);
  result.elapsed_us += window.elapsed_us;
  const double payoff = window.payoff_rate.at(leader);
  result.trace.push_back({w, payoff});
  ++result.steps;
  return payoff;
}

}  // namespace

SearchResult run_search(Simulator& sim, std::size_t leader,
                        const SearchConfig& config) {
  if (config.w_start < 1) {
    throw std::invalid_argument("run_search: w_start < 1");
  }
  if (config.step < 1) throw std::invalid_argument("run_search: step < 1");
  if (config.patience < 1) {
    throw std::invalid_argument("run_search: patience < 1");
  }
  // Durations must be finite: run_for never reaches an infinite one.
  if (!(config.measure_us > 0.0) || !std::isfinite(config.measure_us)) {
    throw std::invalid_argument("run_search: measure_us must be finite > 0");
  }
  if (!(config.settle_us >= 0.0) || !std::isfinite(config.settle_us)) {
    throw std::invalid_argument("run_search: settle_us must be finite >= 0");
  }
  if (leader >= sim.node_count()) {
    throw std::invalid_argument("run_search: leader out of range");
  }
  if (!(config.improvement_epsilon >= 0.0)) {
    throw std::invalid_argument("run_search: improvement_epsilon not >= 0");
  }
  const int w_max = sim.config().params.w_max;

  SearchResult result;
  const auto improves = [&](double payoff, double best) {
    return payoff > best + config.improvement_epsilon * std::abs(best);
  };
  // Start-Search: everyone begins at W0; the leader takes a baseline.
  double best_payoff = measure_at(sim, leader, config.w_start, config, result);
  int best_w = config.w_start;

  // Right-Search: raise the window while the measured payoff improves.
  int w = config.w_start;
  int misses = 0;
  while (misses < config.patience && w < w_max &&
         result.steps < config.max_steps) {
    w = std::min(w + config.step, w_max);
    const double payoff = measure_at(sim, leader, w, config, result);
    if (improves(payoff, best_payoff)) {
      best_payoff = payoff;
      best_w = w;
      misses = 0;
    } else {
      ++misses;
    }
  }

  // Left-Search only when the right sweep never improved on W0 (the peak
  // may lie below the starting point).
  if (best_w == config.w_start) {
    result.used_left_search = true;
    w = config.w_start;
    misses = 0;
    while (misses < config.patience && w > 1 &&
           result.steps < config.max_steps) {
      w = std::max(w - config.step, 1);
      const double payoff = measure_at(sim, leader, w, config, result);
      if (improves(payoff, best_payoff)) {
        best_payoff = payoff;
        best_w = w;
        misses = 0;
      } else {
        ++misses;
      }
    }
  }

  result.hit_step_limit = result.steps >= config.max_steps;
  result.w_found = best_w;
  // Broadcast of W_m: every node settles on the found window.
  sim.set_all_cw(best_w);
  return result;
}

}  // namespace smac::sim
