// The paper's distributed algorithm for approaching the efficient NE
// (§V.C) run over the slot-level simulator.
//
// One leader node l broadcasts Start-Search with a starting window W0;
// all nodes then move in lockstep: the leader raises (Right-Search) or
// lowers (Left-Search) the common window one step at a time, announcing
// each move with a Ready message, waiting a settle period t, and measuring
// its own payoff U_l = (n_s·g − n_e·e)/t_m over the next t_m. The search
// stops when the measured payoff drops, and the last window before the
// drop is broadcast as the efficient NE estimate W_m.
//
// Message delivery is modeled as reliable and immediate (single collision
// domain, control messages piggybacked outside the saturated data traffic)
// — the paper makes the same abstraction. Measurement noise, however, is
// real: payoffs come from the simulator, so the protocol's robustness
// knobs (patience, step size, measurement duration) matter and are
// benchmarked.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace smac::sim {

struct SearchConfig {
  int w_start = 16;          ///< W0 in the Start-Search message
  double settle_us = 2e5;    ///< t: wait after each Ready (0 = none)
  double measure_us = 5e6;   ///< t_m: payoff measurement window
  int step = 1;              ///< window increment per move (paper: 1)
  /// Consecutive non-improving measurements tolerated before declaring the
  /// peak passed; >1 hardens the hill climb against measurement noise.
  int patience = 2;
  /// Relative gain a measurement must show over the best-so-far to count
  /// as an improvement. 0 reproduces the paper's protocol verbatim; a few
  /// percent prevents measurement noise from reading as progress on the
  /// plateau around W_c* (where the true curve moves by < 0.1% per step).
  double improvement_epsilon = 0.0;
  int max_steps = 20000;     ///< safety bound on protocol moves
};

struct SearchTracePoint {
  int w = 0;
  double measured_payoff_rate = 0.0;  ///< gain per µs at this window
};

struct SearchResult {
  int w_found = 0;        ///< broadcast W_m
  int steps = 0;          ///< Ready messages sent
  bool used_left_search = false;
  bool hit_step_limit = false;
  double elapsed_us = 0.0;  ///< total channel time the search consumed
  std::vector<SearchTracePoint> trace;
};

/// Runs the search on `sim` with node `leader` initiating. All nodes end
/// on the returned window. Throws std::invalid_argument on a bad config.
SearchResult run_search(Simulator& sim, std::size_t leader,
                        const SearchConfig& config);

}  // namespace smac::sim
