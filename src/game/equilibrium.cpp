#include "game/equilibrium.hpp"

#include <stdexcept>

#include "analytical/utility.hpp"
#include "util/optimize.hpp"

namespace smac::game {

EquilibriumFinder::EquilibriumFinder(const StageGame& game, int n)
    : game_(game), n_(n) {
  if (n < 1) throw std::invalid_argument("EquilibriumFinder: n < 1");
}

int EquilibriumFinder::efficient_cw() const {
  const auto r = util::ternary_int_max(
      [&](std::int64_t w) {
        return game_.homogeneous_utility_rate(static_cast<int>(w), n_);
      },
      1, game_.params().w_max);
  return static_cast<int>(r.x);
}

std::optional<int> EquilibriumFinder::minimum_viable_cw() const {
  // u(w) > 0 ⇔ (1−p(w))·g > e; p decreases in w, so the sign of u is
  // monotone in w: binary-search the first positive window.
  const int w_max = game_.params().w_max;
  auto positive = [&](int w) {
    return game_.homogeneous_utility_rate(w, n_) > 0.0;
  };
  if (!positive(w_max)) return std::nullopt;
  if (positive(1)) return 1;
  int lo = 1;       // u(lo) <= 0
  int hi = w_max;   // u(hi) > 0
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (positive(mid) ? hi : lo) = mid;
  }
  return hi;
}

NashSet EquilibriumFinder::nash_set() const {
  const auto w0 = minimum_viable_cw();
  if (!w0) {
    throw std::runtime_error(
        "EquilibriumFinder: no viable window (utility <= 0 everywhere)");
  }
  NashSet set;
  set.w_min_viable = *w0;
  set.w_efficient = efficient_cw();
  set.u_efficient = game_.homogeneous_stage_utility(set.w_efficient, n_);
  if (set.w_efficient < set.w_min_viable) {
    // Degenerate (cannot happen with u(W_c*) maximal and positive): guard
    // against parameter sets where the maximum itself is non-positive.
    throw std::runtime_error("EquilibriumFinder: efficient window not viable");
  }
  return set;
}

bool EquilibriumFinder::is_nash(int w) const { return nash_set().contains(w); }

std::optional<double> EquilibriumFinder::tau_star_continuous() const {
  return analytical::optimal_tau_continuous(n_, game_.params(), game_.mode());
}

std::optional<double> EquilibriumFinder::w_star_continuous() const {
  return analytical::optimal_window_continuous(n_, game_.params(),
                                               game_.mode());
}

}  // namespace smac::game
