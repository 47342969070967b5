#include "analytical/batch_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "analytical/backoff_chain.hpp"
#include "analytical/solver_detail.hpp"

namespace smac::analytical {

namespace {

/// Newton's step cap: a start inside its basin converges in 3–7 steps.
constexpr int kNewtonSteps = 50;

/// The retry-ladder rungs in attempt order (polish runs after the ladder
/// proper, continuing from the best iterate instead of a fresh start).
enum class Rung : std::uint8_t {
  kNewton = 0,
  kSeeded,
  kDamped,
  kRedamped,
  kRestart,
  kPolish,
  kDone,
};

/// Per-instance ladder state machine. One call to step() performs exactly
/// one Newton step, one damped iteration of util::solve_fixed_point's loop
/// (same update, same max-norm step, same iteration counting — including
/// the budget + 1 count a non-converged damped rung reports) or one rung
/// transition, so a machine driven to completion is bitwise identical
/// however the batch interleaves it with others.
class ClassSolveMachine {
 public:
  ClassSolveMachine(const detail::ClassSolveRef& instance, double* tau_slot)
      : inst_(instance),
        k_(instance.classes->class_count()),
        n_(static_cast<int>(instance.classes->node_count())),
        x_(tau_slot) {
    best_.residual = std::numeric_limits<double>::infinity();

    // k = 1: the profile is homogeneous — the whole system is one scalar
    // root problem, solved by the Brent/bisection ladder at machine
    // precision regardless of the caller's iteration budget.
    if (k_ == 1) {
      const TryTauResult tau = try_homogeneous_tau(
          static_cast<double>(inst_.classes->window[0]), n_, inst_.max_stage,
          inst_.packet_error_rate);
      if (usable(tau.diagnostics.status)) {
        result_.state.tau.assign(1, tau.tau);
        result_.state.p = detail::class_collision_probabilities(
            result_.state.tau, inst_.classes->multiplicity);
        result_.state.converged =
            tau.diagnostics.status == SolveStatus::kConverged;
        result_.state.iterations = tau.diagnostics.iterations;
        result_.state.residual = tau.diagnostics.residual;
        result_.diagnostics = tau.diagnostics;
        rung_ = Rung::kDone;
        return;
      }
      // Unusable scalar solve (cannot happen for validated inputs): fall
      // through to the damped ladder below.
    }
    enter_first_applicable(Rung::kNewton);
  }

  bool done() const noexcept { return rung_ == Rung::kDone; }

  /// One Newton step or damped iteration (or a budget-exhaustion
  /// transition) of the current rung. `prefix`/`suffix` are caller scratch
  /// of size k + 1, `p` of size k — shared across the batch's instances
  /// within a sweep.
  void step(double* prefix, double* suffix, double* p) {
    if (iter_ > budget_) {
      rung_ == Rung::kNewton ? fall_back(iter_ - 1)
                             : finish_rung(/*converged=*/false, iter_);
      return;
    }
    if (rung_ == Rung::kNewton) {
      newton_step(prefix, suffix, p);
      return;
    }
    // One solve_fixed_point iteration on the class map: p from the current
    // iterate, then x' = (1 − d)·τ(W, fail) + d·x with the max-norm step.
    detail::class_collision_probabilities_into(
        x_, inst_.classes->multiplicity.data(), k_, prefix, suffix, p);
    double step_norm = 0.0;
    for (std::size_t c = 0; c < k_; ++c) {
      const double fail =
          1.0 - (1.0 - p[c]) * (1.0 - inst_.packet_error_rate);
      const double fx =
          transmission_probability(inst_.classes->window[c], fail,
                                   inst_.max_stage);
      const double next = (1.0 - damping_) * fx + damping_ * x_[c];
      step_norm = std::max(step_norm, std::abs(next - x_[c]));
      x_[c] = next;
    }
    residual_ = step_norm;
    if (step_norm <= inst_.opts->tolerance) {
      finish_rung(/*converged=*/true, iter_);
    } else {
      ++iter_;
    }
  }

  /// Valid once done(): the ladder outcome, class-space.
  TrySolveResult take_result() { return std::move(result_); }

 private:
  /// One Newton step on F_c = τ_c − T(W_c, f_c), f_c = 1 − (1 − p_c)(1 −
  /// PER). As p_c = 1 − X/(1 − τ_c) with X = Π (1 − τ_c)^{m_c}, the
  /// Jacobian is D − u·vᵀ: D_c = 1 + u_c/(1 − τ_c), u_c = a_c(1 − p_c),
  /// v_c = m_c/(1 − τ_c), a_c = −(1 − PER)·T_c²·W_c·g′(f_c)/2 with g(f) =
  /// f·Σ_{r<m}(2f)^r — O(k) by Sherman–Morrison. A step that leaves
  /// (0, 1) (non-finite included) falls back at once.
  void newton_step(double* prefix, double* suffix, double* p) {
    detail::class_collision_probabilities_into(
        x_, inst_.classes->multiplicity.data(), k_, prefix, suffix, p);
    // With p known, prefix/suffix are free: y = D⁻¹F and z = D⁻¹u.
    double* y = prefix;
    double* z = suffix;
    const double keep = 1.0 - inst_.packet_error_rate;
    double vy = 0.0;
    double vz = 0.0;
    for (std::size_t c = 0; c < k_; ++c) {
      const double idle = 1.0 - p[c];
      const double fail = 1.0 - idle * keep;
      const double w = static_cast<double>(inst_.classes->window[c]);
      // T(W, f) in transmission_probability's operation order, and g′(f)
      // = Σ_{r<m} (r + 1)(2f)^r from the same powers of 2f.
      double sum = 0.0;
      double dg = 0.0;
      double term = 1.0;
      for (int r = 0; r < inst_.max_stage; ++r) {
        sum += term;
        dg += static_cast<double>(r + 1) * term;
        term *= 2.0 * fail;
      }
      const double t = 2.0 / (1.0 + w + fail * w * sum);
      const double u = -keep * t * t * w * dg / 2.0 * idle;
      const double inv_free = 1.0 / (1.0 - x_[c]);
      const double inv_d = 1.0 / (1.0 + u * inv_free);
      const double v =
          static_cast<double>(inst_.classes->multiplicity[c]) * inv_free;
      y[c] = (x_[c] - t) * inv_d;
      z[c] = u * inv_d;
      vy += v * y[c];
      vz += v * z[c];
    }
    const double scale = vy / (1.0 - vz);
    double step_norm = 0.0;
    bool inside = true;
    for (std::size_t c = 0; c < k_; ++c) {
      const double next = x_[c] - (y[c] + z[c] * scale);
      inside = inside && next > 0.0 && next < 1.0;
      step_norm = std::max(step_norm, std::abs(next - x_[c]));
      x_[c] = next;
    }
    residual_ = step_norm;
    if (!inside) {
      fall_back(iter_);
    } else if (step_norm <= inst_.opts->tolerance) {
      finish_rung(/*converged=*/true, iter_);
    } else {
      ++iter_;
    }
  }

  /// Newton missed: its iterate is dropped (never offered to best_), and
  /// the damped ladder starts over from the seeded start.
  void fall_back(int iterations) {
    total_iterations_ += iterations;
    ++retries_;
    enter_first_applicable(Rung::kSeeded);
  }

  /// Seeds the arena and iteration bookkeeping for `rung`, skipping a rung
  /// whose start vector is unavailable (an unusable homogeneous seed).
  /// Start vectors are pure functions of the instance, so computing them
  /// lazily here — instead of all up front as the pre-batch ladder did —
  /// changes which ones are computed, never a value that reaches the
  /// result.
  void enter_first_applicable(Rung rung) {
    for (;;) {
      switch (rung) {
        case Rung::kNewton:
          seed_fail_ = homogeneous_mean_fail();
          [[fallthrough]];
        case Rung::kSeeded: {
          // Homogeneous-mean start: every class seeded from the mean-window
          // fixed point's failure probability — close enough to the
          // heterogeneous fixed point that Newton converges in a few steps
          // and starved damped budgets converge where the cold start only
          // degrades. Newton and its fallback share it: one Brent search.
          if (std::isnan(seed_fail_)) {
            rung = Rung::kDamped;
            break;
          }
          start_at(seed_fail_);
          begin_rung(rung, inst_.opts->damping,
                     rung == Rung::kNewton
                         ? std::min(inst_.opts->max_iterations, kNewtonSteps)
                         : inst_.opts->max_iterations);
          return;
        }
        case Rung::kDamped: {
          start_at(0.0);
          begin_rung(rung, inst_.opts->damping, inst_.opts->max_iterations);
          return;
        }
        case Rung::kRedamped: {
          start_at(0.0);
          begin_rung(rung, std::max(inst_.opts->damping, 0.85),
                     inst_.opts->max_iterations * 2);
          return;
        }
        case Rung::kRestart: {
          start_at(0.9);
          begin_rung(rung, std::max(inst_.opts->damping, 0.95),
                     inst_.opts->max_iterations * 2);
          return;
        }
        case Rung::kPolish: {
          // Every ladder rung restarts from a fixed point-agnostic start,
          // discarding its predecessors' progress; continuing from the
          // best iterate compounds it — under starved budgets this turns
          // near-miss kDegraded outcomes into kConverged.
          if (!best_.converged && std::isfinite(best_.residual) &&
              best_.tau.size() == k_) {
            std::copy(best_.tau.begin(), best_.tau.end(), x_);
            begin_rung(rung, inst_.opts->damping,
                       inst_.opts->max_iterations * 2);
            return;
          }
          finish();
          return;
        }
        case Rung::kDone:
          finish();
          return;
      }
    }
  }

  /// The failure probability of the mean-window homogeneous fixed point
  /// (mean in canonical class order), or NaN if that solve is unusable.
  double homogeneous_mean_fail() const {
    double mean_window = 0.0;
    for (std::size_t c = 0; c < k_; ++c) {
      mean_window += static_cast<double>(inst_.classes->multiplicity[c]) *
                     static_cast<double>(inst_.classes->window[c]);
    }
    mean_window /= static_cast<double>(n_);
    const TryTauResult hom = try_homogeneous_tau(
        mean_window, n_, inst_.max_stage, inst_.packet_error_rate);
    if (!usable(hom.diagnostics.status)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    const double p_hom =
        n_ == 1 ? 0.0 : 1.0 - detail::ipow(1.0 - hom.tau, n_ - 1);
    return 1.0 - (1.0 - p_hom) * (1.0 - inst_.packet_error_rate);
  }

  /// Writes the start τ_c = τ(W_c, fail) of every class into the arena.
  void start_at(double fail) {
    for (std::size_t c = 0; c < k_; ++c) {
      x_[c] = transmission_probability(inst_.classes->window[c], fail,
                                       inst_.max_stage);
    }
  }

  /// Enters `rung` from the start already in the arena.
  void begin_rung(Rung rung, double damping, int budget) {
    if (damping < 0.0 || damping >= 1.0) {
      throw std::invalid_argument(
          "solve_fixed_point: damping must be in [0,1)");
    }
    rung_ = rung;
    damping_ = damping;
    budget_ = budget;
    iter_ = 1;
    residual_ = 0.0;
  }

  /// Ends the current rung exactly as the sequential ladder did: fold the
  /// (sanitized) iterate into `best`, then break out, advance, or polish.
  void finish_rung(bool converged, int iterations) {
    total_iterations_ += iterations;
    NetworkState state;
    state.tau.assign(x_, x_ + k_);
    detail::sanitize_probabilities(state.tau);
    state.p = detail::class_collision_probabilities(
        state.tau, inst_.classes->multiplicity);
    state.converged = converged;
    state.iterations = iterations;
    state.residual = residual_;

    if (rung_ == Rung::kPolish) {
      ++retries_;
      if (state.converged || state.residual < best_.residual) {
        best_ = std::move(state);
        best_method_ = "polish";
      }
      finish();
      return;
    }

    if (state.converged || state.residual < best_.residual) {
      best_ = std::move(state);
      best_method_ = method_name(rung_);
    }
    if (best_.converged) {
      finish();
      return;
    }
    ++retries_;
    enter_first_applicable(next_rung(rung_));
  }

  void finish() {
    result_.diagnostics.iterations = total_iterations_;
    result_.diagnostics.retries = retries_;
    result_.diagnostics.residual = best_.residual;
    result_.diagnostics.method = best_method_;
    result_.diagnostics.status =
        best_.converged ? SolveStatus::kConverged
        : best_.residual <= kDegradedResidual ? SolveStatus::kDegraded
                                              : SolveStatus::kFailed;
    best_.converged = result_.diagnostics.status == SolveStatus::kConverged;
    result_.state = std::move(best_);
    rung_ = Rung::kDone;
  }

  static Rung next_rung(Rung rung) {
    switch (rung) {
      case Rung::kNewton:
      case Rung::kSeeded: return Rung::kDamped;
      case Rung::kDamped: return Rung::kRedamped;
      case Rung::kRedamped: return Rung::kRestart;
      case Rung::kRestart: return Rung::kPolish;
      case Rung::kPolish:
      case Rung::kDone: return Rung::kDone;
    }
    return Rung::kDone;
  }

  static const char* method_name(Rung rung) {
    switch (rung) {
      case Rung::kNewton: return "newton";
      case Rung::kSeeded: return "seeded";
      case Rung::kDamped: return "damped";
      case Rung::kRedamped: return "redamped";
      case Rung::kRestart: return "restart";
      case Rung::kPolish: return "polish";
      case Rung::kDone: return "damped";
    }
    return "damped";
  }

  const detail::ClassSolveRef& inst_;
  std::size_t k_;
  int n_;
  double* x_;  ///< this instance's segment of the batch tau arena
  double seed_fail_ = std::numeric_limits<double>::quiet_NaN();

  Rung rung_ = Rung::kDamped;
  double damping_ = 0.5;
  int budget_ = 0;
  int iter_ = 1;
  double residual_ = 0.0;

  NetworkState best_;
  const char* best_method_ = "damped";
  int total_iterations_ = 0;
  int retries_ = 0;
  TrySolveResult result_;
};

}  // namespace

std::vector<TrySolveResult> try_solve_classes_batch(
    std::span<const ClassProfileInstance> instances) {
  std::vector<detail::ClassSolveRef> refs(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    refs[i] = {&instances[i].classes, instances[i].max_stage,
               instances[i].packet_error_rate, &instances[i].opts};
  }
  return detail::solve_classes_batch(refs);
}

std::vector<TrySolveResult> detail::solve_classes_batch(
    std::span<const ClassSolveRef> instances) {
  const std::size_t count = instances.size();
  std::vector<TrySolveResult> results(count);
  if (count == 0) return results;

  // Contiguous per-class tau arena: instance i iterates in place on
  // [offset[i], offset[i] + k_i), so a sweep touches one flat array.
  std::vector<std::size_t> offset(count);
  std::size_t total_k = 0;
  std::size_t max_k = 0;
  for (std::size_t i = 0; i < count; ++i) {
    offset[i] = total_k;
    total_k += instances[i].classes->class_count();
    max_k = std::max(max_k, instances[i].classes->class_count());
  }
  std::vector<double> tau_arena(total_k, 0.0);
  std::vector<double> prefix(max_k + 1);
  std::vector<double> suffix(max_k + 1);
  std::vector<double> p(max_k);

  std::vector<ClassSolveMachine> machines;
  machines.reserve(count);
  std::vector<std::uint32_t> active;
  active.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    machines.emplace_back(instances[i], tau_arena.data() + offset[i]);
    if (machines.back().done()) {
      results[i] = machines.back().take_result();
    } else {
      active.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Lockstep sweeps: every active instance advances one Newton step or one
  // damped iteration per sweep; finished instances are masked out in place
  // (stable order, so the arena is walked front to back every sweep).
  while (!active.empty()) {
    std::size_t kept = 0;
    for (const std::uint32_t i : active) {
      ClassSolveMachine& machine = machines[i];
      machine.step(prefix.data(), suffix.data(), p.data());
      if (machine.done()) {
        results[i] = machine.take_result();
      } else {
        active[kept++] = i;
      }
    }
    active.resize(kept);
  }
  return results;
}

}  // namespace smac::analytical
