#include "analytical/batch_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "analytical/backoff_chain.hpp"
#include "analytical/solver_detail.hpp"

namespace smac::analytical {

namespace {

/// Plain Newton's step cap: a start inside its basin converges in 3–7
/// steps.
constexpr int kNewtonSteps = 50;

/// Per-instance solve: Newton steps from the homogeneous-mean seed, with
/// the damped map x ← ½·T(x) + ½·x as the step taken in place of a
/// refused one. Plain Newton takes every step until its first refused
/// step or kNewtonSteps steps; after that a Newton step is tried only
/// once the fixed-point residual has halved since the last try, and every
/// other step is damped. One call to step() takes exactly one step, so a
/// machine driven to completion is bitwise identical however the batch
/// interleaves it with others.
class ClassSolveMachine {
 public:
  ClassSolveMachine(const detail::ClassSolveRef& instance, double* tau_slot)
      : inst_(instance),
        k_(instance.classes->class_count()),
        n_(static_cast<int>(instance.classes->node_count())),
        x_(tau_slot) {
    if (!detail::valid_solver_options(*inst_.opts)) {
      result_ = detail::invalid_solve();
      done_ = true;
      return;
    }
    // k = 1: the profile is homogeneous — the whole system is one scalar
    // root problem, solved by the Brent/bisection ladder at machine
    // precision regardless of the caller's iteration budget.
    if (k_ == 1) {
      TrySolveResult hom = detail::homogeneous_class_state(
          inst_.classes->window[0], n_, inst_.max_stage,
          inst_.packet_error_rate);
      if (usable(hom.diagnostics.status)) {
        result_ = std::move(hom);
        done_ = true;
        return;
      }
      // Unusable scalar solve (cannot happen for validated inputs): fall
      // through to the loop below.
    }
    // Homogeneous-mean seed: every class starts from the mean-window fixed
    // point's failure probability — close enough to the heterogeneous
    // fixed point that Newton converges in a few steps. An unusable seed
    // (cannot happen for validated inputs) becomes the cold point τ(W, PER).
    const double fail = homogeneous_mean_fail();
    for (std::size_t c = 0; c < k_; ++c) {
      x_[c] = transmission_probability(inst_.classes->window[c], fail,
                                       inst_.max_stage);
    }
  }

  bool done() const noexcept { return done_; }

  /// One step on F_c = τ_c − T(W_c, f_c), f_c = 1 − (1 − p_c)(1 − PER):
  /// Newton's, or the damped one. As p_c = 1 − X/(1 − τ_c) with X = Π (1 −
  /// τ_c)^{m_c}, the Jacobian is D − u·vᵀ: D_c = 1 + u_c/(1 − τ_c), u_c =
  /// a_c(1 − p_c), v_c = m_c/(1 − τ_c), a_c = −(1 − PER)·T_c²·W_c·g′(f_c)/2
  /// with g(f) = f·Σ_{r<m}(2f)^r — O(k) by Sherman–Morrison. A Newton step
  /// that would leave (0, 1) (non-finite included) is refused.
  /// `prefix`/`suffix` are caller scratch of size k + 1, `p` of size k —
  /// shared across the batch's instances within a sweep.
  void step(double* prefix, double* suffix, double* p) {
    detail::class_collision_probabilities_into(
        x_, inst_.classes->multiplicity.data(), k_, prefix, suffix, p);
    // With p known, prefix/suffix are free: y = D⁻¹F and z = D⁻¹u; each
    // p[c], once read, holds T_c for the damped step.
    double* y = prefix;
    double* z = suffix;
    const double keep = 1.0 - inst_.packet_error_rate;
    double vy = 0.0;
    double vz = 0.0;
    double gap = 0.0;  // max_c |x_c − T_c(x)|
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
      p[c] = t;
      gap = std::max(gap, std::abs(x_[c] - t));
    }
    // Newton's candidate goes into y; a refused try, or no try, takes the
    // damped step instead.
    double step_norm = 0.0;
    bool newton = plain_ || gap < 0.5 * tried_gap_;
    if (newton) {
      tried_gap_ = gap;
      const double scale = vy / (1.0 - vz);
      for (std::size_t c = 0; c < k_; ++c) {
        y[c] = x_[c] - (y[c] + z[c] * scale);
        newton = newton && y[c] > 0.0 && y[c] < 1.0;
        step_norm = std::max(step_norm, std::abs(y[c] - x_[c]));
      }
      if (newton) std::copy(y, y + k_, x_);
    }
    if (!newton) {
      step_norm = 0.0;
      for (std::size_t c = 0; c < k_; ++c) {
        const double next = 0.5 * p[c] + 0.5 * x_[c];
        step_norm = std::max(step_norm, std::abs(next - x_[c]));
        x_[c] = next;
      }
      damped_ = true;
    }
    plain_ = plain_ && newton && iter_ < kNewtonSteps;
    residual_ = step_norm;
    if (step_norm <= inst_.opts->tolerance) {
      finish(/*converged=*/true);
    } else if (iter_ == inst_.opts->max_iterations) {
      finish(/*converged=*/false);
    } else {
      ++iter_;
    }
  }

  /// Valid once done(): the solve's outcome, class-space.
  TrySolveResult take_result() { return std::move(result_); }

 private:
  /// The failure probability of the mean-window homogeneous fixed point
  /// (mean in canonical class order), or PER if that solve is unusable.
  double homogeneous_mean_fail() const {
    double mean_window = 0.0;
    for (std::size_t c = 0; c < k_; ++c) {
      mean_window += static_cast<double>(inst_.classes->multiplicity[c]) *
                     static_cast<double>(inst_.classes->window[c]);
    }
    mean_window /= static_cast<double>(n_);
    const TryTauResult hom = try_homogeneous_tau(
        mean_window, n_, inst_.max_stage, inst_.packet_error_rate);
    if (!usable(hom.diagnostics.status)) return inst_.packet_error_rate;
    const double p_hom =
        n_ == 1 ? 0.0 : 1.0 - detail::ipow(1.0 - hom.tau, n_ - 1);
    return 1.0 - (1.0 - p_hom) * (1.0 - inst_.packet_error_rate);
  }

  /// The current iterate (sanitized) is the answer, converged or not.
  void finish(bool converged) {
    NetworkState& state = result_.state;
    state.tau.assign(x_, x_ + k_);
    detail::sanitize_probabilities(state.tau);
    state.p = detail::class_collision_probabilities(
        state.tau, inst_.classes->multiplicity);
    state.iterations = iter_;
    state.residual = residual_;

    SolveDiagnostics& diagnostics = result_.diagnostics;
    diagnostics.iterations = iter_;
    diagnostics.retries = damped_ ? 1 : 0;
    diagnostics.residual = residual_;
    diagnostics.method = "newton";
    diagnostics.status = converged                       ? SolveStatus::kConverged
                         : residual_ <= kDegradedResidual ? SolveStatus::kDegraded
                                                          : SolveStatus::kFailed;
    state.converged = converged;
    done_ = true;
  }

  const detail::ClassSolveRef& inst_;
  std::size_t k_;
  int n_;
  double* x_;  ///< this instance's segment of the batch tau arena

  bool plain_ = true;    ///< every Newton step taken so far
  bool damped_ = false;  ///< some step was damped
  bool done_ = false;
  int iter_ = 1;
  double tried_gap_ = 0.0;  ///< the residual where Newton was last tried
  double residual_ = 0.0;
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

  // Lockstep sweeps: every active instance advances one step per sweep;
  // finished instances are masked out in place (stable order, so the
  // arena is walked front to back every sweep).
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
