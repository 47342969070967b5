// Network-level fixed point of the extended (heterogeneous) Bianchi model.
//
// Couples each node's backoff chain τ_i = τ(W_i, p_i) with the channel
// feedback p_i = 1 − Π_{j≠i}(1 − τ_j) (paper eqs. 2–3): 2n equations in
// (τ_1..τ_n, p_1..p_n). Nodes may hold *different* contention windows —
// the selfish setting the paper models — but almost every profile the
// game layers produce has only a handful of *distinct* windows (TFT
// trajectories converge to a common W; deviation tests are one deviant
// against n − 1 conformers). The solver therefore collapses the profile
// into k symmetry classes of identical (W, multiplicity m) and iterates
// the k-dimensional system
//
//   p_c = 1 − (1 − τ_c)^(m_c − 1) · Π_{c'≠c} (1 − τ_{c'})^{m_{c'}}
//
// expanding back to per-node vectors afterwards — O(k) per iteration
// instead of O(n). The class solve returns the class-symmetric fixed
// point, every node of a class at one τ. The per-node system can also
// have asymmetric fixed points, which it never returns: two W = 1 nodes
// at m = 6 among wide windows can also settle at τ ≈ 0.95 and ≈ 0.04
// (tests/analytical/symmetry_collapse_test.cpp). The k = 1 case
// delegates to the scalar Brent path. The pre-collapse full-dimension
// kernel lives outside the library, as the test-support reference
// tests/support/reference_solver.hpp.
#pragma once

#include <cstdint>
#include <vector>

namespace smac::analytical {

/// Solution of the coupled (τ, p) system for one CW profile.
struct NetworkState {
  std::vector<double> tau;  ///< per-node transmission probability
  std::vector<double> p;    ///< per-node conditional collision probability
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;
};

/// Convergence knobs of the class solve. Valid options have
/// max_iterations >= 1 and a finite tolerance > 0; any other value is
/// invalid input (kFailed, method "invalid").
struct SolverOptions {
  double tolerance = 1e-13;  ///< max-norm step that declares convergence
  int max_iterations = 20000;  ///< caps the steps of the class solve
};

/// Outcome classification of the non-throwing solver entry points.
///
///   kConverged — residual below tolerance; the state is the fixed point.
///   kDegraded  — the solve used up its budget, but its last step is
///                small (≤ kDegradedResidual); the state is
///                usable as an approximation and callers should carry the
///                diagnostics forward (DegradationReport).
///   kFailed    — the solve produced no usable iterate; the state holds
///                the last iterate, clamped to [0, 1], and must not be
///                trusted. Invalid inputs also read kFailed, with an empty
///                state.
enum class SolveStatus { kConverged, kDegraded, kFailed };

/// Residual threshold separating kDegraded from kFailed.
inline constexpr double kDegradedResidual = 1e-6;

/// What the solver did to produce a result.
struct SolveDiagnostics {
  SolveStatus status = SolveStatus::kConverged;
  int iterations = 0;      ///< steps (k >= 2) or root-search iterations
  /// 1 when the solve fell back: some step of the Newton loop was damped,
  /// or (k = 1) Brent gave way to bisection.
  int retries = 0;
  double residual = 0.0;   ///< residual of the returned state
  /// Path that produced the returned state: "newton" (the Newton loop from
  /// the homogeneous-mean start, every k >= 2 solve),
  /// "bisection"/"brent"/"closed-form" (scalar k = 1 path), or "invalid"
  /// (bad inputs).
  const char* method = "newton";
};

constexpr bool usable(SolveStatus s) noexcept {
  return s != SolveStatus::kFailed;
}

const char* to_string(SolveStatus status) noexcept;

struct TrySolveResult {
  NetworkState state;
  SolveDiagnostics diagnostics;
};

struct TryTauResult {
  double tau = 0.0;
  SolveDiagnostics diagnostics;
};

/// Symmetry-class decomposition of a contention-window profile: the
/// distinct windows in ascending order, their multiplicities, and the
/// node → class map. The canonical (sorted) ordering makes every
/// permutation of a profile collapse to the same class system — the basis
/// of both the solver's O(k) iteration and the cache's permutation hits.
struct ClassProfile {
  std::vector<int> window;             ///< distinct windows, ascending
  std::vector<int> multiplicity;       ///< same length as window
  std::vector<std::int32_t> class_of;  ///< node index → class index

  std::size_t node_count() const noexcept { return class_of.size(); }
  std::size_t class_count() const noexcept { return window.size(); }
};

/// Builds the class decomposition of `w` (any profile, no validation).
ClassProfile classify_profile(const std::vector<int>& w);

/// Expands a class-space solution (tau/p of size k) to per-node vectors
/// in the original node order. Nodes of one class get bitwise-identical
/// values, so try_solve_network(perm(w)) == perm(try_solve_network(w))
/// exactly.
NetworkState expand_classes(const NetworkState& class_state,
                            const ClassProfile& classes);

/// The heterogeneous solve for contention-window profile `w` (one entry
/// per node) with maximum backoff stage `max_stage`, in one loop of at
/// most max_iterations steps. Never throws and never returns non-finite
/// values: Newton steps from a homogeneous-mean seeded start, with the
/// damped step x ← ½·T(x) + ½·x taken in place of a Newton step that
/// would leave (0, 1) (docs/SOLVER_API.md has the rule) — and it reports
/// how far it got in the diagnostics (NetworkState::converged reflects
/// SolveStatus::kConverged).
/// Invalid inputs (empty profile, w < 1, max_stage < 0, PER outside
/// [0, 1) or NaN, max_iterations < 1, a tolerance that is not finite and
/// > 0) yield kFailed, method "invalid", with an empty state. For n = 1
/// the collision probability is identically zero.
/// `packet_error_rate` adds channel-noise losses: the backoff chain
/// escalates on failure probability 1 − (1 − p_i)(1 − PER), while the
/// returned NetworkState::p stays the *collision* probability (channel
/// feedback), matching the utility u = τ((1−p)(1−PER)g − e)/T_slot.
TrySolveResult try_solve_network(const std::vector<int>& w, int max_stage,
                                 const SolverOptions& opts = {},
                                 double packet_error_rate = 0.0);

/// Homogeneous τ (all n nodes on the continuous window `w`, which lets
/// window_for_tau invert τ ↦ W): Brent first, typically ~40 evaluations
/// to machine precision, plain bisection as the fallback rung (the
/// bracket [0, 1] always holds a sign change). Invalid inputs (n < 1,
/// w < 1 or non-finite, max_stage < 0, PER outside [0, 1) or NaN) yield
/// kFailed, method "invalid", with τ = 0.
TryTauResult try_homogeneous_tau(double w, int n, int max_stage,
                                 double packet_error_rate = 0.0);

/// Inverts the homogeneous model at `packet_error_rate`: the (continuous)
/// window w such that the n-node fixed point transmits with probability
/// `tau_target`. Monotone bisection over w ∈ [1, w_hi]; expands w_hi as
/// needed. Returns w clamped to >= 1 when even w = 1 yields τ <
/// tau_target, and clamped to the expansion cap kWindowForTauCap when no
/// window up to the cap reaches a τ as small as `tau_target` (instead of
/// aborting a sweep mid-run). Throws std::invalid_argument on invalid
/// inputs (tau_target outside (0, 1], n < 1, max_stage < 0, PER outside
/// [0, 1) or NaN) and std::runtime_error when a try_homogeneous_tau root
/// search reports kFailed.
double window_for_tau(double tau_target, int n, int max_stage,
                      double packet_error_rate = 0.0);

/// Upper clamp of window_for_tau's bracket expansion.
inline constexpr double kWindowForTauCap = 1e9;

}  // namespace smac::analytical
