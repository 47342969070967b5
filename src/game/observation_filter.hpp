// Robust smoothing of observed contention windows — the stage between
// fault::FaultInjector's noisy per-player histories and Strategy::decide.
//
// The paper's §IV strategies assume perfect promiscuous-mode observation;
// PR 2's fault bench showed that a single false-low window read is
// absorbing under min-matching retaliation (TFT and GTFT both ratchet to
// W = 1 and never recover). The estimation literature (Banchs et al.,
// Tinnirello et al.) absorbs that noise *before* the reaction rule: each
// observer smooths every opponent's window series over a short trailing
// horizon, so an isolated outlier never reaches the trigger. Two robust
// location estimators are provided:
//
//   * kMedian — median of the last r observations; immune to up to
//     ⌊(r−1)/2⌋ arbitrary outliers.
//   * kTrimmedMean — mean after dropping a fixed fraction from each tail;
//     smoother response to genuine window changes, still outlier-robust.
//
// Filters are pure functions of the observed history — no RNG, no
// internal state — so filtered runs inherit the library's determinism
// contract (seed-determined, bit-identical at any --jobs) for free.
#pragma once

#include <string>
#include <vector>

#include "game/strategies.hpp"

namespace smac::game {

/// Which robust estimator smooths each opponent's window series.
enum class FilterKind {
  kNone,         ///< pass observations through untouched
  kMedian,       ///< median of the last `window` observations
  kTrimmedMean,  ///< mean after trimming `trim_fraction` from each tail
};

const char* to_string(FilterKind kind) noexcept;

struct ObservationFilterConfig {
  FilterKind kind = FilterKind::kNone;
  /// Trailing observations fed to the estimator (r). Values beyond the
  /// history length are fine — young histories use what exists.
  int window = 5;
  /// Share of sorted observations dropped from EACH tail (kTrimmedMean
  /// only); at least one observation always survives the trim.
  double trim_fraction = 0.25;

  bool enabled() const noexcept {
    return kind != FilterKind::kNone && window > 1;
  }
  /// Display name: "none", "median(5)", "trim(7,0.25)".
  std::string name() const;
  /// Throws std::invalid_argument on window < 1 or trim_fraction
  /// outside [0, 0.5) (NaN included).
  void validate() const;
};

/// Applies one ObservationFilterConfig to per-player observed histories.
class ObservationFilter {
 public:
  ObservationFilter() = default;
  explicit ObservationFilter(ObservationFilterConfig config);

  const ObservationFilterConfig& config() const noexcept { return config_; }
  bool enabled() const noexcept { return config_.enabled(); }

  /// Robust location of one window series (the trailing `window` values
  /// of `series` — older entries are ignored). `series` must be
  /// non-empty; the result is clamped to >= 1.
  int smooth(const std::vector<int>& series) const;

  /// The filtered view of `raw`'s newest stage: every opponent's window
  /// is replaced by smooth() over its last `window` observed values;
  /// `self`'s own window (always observed exactly), the utilities, and
  /// the online mask pass through unchanged. `raw` must be non-empty.
  StageRecord filter_latest(const History& raw, std::size_t self) const;

 private:
  ObservationFilterConfig config_;
};

}  // namespace smac::game
