// Enforcement: detection → calibrated reaction → rehabilitation.
//
// The paper's repeated game disciplines deviants through TFT matching —
// every compliant node retaliates against whatever it observes, which PR 2
// showed ratchets to W = 1 under observation noise, and which a §V.D
// short-sighted deviant simply does not care about (it still invades the
// PR 5 tournament). Banchs et al. ("Thwarting Selfish Behavior in 802.11
// WLANs") and Kyasanur & Vaidya (the paper's citation [3]) close that gap
// with an explicit protocol: a statistical detector flags a misbehaving
// station, the compliant crowd applies a *calibrated* punishment response,
// and the station is readmitted afterwards. ReactionPolicy is that
// protocol for the repeated-game runtime:
//
//   flag    — a sim::OnlineDetector (per-opponent SPRT/CUSUM over the
//             monitor's observed windows) crosses its Wald threshold;
//   punish  — compliant nodes drop to a *jamming* window below the
//             deviant's. Matching the deviant (TFT-style) would not hurt
//             it here: the symmetric all-w payoff of this stage game is
//             nearly flat in w, so a deviant only profits from asymmetry
//             (a smaller window than the crowd's) — and only asymmetry
//             the other way starves it back. The episode length is
//             calibrated: the three what-if profiles (all-compliant
//             baseline, deviant-vs-crowd, deviant-vs-jamming-crowd) are
//             solved in one StageGame::try_stage_utilities_batch
//             call, and the episode runs until the deviant's
//             loss repays its estimated stolen utility times a penalty
//             margin;
//   rehab   — when the episode ends the offender's evidence is cleared
//             (OnlineDetector::rehabilitate) and everyone returns to the
//             agreement. A noise-induced false flag estimates gain ≈ 0
//             (the "offender's" observed window ≈ W_agreed) and lands on
//             the minimum episode length instead of ratcheting — the same
//             forgiveness contract the PR 5 strategies established,
//             lifted to the protocol layer.
//
// The policy models a coordinator-style monitor (one observer, one
// verdict — the §V.C search protocol already assumes such a coordination
// channel), which is what keeps punishers from flagging each other;
// multihop::play_multihop_tft's enforcement variant shows the distributed
// flooding version. Everything here is a pure function of the observation
// sequence — no RNG, no clocks — so enforcement inherits the bit-identical
// determinism contract.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "game/observation_filter.hpp"
#include "game/stage_game.hpp"
#include "game/strategies.hpp"
#include "sim/online_detector.hpp"

namespace smac::game {

struct ReactionConfig {
  /// Sequential detector watching every player against the agreement.
  sim::OnlineDetectorConfig detector;
  /// The agreed cooperative window (e.g. the efficient NE W*).
  int w_agreed = 1;
  /// Optional robust smoothing of the monitor's window readings before
  /// they reach the detector and the ŵ estimate (kNone = raw readings;
  /// the default detector geometry already tolerates magnitude-4 noise).
  ObservationFilterConfig monitor_filter;
  /// Episode length bounds (stages). The calibrated length is clamped
  /// into [min, max]; false flags land on min because their estimated
  /// gain is ≈ 0.
  int min_punishment_stages = 2;
  int max_punishment_stages = 40;
  /// Overcharge factor: the episode makes the deviant lose margin ×
  /// estimated stolen utility, so deviating is strictly unprofitable,
  /// not just neutral.
  double penalty_margin = 2.0;
  /// The jamming window punishers drop to during an episode (must be in
  /// [1, w_agreed]). The default w = 1 denies the channel to everyone —
  /// grim for the episode's duration, which is exactly what makes it
  /// deter; the calibration keeps episodes short.
  int punishment_w = 1;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// One punishment episode, for reports and tests.
struct PunishmentEpisode {
  std::size_t offender = 0;
  int start_stage = 0;  ///< first punished stage
  int length = 0;       ///< stages punished
  int w_punish = 1;     ///< jamming window the compliant crowd dropped to
  double gain_per_stage = 0.0;  ///< estimated deviant gain that sized it
  double loss_per_stage = 0.0;  ///< deviant's per-punished-stage loss
};

/// What enforcement did over one run (analog of DegradationReport).
struct EnforcementReport {
  int flags_raised = 0;      ///< detector flags latched (≥ episodes)
  int episodes = 0;          ///< punishment episodes opened
  int punished_stages = 0;   ///< stages spent punishing
  int rehabilitations = 0;   ///< episodes that completed and cleared
  int first_flag_stage = -1; ///< stage whose observation raised the first
                             ///< flag (−1 = never)
  std::vector<PunishmentEpisode> history;

  bool any() const noexcept { return flags_raised > 0; }
  /// "flags=2 episodes=2 punished=16 rehabs=2 first@1" / "clean".
  std::string summary() const;
};

/// The closed loop: consumes the monitor's per-stage observations,
/// decides when an episode is active, and tells compliant players what to
/// play while it is. Driven by RepeatedGameEngine; usable standalone for
/// tests.
class ReactionPolicy {
 public:
  /// `game` must outlive the policy; `players` ≥ 2 is the network size.
  /// The detector models the game's own max_backoff_stage.
  /// Throws std::invalid_argument on an invalid config (including a
  /// detector whose tolerance swallows its design cheat).
  ReactionPolicy(const StageGame& game, const ReactionConfig& config,
                 std::size_t players);

  /// Whether an episode is active — i.e. the *next* stage's compliant
  /// decisions are overridden by command().
  bool punishing() const noexcept { return episode_.has_value(); }
  std::size_t offender() const;       ///< throws std::logic_error when idle
  int punishment_window() const;      ///< throws std::logic_error when idle

  /// The window a compliant player must play during an episode: the
  /// punishment window — except the sanctioned offender itself, which is
  /// commanded back to the agreement (a falsely-flagged compliant node
  /// keeps cooperating; a real deviant ignores the command anyway).
  /// Returns `decided` unchanged when no episode is active.
  int command(std::size_t player, int decided) const;

  /// Absorbs the monitor's observation of stage `stage` (windows already
  /// passed through whatever fault model applies; `observed.online`
  /// marks who was up). Advances or closes the active episode, or feeds
  /// the detector and possibly opens one (affecting stage `stage` + 1).
  void end_stage(const StageRecord& observed, int stage);

  const EnforcementReport& report() const noexcept { return report_; }
  const sim::OnlineDetector& detector() const noexcept { return detector_; }

 private:
  void open_episode(std::size_t offender, int first_stage);

  struct ActiveEpisode {
    std::size_t offender = 0;
    int remaining = 0;
    int w_punish = 1;
  };

  const StageGame& game_;
  ReactionConfig config_;
  sim::OnlineDetector detector_;
  ObservationFilter filter_;
  std::vector<std::vector<int>> series_;  ///< per-player observed windows
  std::optional<ActiveEpisode> episode_;
  EnforcementReport report_;
};

}  // namespace smac::game
