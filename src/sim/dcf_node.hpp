// Backoff state machine of one saturated IEEE 802.11 DCF node.
//
// Realizes the process abstracted by the paper's Markov chain (§III,
// Fig. 1): the node holds a (stage, counter) pair; it transmits in every
// channel slot where counter = 0, doubles its window (up to stage m) after
// a collision, and resets to stage 0 after a success. Saturation means a
// fresh packet is always waiting, so the post-success state immediately
// begins a new backoff. Time is counted in *channel slots* (idle σ,
// success T_s, collision T_c), exactly the embedding Bianchi's model uses.
// A run of k idle slots only counts the backoff down, so a saturated
// simulator may advance it in one observe_slots(k) call; with Poisson
// sources an arrival in any slot can start a new backoff, so those step
// one slot at a time.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace smac::sim {

/// Backoff adjustment law. The paper (and Bianchi's model) assume binary
/// exponential backoff; the alternatives are ablation baselines:
/// kMild is MACAW's multiplicative-increase (×1.5) / linear-decrease (−1)
/// rule, known for better short-term fairness; kConstant never adapts
/// (equivalent to max_stage = 0 but explicit).
enum class BackoffPolicy {
  kBinaryExponential,
  kMild,
  kConstant,
};

/// Per-node transmission counters accumulated by the simulator.
struct NodeCounters {
  std::uint64_t attempts = 0;    ///< packets emitted (n_e)
  std::uint64_t successes = 0;   ///< packets delivered (n_s)
  std::uint64_t collisions = 0;  ///< attempts that collided
};

class DcfNode {
 public:
  /// `cw` is the node's (selfishly chosen) initial window W_i >= 1;
  /// `max_stage` is m >= 0 (for kMild it bounds the window at 2^m·W_i).
  /// The node owns its RNG stream.
  DcfNode(int cw, int max_stage, util::Rng rng,
          BackoffPolicy policy = BackoffPolicy::kBinaryExponential);

  int cw() const noexcept { return cw_; }
  BackoffPolicy policy() const noexcept { return policy_; }
  /// BEB stage (always 0 for kMild/kConstant, which do not use stages).
  int stage() const noexcept { return stage_; }
  /// Current effective contention window the next draw uses.
  std::int64_t current_window() const noexcept;
  std::int64_t counter() const noexcept { return counter_; }
  const NodeCounters& counters() const noexcept { return counters_; }

  /// Reconfigures the contention window (a new stage begins). The backoff
  /// restarts at stage 0 with a fresh draw, as after a delivered packet.
  void set_cw(int cw);

  /// True when the node will transmit in the current channel slot.
  bool ready() const noexcept { return counter_ == 0; }

  /// Advances one channel slot in which this node did NOT transmit
  /// (idle, or busy by others). Decrements the backoff counter. Inline:
  /// both slot loops call it for every listening node every slot.
  void observe_slot() noexcept {
    if (counter_ > 0) --counter_;
  }

  /// Advances `slots` channel slots at once: the same state as `slots`
  /// observe_slot() calls.
  void observe_slots(std::int64_t slots) noexcept {
    counter_ = counter_ > slots ? counter_ - slots : 0;
  }

  /// Outcome callbacks for a slot in which this node transmitted.
  void on_success();
  void on_collision();

  /// Starts contention for a fresh packet after an idle period (queue was
  /// empty): stage resets to 0 with a new backoff draw, without counting
  /// an attempt. Saturated operation never needs this — on_success already
  /// begins the next packet's backoff.
  void begin_packet();

  /// Zeroes the counters (start of a measurement window); backoff state
  /// is preserved so consecutive windows chain seamlessly.
  void reset_counters() noexcept { counters_ = NodeCounters{}; }

 private:
  std::int64_t window_of_stage(int stage) const noexcept;
  void draw_backoff();

  int cw_;
  int max_stage_;
  BackoffPolicy policy_;
  int stage_ = 0;
  std::int64_t mild_window_ = 0;  ///< current window under kMild
  std::int64_t counter_ = 0;
  NodeCounters counters_;
  util::Rng rng_;
};

}  // namespace smac::sim
