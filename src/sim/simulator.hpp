// Slot-level single-hop IEEE 802.11 DCF simulator (saturated traffic).
//
// Replaces the paper's NS-2 experiments: all nodes are in range of each
// other; every channel slot resolves to idle (σ), success (T_s) or
// collision (T_c) depending on how many backoff counters hit zero, which
// is exactly the embedded process behind Bianchi's model. Heterogeneous
// per-node contention windows — the selfish setting — are first-class.
//
// The simulator keeps backoff state across measurement windows so the
// adaptive runtime (repeated game) and the §V.C search protocol can chain
// stages without re-warming.
//
// With saturated sources a slot where no counter is 0 starts an idle run
// as long as the smallest online counter, and the simulator jumps it at
// once (DcfNode::observe_slots), cut short by the window's end or the
// next scripted event; the Gilbert–Elliott chain still steps, and σ is
// still added, once per slot. Poisson sources draw arrivals every slot,
// and any arrival can start a backoff, so they step slot by slot.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "parallel/replication.hpp"
#include "phy/parameters.hpp"
#include "sim/dcf_node.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace smac::sim {

struct SimConfig {
  phy::Parameters params = phy::Parameters::paper();
  phy::AccessMode mode = phy::AccessMode::kBasic;
  std::uint64_t seed = 1;
  /// Per-node packet arrival rate (packets/second). 0 = saturated (the
  /// paper's assumption): a fresh packet is always waiting. Positive
  /// values switch the sources to Poisson arrivals with per-node queues —
  /// nodes with an empty queue do not contend.
  double arrival_rate_pps = 0.0;
  /// Capture effect: probability that a collision slot still delivers the
  /// frame of one (uniformly chosen) contender — near/far power imbalance
  /// at the receiver. 0 (default) = every collision destroys all frames.
  /// Channel-noise corruption of clean frames comes from
  /// params.packet_error_rate; both default off, leaving the paper's
  /// idealized channel.
  double capture_probability = 0.0;
  /// Backoff adjustment law of every node (ablation; the paper's model
  /// covers only kBinaryExponential).
  BackoffPolicy backoff_policy = BackoffPolicy::kBinaryExponential;
  /// Slot-level fault scenario: scripted crash/join events (slot indices
  /// count from simulator construction, across windows) plus an optional
  /// Gilbert–Elliott bursty-loss chain layered on packet_error_rate. An
  /// empty plan (the default) draws nothing and changes nothing.
  fault::SlotFaultPlan faults;
};

/// Measurements of one simulation window.
struct SimResult {
  double elapsed_us = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t success_slots = 0;
  std::uint64_t collision_slots = 0;
  /// Collision-free slots whose frame was corrupted by channel noise
  /// (packet_error_rate); they spend T_s but deliver nothing.
  std::uint64_t error_slots = 0;
  /// Collision slots rescued by the capture effect (one frame delivered).
  std::uint64_t capture_slots = 0;
  /// Slots spent in the Gilbert–Elliott Bad state (0 without a fault plan).
  std::uint64_t bad_state_slots = 0;
  std::vector<NodeCounters> node;
  /// Time-averaged queue length per node (always 0 in saturated mode,
  /// where the queue concept does not apply).
  std::vector<double> mean_backlog;

  /// Normalized throughput S: payload airtime fraction.
  double throughput = 0.0;
  /// Per-node payoff rate (n_s·g − n_e·e)/elapsed — the paper's measured
  /// utility, in gain per µs (comparable with analytical::utility_rates).
  std::vector<double> payoff_rate;
  /// Empirical τ_i = attempts_i / slots.
  std::vector<double> measured_tau;
  /// Empirical p_i = collisions_i / attempts_i (0 when no attempts).
  std::vector<double> measured_p;
};

class Simulator {
 public:
  Simulator(SimConfig config, const std::vector<int>& cw_profile);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  const SimConfig& config() const noexcept { return config_; }
  int cw(std::size_t i) const { return nodes_.at(i).cw(); }

  /// Reconfigures one node (its backoff restarts, §IV stage semantics).
  void set_cw(std::size_t i, int w);
  /// Reconfigures every node to the same window.
  void set_all_cw(int w);
  /// Reconfigures from a full profile.
  void set_profile(const std::vector<int>& cw_profile);

  /// Runs until at least `duration_us` (finite, > 0) of channel time has
  /// elapsed (finishing the slot in progress) and returns this window's
  /// stats.
  SimResult run_for(double duration_us);

  /// Runs exactly `n` channel slots.
  SimResult run_slots(std::uint64_t n);

  /// True when sources are saturated (arrival_rate_pps == 0).
  bool saturated() const noexcept { return config_.arrival_rate_pps == 0.0; }
  /// Current queue length of node i (0 in saturated mode).
  std::uint64_t backlog(std::size_t i) const { return backlog_.at(i); }

  /// Crashes (up = false) or rejoins node i, on top of any scripted plan.
  /// A crashed node does not contend, advance backoff, or drain its queue.
  void set_node_online(std::size_t i, bool up);
  bool node_online(std::size_t i) const { return node_up_.at(i) != 0; }
  /// Channel slots simulated since construction (scripted SlotEvent
  /// indices refer to this counter).
  std::uint64_t total_slots() const noexcept { return total_slots_; }

 private:
  struct WindowAccumulator;
  /// Advances the channel by one slot, or by a whole saturated idle run
  /// of at most `max_slots` slots that stops once acc.elapsed_us reaches
  /// `duration_us`.
  void step(WindowAccumulator& acc, std::uint64_t max_slots,
            double duration_us);
  bool node_active(std::size_t i) const noexcept {
    return node_up_[i] != 0 && (saturated() || backlog_[i] > 0);
  }

  SimConfig config_;
  phy::SlotTimes times_;
  std::vector<DcfNode> nodes_;
  std::vector<std::uint64_t> backlog_;
  std::vector<double> backlog_time_integral_;  ///< Σ backlog·slot-length
  util::Rng arrival_rng_;
  util::Rng channel_rng_;  ///< PER / capture draws (untouched when both off)
  std::vector<std::size_t> ready_scratch_;
  std::vector<std::uint8_t> node_up_;
  fault::GilbertElliottChannel fault_channel_;
  std::size_t next_fault_event_ = 0;
  std::uint64_t total_slots_ = 0;
};

/// Metric names of a replicated batch's ReplicationSummary::metrics, in
/// column order: throughput, collision/idle fractions, mean payoff rate,
/// Jain fairness of payoff, mean tau, mean p.
const std::vector<std::string>& replicated_metric_names();

/// Simulator-level name for run_replicated's result.
using SimBatch = parallel::ReplicationSummary;

/// Runs `replications` independent copies of (config, cw_profile) for
/// `slots` slots each, fanned over `jobs` threads (1 = serial inline,
/// 0 = ThreadPool::default_jobs()), and reduces them on the fly.
/// config.seed acts as the base seed of the replication family:
/// replication r runs with seed parallel::stream_seed(config.seed, r), so
/// a single replication is rebuilt as a Simulator with that seed. Results
/// are bit-identical for any `jobs` (see src/parallel/replication.hpp for
/// the determinism contract).
parallel::ReplicationSummary run_replicated(const SimConfig& config,
                                            const std::vector<int>& cw_profile,
                                            std::uint64_t slots,
                                            std::size_t replications,
                                            std::size_t jobs = 1);

/// Sequential-stopping variant: replicates in deterministic batches until
/// `rule`'s CI half-width target is met or rule.max_reps (must be > 0) is
/// exhausted. The first k replications are bit-identical to the fixed-N
/// overload's; the stop point is jobs-invariant.
parallel::ReplicationSummary run_replicated(const SimConfig& config,
                                            const std::vector<int>& cw_profile,
                                            std::uint64_t slots,
                                            const parallel::StoppingRule& rule,
                                            std::size_t jobs = 1);

}  // namespace smac::sim
