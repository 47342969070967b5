#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "parallel/replication.hpp"

namespace smac::sim {

struct Simulator::WindowAccumulator {
  double elapsed_us = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t success_slots = 0;
  std::uint64_t collision_slots = 0;
  std::uint64_t error_slots = 0;
  std::uint64_t capture_slots = 0;
  std::uint64_t bad_state_slots = 0;
};

Simulator::Simulator(SimConfig config, const std::vector<int>& cw_profile)
    : config_(std::move(config)),
      times_(config_.params.slot_times(config_.mode)),
      backlog_(cw_profile.size(), 0),
      backlog_time_integral_(cw_profile.size(), 0.0),
      arrival_rng_(config_.seed ^ 0xa221ba1ULL),
      channel_rng_(config_.seed ^ 0xc4a22e1ULL),
      node_up_(cw_profile.size(), 1),
      fault_channel_(config_.faults.channel,
                     util::Rng(config_.seed ^ 0xb4d57a7eULL)) {
  config_.params.validate();
  config_.faults.validate();
  for (const fault::SlotEvent& e : config_.faults.events) {
    if (e.node >= cw_profile.size()) {
      throw std::invalid_argument("Simulator: fault event node index");
    }
  }
  // Events apply in (slot, declaration) order.
  std::stable_sort(config_.faults.events.begin(), config_.faults.events.end(),
                   [](const fault::SlotEvent& a, const fault::SlotEvent& b) {
                     return a.slot < b.slot;
                   });
  if (!(config_.arrival_rate_pps >= 0.0) ||
      !std::isfinite(config_.arrival_rate_pps)) {
    throw std::invalid_argument("Simulator: arrival rate not finite and >= 0");
  }
  if (!(config_.capture_probability >= 0.0 &&
        config_.capture_probability <= 1.0)) {
    throw std::invalid_argument("Simulator: capture probability outside [0,1]");
  }
  if (cw_profile.empty()) {
    throw std::invalid_argument("Simulator: empty CW profile");
  }
  util::Rng master(config_.seed);
  nodes_.reserve(cw_profile.size());
  for (int w : cw_profile) {
    nodes_.emplace_back(w, config_.params.max_backoff_stage, master.split(),
                        config_.backoff_policy);
  }
  ready_scratch_.reserve(nodes_.size());
}

void Simulator::set_cw(std::size_t i, int w) { nodes_.at(i).set_cw(w); }

void Simulator::set_all_cw(int w) {
  for (auto& node : nodes_) node.set_cw(w);
}

void Simulator::set_node_online(std::size_t i, bool up) {
  node_up_.at(i) = up ? 1 : 0;
}

void Simulator::set_profile(const std::vector<int>& cw_profile) {
  if (cw_profile.size() != nodes_.size()) {
    throw std::invalid_argument("Simulator::set_profile: size mismatch");
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].set_cw(cw_profile[i]);
  }
}

void Simulator::step(WindowAccumulator& acc, std::uint64_t max_slots,
                     double duration_us) {
  // Faults resolve at the slot boundary: scripted events first, then one
  // step of the bursty-loss chain (no draws when the plan is empty).
  const std::vector<fault::SlotEvent>& events = config_.faults.events;
  while (next_fault_event_ < events.size() &&
         events[next_fault_event_].slot <= total_slots_) {
    const fault::SlotEvent& e = events[next_fault_event_++];
    node_up_[e.node] = e.kind == fault::FaultKind::kJoin ? 1 : 0;
  }
  fault_channel_.step();
  if (fault_channel_.bad()) ++acc.bad_state_slots;

  ready_scratch_.clear();
  std::int64_t min_counter = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!node_active(i)) continue;
    const std::int64_t counter = nodes_[i].counter();
    if (counter == 0) ready_scratch_.push_back(i);
    min_counter = std::min(min_counter, counter);
  }

  if (saturated() && min_counter > 0) {
    // Idle run: every online counter is >= min_counter, so the next
    // min_counter slots are idle unless a scripted event changes the
    // online set first. Jump them at once, stepping the chain and adding
    // σ slot by slot (the per-slot draw and summation order) and stopping
    // where the window ends.
    std::uint64_t run =
        std::min(static_cast<std::uint64_t>(min_counter), max_slots);
    if (next_fault_event_ < events.size()) {
      run = std::min(run, events[next_fault_event_].slot - total_slots_);
    }
    std::uint64_t idle = 0;
    for (;;) {
      acc.elapsed_us += times_.sigma_us;
      if (++idle == run || acc.elapsed_us >= duration_us) break;
      fault_channel_.step();
      if (fault_channel_.bad()) ++acc.bad_state_slots;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (node_active(i)) {
        nodes_[i].observe_slots(static_cast<std::int64_t>(idle));
      }
    }
    acc.idle_slots += idle;
    acc.slots += idle;
    total_slots_ += idle;
    return;
  }

  const double effective_per =
      fault_channel_.effective_per(config_.params.packet_error_rate);
  double slot_us = 0.0;
  if (ready_scratch_.empty()) {
    slot_us = times_.sigma_us;
    ++acc.idle_slots;
  } else if (ready_scratch_.size() == 1) {
    const std::size_t sender = ready_scratch_.front();
    const double per = effective_per;
    if (per > 0.0 && channel_rng_.bernoulli(per)) {
      // Corrupted by noise: the frame occupies its full airtime but no
      // ACK arrives — the sender backs off exactly as after a collision.
      slot_us = times_.ts_us;
      ++acc.error_slots;
      nodes_[sender].on_collision();
    } else {
      slot_us = times_.ts_us;
      ++acc.success_slots;
      nodes_[sender].on_success();
      if (!saturated() && backlog_[sender] > 0) --backlog_[sender];
    }
  } else if (config_.capture_probability > 0.0 &&
             channel_rng_.bernoulli(config_.capture_probability)) {
    // Capture: one contender's frame survives the collision (it is also
    // exposed to channel noise like any other reception).
    slot_us = times_.ts_us;  // the captured frame completes its exchange
    const std::size_t winner = ready_scratch_[static_cast<std::size_t>(
        channel_rng_.uniform_below(ready_scratch_.size()))];
    const double per = effective_per;
    const bool corrupted = per > 0.0 && channel_rng_.bernoulli(per);
    for (std::size_t i : ready_scratch_) {
      if (i == winner && !corrupted) {
        nodes_[i].on_success();
        if (!saturated() && backlog_[i] > 0) --backlog_[i];
      } else {
        nodes_[i].on_collision();
      }
    }
    if (corrupted) {
      ++acc.error_slots;
    } else {
      ++acc.capture_slots;
      ++acc.success_slots;
    }
  } else {
    slot_us = times_.tc_us;
    ++acc.collision_slots;
    for (std::size_t i : ready_scratch_) nodes_[i].on_collision();
  }
  acc.elapsed_us += slot_us;
  // Non-transmitting *active* nodes advance their backoff by one channel
  // slot; idle-queue nodes have no backoff running.
  for (std::size_t i = 0, r = 0; i < nodes_.size(); ++i) {
    if (r < ready_scratch_.size() && ready_scratch_[r] == i) {
      ++r;  // transmitted: already redrew its backoff
    } else if (node_active(i)) {
      nodes_[i].observe_slot();
    }
  }
  // Poisson arrivals over the elapsed slot; a packet reaching an empty
  // queue starts a fresh stage-0 backoff.
  if (!saturated()) {
    const double mean = config_.arrival_rate_pps * slot_us * 1e-6;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::uint64_t arrivals = arrival_rng_.poisson(mean);
      if (arrivals > 0 && backlog_[i] == 0) nodes_[i].begin_packet();
      backlog_[i] += arrivals;
      backlog_time_integral_[i] += static_cast<double>(backlog_[i]) * slot_us;
    }
  }
  ++acc.slots;
  ++total_slots_;
}

namespace {

SimResult finalize(const std::vector<DcfNode>& nodes,
                   const phy::Parameters& params, double elapsed_us,
                   std::uint64_t slots, std::uint64_t idle,
                   std::uint64_t success, std::uint64_t collision,
                   std::uint64_t error, std::uint64_t capture,
                   std::uint64_t bad_state) {
  SimResult result;
  result.elapsed_us = elapsed_us;
  result.slots = slots;
  result.idle_slots = idle;
  result.success_slots = success;
  result.collision_slots = collision;
  result.error_slots = error;
  result.capture_slots = capture;
  result.bad_state_slots = bad_state;
  result.node.reserve(nodes.size());
  for (const auto& node : nodes) result.node.push_back(node.counters());

  result.throughput =
      static_cast<double>(success) * params.payload_us() / elapsed_us;
  result.payoff_rate.resize(nodes.size());
  result.measured_tau.resize(nodes.size());
  result.measured_p.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeCounters& c = result.node[i];
    result.payoff_rate[i] =
        (static_cast<double>(c.successes) * params.gain -
         static_cast<double>(c.attempts) * params.cost) /
        elapsed_us;
    result.measured_tau[i] =
        slots ? static_cast<double>(c.attempts) / static_cast<double>(slots)
              : 0.0;
    result.measured_p[i] = c.attempts
                               ? static_cast<double>(c.collisions) /
                                     static_cast<double>(c.attempts)
                               : 0.0;
  }
  return result;
}

}  // namespace

SimResult Simulator::run_for(double duration_us) {
  if (!(duration_us > 0.0) || !std::isfinite(duration_us)) {
    throw std::invalid_argument(
        "Simulator::run_for: duration must be finite and > 0");
  }
  for (auto& node : nodes_) node.reset_counters();
  std::fill(backlog_time_integral_.begin(), backlog_time_integral_.end(), 0.0);
  WindowAccumulator acc;
  while (acc.elapsed_us < duration_us) {
    step(acc, std::numeric_limits<std::uint64_t>::max(), duration_us);
  }
  SimResult result = finalize(nodes_, config_.params, acc.elapsed_us,
                              acc.slots, acc.idle_slots, acc.success_slots,
                              acc.collision_slots, acc.error_slots,
                              acc.capture_slots, acc.bad_state_slots);
  result.mean_backlog.resize(nodes_.size(), 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    result.mean_backlog[i] = backlog_time_integral_[i] / acc.elapsed_us;
  }
  return result;
}

SimResult Simulator::run_slots(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Simulator::run_slots: n == 0");
  for (auto& node : nodes_) node.reset_counters();
  std::fill(backlog_time_integral_.begin(), backlog_time_integral_.end(), 0.0);
  WindowAccumulator acc;
  while (acc.slots < n) {
    step(acc, n - acc.slots, std::numeric_limits<double>::infinity());
  }
  SimResult result = finalize(nodes_, config_.params, acc.elapsed_us,
                              acc.slots, acc.idle_slots, acc.success_slots,
                              acc.collision_slots, acc.error_slots,
                              acc.capture_slots, acc.bad_state_slots);
  result.mean_backlog.resize(nodes_.size(), 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    result.mean_backlog[i] = backlog_time_integral_[i] / acc.elapsed_us;
  }
  return result;
}

const std::vector<std::string>& replicated_metric_names() {
  static const std::vector<std::string> names{
      "throughput", "collision fraction", "idle fraction",
      "mean payoff rate", "payoff fairness",  "mean tau",
      "mean p"};
  return names;
}

namespace {

std::vector<double> replicated_metric_row(const SimResult& r) {
  const auto total = static_cast<double>(r.slots);
  return {r.throughput,
          static_cast<double>(r.collision_slots) / total,
          static_cast<double>(r.idle_slots) / total,
          util::mean_of(r.payoff_rate),
          util::jain_fairness(r.payoff_rate),
          util::mean_of(r.measured_tau),
          util::mean_of(r.measured_p)};
}

}  // namespace

parallel::ReplicationSummary run_replicated(const SimConfig& config,
                                            const std::vector<int>& cw_profile,
                                            std::uint64_t slots,
                                            std::size_t replications,
                                            std::size_t jobs) {
  parallel::StoppingRule fixed;  // target 0: stream all N, never stop early
  fixed.max_reps = replications;
  return run_replicated(config, cw_profile, slots, fixed, jobs);
}

parallel::ReplicationSummary run_replicated(const SimConfig& config,
                                            const std::vector<int>& cw_profile,
                                            std::uint64_t slots,
                                            const parallel::StoppingRule& rule,
                                            std::size_t jobs) {
  return parallel::run_sequential(
      replicated_metric_names(), rule, config.seed, jobs,
      [&](std::uint64_t seed, std::size_t /*index*/) {
        SimConfig replica = config;
        replica.seed = seed;
        Simulator simulator(replica, cw_profile);
        return replicated_metric_row(simulator.run_slots(slots));
      });
}

}  // namespace smac::sim
