#include "sim/dcf_node.hpp"

#include <algorithm>
#include <stdexcept>

namespace smac::sim {

DcfNode::DcfNode(int cw, int max_stage, util::Rng rng, BackoffPolicy policy)
    : cw_(cw), max_stage_(max_stage), policy_(policy), mild_window_(cw),
      rng_(rng) {
  if (cw < 1) throw std::invalid_argument("DcfNode: cw < 1");
  if (max_stage < 0) throw std::invalid_argument("DcfNode: max_stage < 0");
  draw_backoff();
}

std::int64_t DcfNode::current_window() const noexcept {
  switch (policy_) {
    case BackoffPolicy::kBinaryExponential:
      return window_of_stage(stage_);
    case BackoffPolicy::kMild:
      return mild_window_;
    case BackoffPolicy::kConstant:
      return cw_;
  }
  return cw_;
}

void DcfNode::set_cw(int cw) {
  if (cw < 1) throw std::invalid_argument("DcfNode::set_cw: cw < 1");
  cw_ = cw;
  stage_ = 0;
  mild_window_ = cw;
  draw_backoff();
}

void DcfNode::on_success() {
  ++counters_.attempts;
  ++counters_.successes;
  switch (policy_) {
    case BackoffPolicy::kBinaryExponential:
      stage_ = 0;
      break;
    case BackoffPolicy::kMild:
      mild_window_ = std::max<std::int64_t>(mild_window_ - 1, cw_);
      break;
    case BackoffPolicy::kConstant:
      break;
  }
  draw_backoff();
}

void DcfNode::on_collision() {
  ++counters_.attempts;
  ++counters_.collisions;
  switch (policy_) {
    case BackoffPolicy::kBinaryExponential:
      if (stage_ < max_stage_) ++stage_;
      break;
    case BackoffPolicy::kMild:
      mild_window_ = std::min<std::int64_t>(
          mild_window_ * 3 / 2 + 1, window_of_stage(max_stage_));
      break;
    case BackoffPolicy::kConstant:
      break;
  }
  draw_backoff();
}

void DcfNode::begin_packet() {
  stage_ = 0;  // MILD keeps its learned window across packets (MACAW copies
               // backoff state between exchanges; decay happens on success)
  draw_backoff();
}

std::int64_t DcfNode::window_of_stage(int stage) const noexcept {
  return static_cast<std::int64_t>(cw_) << stage;
}

void DcfNode::draw_backoff() {
  const auto window = static_cast<std::uint64_t>(current_window());
  counter_ = static_cast<std::int64_t>(rng_.uniform_below(window));
}

}  // namespace smac::sim
