#include "support/backoff_chain_oracle.hpp"

#include <cmath>
#include <stdexcept>

namespace smac::analytical {

BackoffChain::BackoffChain(int w, double p, int max_stage)
    : w_(w), p_(p), m_(max_stage) {
  if (w < 1) throw std::invalid_argument("BackoffChain: w < 1");
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("BackoffChain: p outside [0,1)");
  }
  if (max_stage < 0) throw std::invalid_argument("BackoffChain: max_stage < 0");

  // Normalization: Σ_j q(j,0)·(W_j + 1)/2 = 1 with
  //   q(j,0) = p^j·q(0,0)            for j < m
  //   q(m,0) = p^m/(1−p)·q(0,0).
  double mass = 0.0;
  double pj = 1.0;
  for (int j = 0; j < m_; ++j) {
    mass += pj * (static_cast<double>(window_of_stage(j)) + 1.0) / 2.0;
    pj *= p_;
  }
  mass += pj / (1.0 - p_) *
          (static_cast<double>(window_of_stage(m_)) + 1.0) / 2.0;
  q00_ = 1.0 / mass;
  // τ = Σ_j q(j,0) = q(0,0)/(1−p).
  tau_ = q00_ / (1.0 - p_);
}

std::int64_t BackoffChain::window_of_stage(int j) const {
  if (j < 0) throw std::invalid_argument("window_of_stage: j < 0");
  const int stage = j > m_ ? m_ : j;
  return static_cast<std::int64_t>(w_) << stage;
}

double BackoffChain::stage_head(int j) const {
  if (j < 0 || j > m_) throw std::invalid_argument("stage_head: j outside [0,m]");
  if (j < m_) return std::pow(p_, j) * q00_;
  return std::pow(p_, m_) / (1.0 - p_) * q00_;
}

double BackoffChain::stationary(int j, int k) const {
  const auto wj = window_of_stage(j);
  if (k < 0 || k >= wj) {
    throw std::invalid_argument("stationary: k outside [0, W_j)");
  }
  // Within a stage the counter is uniform over its residual life:
  // q(j,k) = (W_j − k)/W_j · q(j,0).
  return (static_cast<double>(wj - k) / static_cast<double>(wj)) *
         stage_head(j);
}

double BackoffChain::total_mass() const {
  double mass = 0.0;
  for (int j = 0; j <= m_; ++j) {
    const auto wj = window_of_stage(j);
    for (std::int64_t k = 0; k < wj; ++k) {
      mass += stationary(j, static_cast<int>(k));
    }
  }
  return mass;
}

double BackoffChain::mean_counter() const {
  double acc = 0.0;
  for (int j = 0; j <= m_; ++j) {
    const auto wj = window_of_stage(j);
    for (std::int64_t k = 0; k < wj; ++k) {
      acc += static_cast<double>(k) * stationary(j, static_cast<int>(k));
    }
  }
  return acc;
}

}  // namespace smac::analytical
