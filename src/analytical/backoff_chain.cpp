#include "analytical/backoff_chain.hpp"

#include <stdexcept>

namespace smac::analytical {

namespace {

/// Σ_{r=0}^{m-1} (2p)^r computed termwise: finite and continuous at the
/// closed form's removable singularity p = 1/2.
double geometric_sum_2p(double p, int m) noexcept {
  double sum = 0.0;
  double term = 1.0;
  for (int r = 0; r < m; ++r) {
    sum += term;
    term *= 2.0 * p;
  }
  return sum;
}

}  // namespace

double transmission_probability(int w, double p, int max_stage) {
  if (w < 1) throw std::invalid_argument("transmission_probability: w < 1");
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("transmission_probability: p outside [0,1]");
  }
  if (max_stage < 0) {
    throw std::invalid_argument("transmission_probability: max_stage < 0");
  }
  const double sum = geometric_sum_2p(p, max_stage);
  return 2.0 / (1.0 + w + p * static_cast<double>(w) * sum);
}

double transmission_probability_cont(double w, double p, int max_stage) {
  if (!(w >= 1.0)) {
    throw std::invalid_argument("transmission_probability_cont: w < 1");
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("transmission_probability_cont: p outside [0,1]");
  }
  if (max_stage < 0) {
    throw std::invalid_argument("transmission_probability_cont: max_stage < 0");
  }
  const double sum = geometric_sum_2p(p, max_stage);
  return 2.0 / (1.0 + w + p * w * sum);
}

}  // namespace smac::analytical
