#include "sim/cw_estimator.hpp"

#include "sim/misbehavior_detector.hpp"

#include <algorithm>
#include <map>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace smac::sim {

namespace {

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

double invert_window(double tau_hat, double p_hat, int max_stage,
                     double w_max_hint) {
  if (tau_hat <= 0.0) return w_max_hint;  // no attempts observed
  tau_hat = std::min(tau_hat, 1.0);
  p_hat = std::clamp(p_hat, 0.0, 1.0);
  const double denom = 1.0 + p_hat * geometric_sum_2p(p_hat, max_stage);
  const double w = (2.0 / tau_hat - 1.0) / denom;
  return std::max(1.0, std::min(w, w_max_hint));
}

std::vector<CwEstimate> estimate_windows(const SimResult& observed,
                                         int max_stage) {
  if (observed.slots == 0 || observed.node.empty()) {
    throw std::invalid_argument("estimate_windows: empty observation");
  }
  const std::size_t n = observed.node.size();
  std::vector<CwEstimate> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].attempts = observed.node[i].attempts;
    out[i].tau_hat = static_cast<double>(observed.node[i].attempts) /
                     static_cast<double>(observed.slots);
  }
  // p̂_i from the *other* stations' estimated τ via prefix/suffix products.
  std::vector<double> prefix(n + 1, 1.0);
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] * (1.0 - std::min(out[i].tau_hat, 1.0));
  }
  for (std::size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] * (1.0 - std::min(out[i].tau_hat, 1.0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i].p_hat = std::clamp(1.0 - prefix[i] * suffix[i + 1], 0.0, 1.0);
    out[i].w_hat = invert_window(out[i].tau_hat, out[i].p_hat, max_stage,
                                 /*w_max_hint=*/1e9);
  }
  return out;
}

// ---- EstimatingTitForTat ----

EstimatingTitForTat::EstimatingTitForTat(int initial_w, Feed estimates_feed)
    : initial_w_(initial_w), feed_(std::move(estimates_feed)) {
  if (initial_w < 1) {
    throw std::invalid_argument("EstimatingTitForTat: initial_w < 1");
  }
  if (!feed_) throw std::invalid_argument("EstimatingTitForTat: null feed");
}

int EstimatingTitForTat::decide(const game::History& history,
                                std::size_t self) {
  if (history.empty() || feed_->empty()) return initial_w_;
  // Match the most aggressive *estimated* window, own true window included
  // (a node knows its own configuration exactly).
  double min_est = static_cast<double>(history.back().cw.at(self));
  for (std::size_t j = 0; j < feed_->size(); ++j) {
    if (j == self) continue;
    min_est = std::min(min_est, (*feed_)[j]);
  }
  return std::max(1, static_cast<int>(min_est + 0.5));
}

// ---- EstimatingGtft ----

EstimatingGtft::EstimatingGtft(int initial_w, double beta, int window_stages,
                               Feed feed)
    : initial_w_(initial_w), beta_(beta), r0_(window_stages),
      feed_(std::move(feed)) {
  if (initial_w < 1) throw std::invalid_argument("EstimatingGtft: initial_w < 1");
  if (!(beta > 0.0) || !(beta < 1.0)) {
    throw std::invalid_argument("EstimatingGtft: beta outside (0,1)");
  }
  if (window_stages < 1) {
    throw std::invalid_argument("EstimatingGtft: window_stages < 1");
  }
  if (!feed_) throw std::invalid_argument("EstimatingGtft: null feed");
}

int EstimatingGtft::decide(const game::History& history, std::size_t self) {
  if (history.empty() || feed_->empty()) return initial_w_;
  recent_.push_back(*feed_);
  if (static_cast<int>(recent_.size()) > r0_) {
    recent_.erase(recent_.begin());
  }

  const int current = history.back().cw.at(self);
  const std::size_t n = feed_->size();
  bool someone_aggressive = false;
  double min_avg = static_cast<double>(current);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self) continue;
    double avg = 0.0;
    for (const auto& snapshot : recent_) avg += snapshot[j];
    avg /= static_cast<double>(recent_.size());
    min_avg = std::min(min_avg, avg);
    if (avg < beta_ * current) someone_aggressive = true;
  }
  if (!someone_aggressive) return current;
  return std::max(1, static_cast<int>(min_avg + 0.5));
}

std::string EstimatingGtft::name() const {
  std::ostringstream os;
  os << "gtft-estimating(beta=" << beta_ << ",r0=" << r0_ << ")";
  return os.str();
}

// ---- DetectorGtft ----

DetectorGtft::DetectorGtft(int initial_w, EstimateFeed estimates,
                           FlagFeed flags)
    : initial_w_(initial_w), estimates_(std::move(estimates)),
      flags_(std::move(flags)) {
  if (initial_w < 1) throw std::invalid_argument("DetectorGtft: initial_w < 1");
  if (!estimates_ || !flags_) {
    throw std::invalid_argument("DetectorGtft: null feed");
  }
}

int DetectorGtft::decide(const game::History& history, std::size_t self) {
  if (history.empty() || flags_->empty()) return initial_w_;
  const int current = history.back().cw.at(self);
  bool any_flagged = false;
  double min_flagged_estimate = static_cast<double>(current);
  for (std::size_t j = 0; j < flags_->size(); ++j) {
    if (j == self || !(*flags_)[j]) continue;
    any_flagged = true;
    min_flagged_estimate =
        std::min(min_flagged_estimate, (*estimates_)[j]);
  }
  if (!any_flagged) return current;
  // TFT-style retaliation, but only against proven aggression: match the
  // most aggressive *flagged* node's estimated window.
  return std::max(1, static_cast<int>(min_flagged_estimate + 0.5));
}

// ---- EstimatingRuntime ----

namespace {

std::vector<std::unique_ptr<game::Strategy>> build_strategies(
    std::size_t n, const EstimatingRuntime::StrategyFactory& make_strategy,
    const std::shared_ptr<std::vector<double>>& feed,
    const std::shared_ptr<std::vector<bool>>& flags) {
  if (n == 0) throw std::invalid_argument("EstimatingRuntime: n == 0");
  if (!make_strategy) {
    throw std::invalid_argument("EstimatingRuntime: null factory");
  }
  std::vector<std::unique_ptr<game::Strategy>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = make_strategy(i, feed, flags);
    if (!s) throw std::invalid_argument("EstimatingRuntime: factory returned null");
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<int> initial_profile(
    const std::vector<std::unique_ptr<game::Strategy>>& strategies) {
  std::vector<int> cw;
  cw.reserve(strategies.size());
  for (const auto& s : strategies) cw.push_back(s->initial_cw());
  return cw;
}

}  // namespace

EstimatingRuntime::EstimatingRuntime(SimConfig config, std::size_t n,
                                     const StrategyFactory& make_strategy,
                                     double stage_duration_us)
    : feed_(std::make_shared<std::vector<double>>()),
      flags_(std::make_shared<std::vector<bool>>()),
      strategies_(build_strategies(n, make_strategy, feed_, flags_)),
      simulator_(config, initial_profile(strategies_)),
      stage_duration_us_(stage_duration_us),
      max_stage_(config.params.max_backoff_stage) {
  if (!(stage_duration_us_ > 0.0)) {
    throw std::invalid_argument("EstimatingRuntime: stage duration <= 0");
  }
}

EstimationRuntimeResult EstimatingRuntime::play(int stages) {
  if (stages < 1) throw std::invalid_argument("EstimatingRuntime: stages < 1");
  const std::size_t n = strategies_.size();

  EstimationRuntimeResult result;
  for (int k = 0; k < stages; ++k) {
    game::StageRecord record;
    record.cw.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      record.cw[i] = k == 0 ? strategies_[i]->initial_cw()
                            : strategies_[i]->decide(result.history, i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (simulator_.cw(i) != record.cw[i]) simulator_.set_cw(i, record.cw[i]);
    }
    const SimResult stage = simulator_.run_for(stage_duration_us_);
    record.utility.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      record.utility[i] = stage.payoff_rate[i] * stage.elapsed_us;
    }
    // Refresh the shared estimate feed from this stage's observables.
    const auto estimates = estimate_windows(stage, max_stage_);
    feed_->resize(n);
    for (std::size_t i = 0; i < n; ++i) (*feed_)[i] = estimates[i].w_hat;
    result.estimates_per_stage.push_back(*feed_);

    // Refresh misbehavior flags against the modal window of the profile
    // just played (the de-facto agreement).
    std::map<int, int> histogram;
    for (int w : record.cw) ++histogram[w];
    int modal_w = record.cw.front();
    int modal_count = 0;
    for (const auto& [w, count] : histogram) {
      if (count > modal_count) {
        modal_count = count;
        modal_w = w;
      }
    }
    const TryDetectResult detected =
        try_detect_misbehavior(stage, modal_w, max_stage_);
    if (!detected.ok()) {
      throw std::invalid_argument("EstimatingRuntime: detector input invalid");
    }
    flags_->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      (*flags_)[i] = detected.verdicts[i].flagged;
    }
    result.flags_per_stage.push_back(*flags_);
    result.history.push_back(std::move(record));
  }

  const auto& last = result.history.back().cw;
  if (std::all_of(last.begin(), last.end(),
                  [&](int w) { return w == last.front(); })) {
    result.converged_cw = last.front();
  }
  return result;
}

}  // namespace smac::sim
