#include "sim/adaptive_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "sim/cw_estimator.hpp"
#include "sim/misbehavior_detector.hpp"

namespace smac::sim {

namespace {

std::vector<std::unique_ptr<game::Strategy>> build_strategies(
    std::size_t n, const AdaptiveRuntime::StrategyFactory& make_strategy,
    const AdaptiveRuntime::EstimateFeed& estimates,
    const AdaptiveRuntime::FlagFeed& flags) {
  if (n == 0) throw std::invalid_argument("AdaptiveRuntime: no strategies");
  if (!make_strategy) {
    throw std::invalid_argument("AdaptiveRuntime: null factory");
  }
  std::vector<std::unique_ptr<game::Strategy>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = make_strategy(i, estimates, flags);
    if (!s) throw std::invalid_argument("AdaptiveRuntime: null strategy");
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

double checked_stage_duration(const SimConfig& config,
                              std::optional<double> stage_duration_us) {
  const double us =
      stage_duration_us.value_or(config.params.stage_duration_s * 1e6);
  if (!(us > 0.0) || !std::isfinite(us)) {
    throw std::invalid_argument(
        "AdaptiveRuntime: stage duration must be finite and > 0");
  }
  return us;
}

}  // namespace

AdaptiveRuntime::AdaptiveRuntime(
    SimConfig config, std::vector<std::unique_ptr<game::Strategy>> strategies,
    std::optional<double> stage_duration_us)
    : AdaptiveRuntime(
          config, strategies.size(),
          [&](std::size_t i, EstimateFeed, FlagFeed) {
            return std::move(strategies[i]);
          },
          stage_duration_us) {}

AdaptiveRuntime::AdaptiveRuntime(SimConfig config, std::size_t n,
                                 const StrategyFactory& make_strategy,
                                 std::optional<double> stage_duration_us)
    : strategies_(build_strategies(n, make_strategy, estimates_, flags_)),
      simulator_(config, initial_profile(strategies_)),
      stage_duration_us_(checked_stage_duration(config, stage_duration_us)),
      discount_(config.params.discount),
      max_stage_(config.params.max_backoff_stage) {}

void AdaptiveRuntime::refresh_feeds(const SimResult& stage,
                                    const std::vector<int>& cw) {
  const std::size_t n = cw.size();
  const auto estimates = estimate_windows(stage, max_stage_);
  estimates_->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*estimates_)[i] = estimates[i].w_hat;

  // The modal window of the profile just played (smallest on ties) is
  // the de-facto agreement the detector tests against.
  std::map<int, int> count;
  for (int w : cw) ++count[w];
  const auto by_count = [](const auto& a, const auto& b) {
    return a.second < b.second;
  };
  const int modal_w =
      std::max_element(count.begin(), count.end(), by_count)->first;
  const TryDetectResult detected =
      try_detect_misbehavior(stage, modal_w, max_stage_);
  if (!detected.ok()) {
    throw std::invalid_argument("AdaptiveRuntime: detector input invalid");
  }
  flags_->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*flags_)[i] = detected.verdicts[i].flagged;
  }
}

AdaptiveResult AdaptiveRuntime::play(int stages) {
  if (stages < 1) throw std::invalid_argument("AdaptiveRuntime: stages < 1");
  const std::size_t n = strategies_.size();

  AdaptiveResult result;
  result.history.reserve(static_cast<std::size_t>(stages));
  result.discounted_utility.assign(n, 0.0);
  result.total_utility.assign(n, 0.0);

  double discount_k = 1.0;
  for (int k = 0; k < stages; ++k) {
    game::StageRecord record;
    record.cw.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      record.cw[i] = k == 0 ? strategies_[i]->initial_cw()
                            : strategies_[i]->decide(result.history, i);
    }
    // Only touch nodes whose window actually changes: set_cw restarts the
    // backoff, and a stable profile should keep its chain state.
    for (std::size_t i = 0; i < n; ++i) {
      if (simulator_.cw(i) != record.cw[i]) simulator_.set_cw(i, record.cw[i]);
    }

    const SimResult stage = simulator_.run_for(stage_duration_us_);
    record.utility.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Measured stage payoff: rate × realized stage length.
      record.utility[i] = stage.payoff_rate[i] * stage.elapsed_us;
      result.discounted_utility[i] += discount_k * record.utility[i];
      result.total_utility[i] += record.utility[i];
    }
    discount_k *= discount_;
    refresh_feeds(stage, record.cw);
    result.estimates_per_stage.push_back(*estimates_);
    result.flags_per_stage.push_back(*flags_);
    result.history.push_back(std::move(record));
  }
  static_cast<game::Convergence&>(result) =
      game::convergence_of(result.history);
  return result;
}

}  // namespace smac::sim
