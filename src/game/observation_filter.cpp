#include "game/observation_filter.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace smac::game {

const char* to_string(FilterKind kind) noexcept {
  switch (kind) {
    case FilterKind::kNone:
      return "none";
    case FilterKind::kMedian:
      return "median";
    case FilterKind::kTrimmedMean:
      return "trim";
  }
  return "?";
}

std::string ObservationFilterConfig::name() const {
  if (kind == FilterKind::kNone) return "none";
  std::ostringstream os;
  os << to_string(kind) << "(" << window;
  if (kind == FilterKind::kTrimmedMean) os << "," << trim_fraction;
  os << ")";
  return os.str();
}

void ObservationFilterConfig::validate() const {
  if (window < 1) {
    throw std::invalid_argument("ObservationFilterConfig: window < 1");
  }
  if (kind == FilterKind::kTrimmedMean &&
      !(trim_fraction >= 0.0 && trim_fraction < 0.5)) {
    throw std::invalid_argument(
        "ObservationFilterConfig: trim_fraction outside [0, 0.5)");
  }
}

ObservationFilter::ObservationFilter(ObservationFilterConfig config)
    : config_(config) {
  config_.validate();
}

int ObservationFilter::smooth(const std::vector<int>& series) const {
  if (series.empty()) {
    throw std::invalid_argument("ObservationFilter::smooth: empty series");
  }
  const std::size_t r =
      std::min(series.size(), static_cast<std::size_t>(config_.window));
  std::vector<int> values(series.end() - static_cast<std::ptrdiff_t>(r),
                          series.end());
  if (!config_.enabled() || values.size() == 1) {
    return std::max(1, values.back());
  }
  std::sort(values.begin(), values.end());
  double estimate = 0.0;
  if (config_.kind == FilterKind::kMedian) {
    const std::size_t mid = values.size() / 2;
    estimate = values.size() % 2 == 1
                   ? values[mid]
                   : (static_cast<double>(values[mid - 1]) + values[mid]) / 2.0;
  } else {
    // Trim the same count from each tail; at least one value survives.
    std::size_t drop = static_cast<std::size_t>(
        std::floor(config_.trim_fraction * static_cast<double>(values.size())));
    drop = std::min(drop, (values.size() - 1) / 2);
    double sum = 0.0;
    for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
    estimate = sum / static_cast<double>(values.size() - 2 * drop);
  }
  return std::max(1, static_cast<int>(std::llround(estimate)));
}

StageRecord ObservationFilter::filter_latest(const History& raw,
                                             std::size_t self) const {
  if (raw.empty()) {
    throw std::invalid_argument("ObservationFilter: empty history");
  }
  StageRecord view = raw.back();
  if (!config_.enabled()) return view;
  const std::size_t n = view.cw.size();
  const std::size_t first =
      raw.size() > static_cast<std::size_t>(config_.window)
          ? raw.size() - static_cast<std::size_t>(config_.window)
          : 0;
  std::vector<int> series;
  series.reserve(raw.size() - first);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self) continue;  // own window is known exactly
    series.clear();
    for (std::size_t s = first; s < raw.size(); ++s) {
      series.push_back(raw[s].cw.at(j));
    }
    view.cw[j] = smooth(series);
  }
  return view;
}

}  // namespace smac::game
