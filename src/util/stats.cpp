#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/table.hpp"

namespace smac::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci_halfwidth(double z) const noexcept {
  if (n_ < 2) return 0.0;
  return z * stddev() / std::sqrt(static_cast<double>(n_));
}

double normal_quantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p outside (0,1)");
  }
  // Acklam's approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double jain_fairness(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 1.0;
  double s = 0.0;
  double s2 = 0.0;
  for (double x : xs) {
    s += x;
    s2 += x * x;
  }
  if (s2 == 0.0) return 1.0;
  return s * s / (static_cast<double>(xs.size()) * s2);
}

std::vector<MetricSummary> summaries_from_stats(
    const std::vector<std::string>& names,
    const std::vector<RunningStats>& acc) {
  if (acc.size() != names.size()) {
    throw std::invalid_argument(
        "summaries_from_stats: accumulator count != metric count");
  }
  std::vector<MetricSummary> out(names.size());
  for (std::size_t m = 0; m < names.size(); ++m) {
    out[m].name = names[m];
    out[m].count = acc[m].count();
    out[m].mean = acc[m].mean();
    out[m].stddev = acc[m].stddev();
    out[m].ci95 = acc[m].ci_halfwidth(1.96);
    out[m].min = acc[m].empty() ? 0.0 : acc[m].min();
    out[m].max = acc[m].empty() ? 0.0 : acc[m].max();
  }
  return out;
}

std::string format_metric_summaries(const std::vector<MetricSummary>& metrics,
                                    int precision) {
  TextTable table(
      {"metric", "n", "mean", "stddev", "95% CI +/-", "min", "max"});
  for (const auto& m : metrics) {
    table.add_row({m.name, std::to_string(m.count),
                   fmt_double(m.mean, precision),
                   fmt_double(m.stddev, precision),
                   fmt_double(m.ci95, precision), fmt_double(m.min, precision),
                   fmt_double(m.max, precision)});
  }
  return table.to_string();
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance_of(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

}  // namespace smac::util
