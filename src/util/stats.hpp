// Online statistics used throughout simulations and benchmarks.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace smac::util {

/// Welford-style single-pass accumulator for mean / variance / extrema.
/// Numerically stable; O(1) per sample, O(1) memory.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Half-width of the normal-approximation confidence interval around the
  /// mean, e.g. z = 1.96 for 95%. Returns 0 for fewer than 2 samples.
  double ci_halfwidth(double z = 1.96) const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile (inverse CDF) of the standard normal distribution, via
/// Acklam's rational approximation (|error| < 1.15e-9). p must lie in
/// (0, 1); throws std::invalid_argument otherwise.
double normal_quantile(double p);

/// Jain's fairness index of a set of non-negative allocations:
/// (sum x)^2 / (n * sum x^2). 1 = perfectly fair, 1/n = maximally unfair.
/// Returns 1.0 for empty or all-zero input (vacuously fair).
double jain_fairness(const std::vector<double>& xs) noexcept;

/// Across-replication aggregate of one named metric (parallel Monte-Carlo
/// batches: one sample per replication).
struct MetricSummary {
  std::string name;
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Snapshot of per-metric accumulators into MetricSummary records. A
/// caller that feeds replication rows into per-metric RunningStats in
/// index order (RunningStats::add per element) gets summaries that are a
/// pure function of the rows, so the parallel replication engine's
/// aggregates are bit-identical at any job count (see
/// src/parallel/replication.hpp). Throws std::invalid_argument when
/// acc.size() != names.size().
std::vector<MetricSummary> summaries_from_stats(
    const std::vector<std::string>& names,
    const std::vector<RunningStats>& acc);

/// Renders summaries as a text table: metric, n, mean, stddev, 95% CI,
/// min, max.
std::string format_metric_summaries(const std::vector<MetricSummary>& metrics,
                                    int precision = 4);

/// Sample mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& xs) noexcept;

/// Unbiased sample variance of a vector (0 for fewer than 2 elements).
double variance_of(const std::vector<double>& xs) noexcept;

}  // namespace smac::util
