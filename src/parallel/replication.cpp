#include "parallel/replication.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace smac::parallel {

std::uint64_t stream_seed(std::uint64_t base_seed,
                          std::uint64_t index) noexcept {
  // One SplitMix64 step over a golden-ratio-spread combination of base
  // and index. The constant on `index` keeps adjacent replications far
  // apart in the pre-mix domain; the finalizer's avalanche does the rest.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

util::Rng stream_rng(std::uint64_t base_seed, std::uint64_t index) noexcept {
  return util::Rng(stream_seed(base_seed, index));
}

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kCiTarget:
      return "ci-target";
    case StopReason::kMaxReps:
      return "max-reps";
  }
  return "unknown";
}

std::string StoppingReport::summary() const {
  // Every replication adds one sample of the watched metric, so the
  // "(N samples)" count is the replication count.
  char buffer[320];
  const bool has_abs = target_half_width > 0.0;
  const bool has_rel = target_rel_half_width > 0.0;
  if (has_abs || has_rel) {
    char target[128];
    if (has_abs && has_rel) {
      std::snprintf(target, sizeof(target), "target %.6g or %.3g%% of |mean|",
                    target_half_width, target_rel_half_width * 100.0);
    } else if (has_abs) {
      std::snprintf(target, sizeof(target), "target %.6g", target_half_width);
    } else {
      std::snprintf(target, sizeof(target),
                    "target %.3g%% of |mean| = %.6g",
                    target_rel_half_width * 100.0,
                    target_rel_half_width * std::abs(watched_mean));
    }
    std::snprintf(buffer, sizeof(buffer),
                  "sequential stopping: %zu replications (%zu samples), "
                  "metric \"%s\" %.0f%% CI +/- %.6g (%s, stop: %s)",
                  replications, replications, metric.c_str(),
                  confidence * 100.0, achieved_half_width, target,
                  to_string(reason));
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "fixed-N streaming: %zu replications (%zu samples), "
                  "metric \"%s\" %.0f%% CI +/- %.6g",
                  replications, replications, metric.c_str(),
                  confidence * 100.0, achieved_half_width);
  }
  return buffer;
}

namespace detail {

ResolvedStoppingRule resolve_stopping_rule(
    const StoppingRule& rule, const std::vector<std::string>& metric_names) {
  if (metric_names.empty()) {
    throw std::invalid_argument("StoppingRule: no metrics to watch");
  }
  ResolvedStoppingRule r;
  if (rule.metric.empty()) {
    r.watched = 0;
  } else {
    std::size_t found = metric_names.size();
    for (std::size_t m = 0; m < metric_names.size(); ++m) {
      if (metric_names[m] == rule.metric) {
        found = m;
        break;
      }
    }
    if (found == metric_names.size()) {
      throw std::invalid_argument("StoppingRule: unknown metric \"" +
                                  rule.metric + "\"");
    }
    r.watched = found;
  }
  if (!(rule.confidence > 0.0) || !(rule.confidence < 1.0)) {
    throw std::invalid_argument("StoppingRule: confidence outside (0,1)");
  }
  if (!std::isfinite(rule.ci_half_width_target)) {
    throw std::invalid_argument("StoppingRule: non-finite CI target");
  }
  if (!std::isfinite(rule.ci_rel_target) || rule.ci_rel_target < 0.0) {
    throw std::invalid_argument("StoppingRule: bad relative CI target");
  }
  if (rule.max_reps == 0) {
    throw std::invalid_argument("StoppingRule: zero max_reps");
  }
  r.max_reps = rule.max_reps;
  r.min_reps = rule.min_reps < 2 ? 2 : rule.min_reps;
  if (r.min_reps > r.max_reps) r.min_reps = r.max_reps;
  r.batch = rule.batch_size != 0 ? rule.batch_size : kDefaultStoppingBatch;
  if (r.batch > r.max_reps) r.batch = r.max_reps;
  r.target = rule.ci_half_width_target;
  r.rel = rule.ci_rel_target;
  r.confidence = rule.confidence;
  r.z = util::normal_quantile(0.5 + 0.5 * rule.confidence);
  return r;
}

}  // namespace detail

}  // namespace smac::parallel
