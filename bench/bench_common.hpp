// Shared helpers for the experiment harnesses.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::bench {

inline void print_header(const std::string& experiment,
                         const std::string& paper_ref,
                         const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n\n");
}

/// Exits 2 naming the flag whose value is missing or malformed — a typo
/// must not silently run a different experiment.
[[noreturn]] inline void bad_flag_value(const std::string& flag,
                                        const char* value,
                                        const char* expected) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s: missing value (expected %s)\n", flag.c_str(),
                 expected);
  } else {
    std::fprintf(stderr, "%s: bad value '%s' (expected %s)\n", flag.c_str(),
                 value, expected);
  }
  std::exit(2);
}

/// When argv[i] is `name V` or `name=V`, returns V (advancing i past a
/// separate value); nullptr when argv[i] is another argument. A `name`
/// with no value exits 2.
inline const char* flag_value(int argc, const char* const* argv, int& i,
                              const std::string& name) {
  const std::string arg = argv[i];
  if (arg.size() > name.size() && arg.compare(0, name.size(), name) == 0 &&
      arg[name.size()] == '=') {
    return argv[i] + name.size() + 1;
  }
  if (arg != name) return nullptr;
  if (i + 1 >= argc) bad_flag_value(name, nullptr, "a value");
  return argv[++i];
}

/// `text` as a whole decimal integer >= `min`; exits 2 otherwise.
inline std::size_t parse_count(const std::string& flag, const char* text,
                               long long min) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min) {
    bad_flag_value(flag, text,
                   min > 0 ? "a positive integer" : "a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

/// `text` as a whole finite number >= 0; exits 2 otherwise.
inline double parse_non_negative(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < 0.0) {
    bad_flag_value(flag, text, "a finite number >= 0");
  }
  return v;
}

/// Worker count for replication fan-out: `--jobs N` / `--jobs=N` on the
/// command line wins, then the SMAC_JOBS environment variable, then
/// hardware concurrency (both via ThreadPool::default_jobs()). A missing
/// or malformed value (`--jobs 0`, `--jobs abc`) exits 2. Results are
/// seed-determined and independent of this knob — it only changes
/// wall-clock time.
inline std::size_t jobs_option(int argc, const char* const* argv) {
  std::size_t jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argc, argv, i, "--jobs")) {
      jobs = parse_count("--jobs", v, 1);
    }
  }
  return jobs != 0 ? jobs : parallel::ThreadPool::default_jobs();
}

/// Fans fn(i) for i in [0, count) across `jobs` workers (inline when
/// jobs <= 1 or there is at most one index). Each index must be a
/// self-contained experiment with its own fixed seed writing into a
/// per-index slot; callers reduce the slots in index order afterwards, so
/// printed tables are byte-identical for any jobs value.
template <class Fn>
inline void sweep(std::size_t count, std::size_t jobs, Fn&& fn) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  parallel::ThreadPool pool(jobs);
  pool.for_each_index(count, std::forward<Fn>(fn));
}

inline void print_jobs(std::size_t jobs) {
  std::printf("replication jobs = %zu (override: --jobs N or SMAC_JOBS; "
              "results are seed-determined, independent of jobs)\n\n",
              jobs);
}

/// Sequential-stopping knobs for replicated experiments:
///   --ci-target X   stop once the watched metric's CI half-width <= X
///                   (0, the default, keeps the bench's fixed N)
///   --ci-rel X      stop once half-width <= X · |running mean| — scale-
///                   free, composes across metrics whose magnitudes differ
///                   by orders; with both knobs, either target stops
///   --max-reps N    replication budget cap (0 = keep the bench default)
/// Parsed into a parallel::StoppingRule template whose metric/confidence/
/// min_reps/batch_size the bench chooses per table; a missing or
/// malformed value (`--ci-target x`, a negative number) exits 2. Stop
/// points are seed-determined and jobs-invariant
/// (src/parallel/replication.hpp).
inline parallel::StoppingRule stopping_option(int argc,
                                              const char* const* argv) {
  parallel::StoppingRule rule;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argc, argv, i, "--ci-target")) {
      rule.ci_half_width_target = parse_non_negative("--ci-target", v);
    } else if (const char* v = flag_value(argc, argv, i, "--ci-rel")) {
      rule.ci_rel_target = parse_non_negative("--ci-rel", v);
    } else if (const char* v = flag_value(argc, argv, i, "--max-reps")) {
      rule.max_reps = parse_count("--max-reps", v, 0);
    }
  }
  return rule;
}

/// Applies a bench's per-table defaults to the user's CLI rule: the
/// watched metric and batch size always come from the bench; max_reps
/// stays at `default_reps` unless --max-reps overrode it.
inline parallel::StoppingRule resolve_stopping(parallel::StoppingRule rule,
                                               const std::string& metric,
                                               std::size_t default_reps,
                                               std::size_t batch_size = 0) {
  rule.metric = metric;
  if (rule.max_reps == 0) rule.max_reps = default_reps;
  if (batch_size != 0) rule.batch_size = batch_size;
  return rule;
}

/// One line describing how a replicated table was stopped — only worth
/// printing when a --ci-target is active (fixed-N runs stay byte-stable
/// without it).
inline void print_stopping(const parallel::StoppingReport& report) {
  std::printf("%s\n", report.summary().c_str());
}

}  // namespace smac::bench
