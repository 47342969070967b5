// Shared helpers for the experiment harnesses.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>

#include "parallel/replication.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::bench {

/// Opens `path` for writing; nullptr (after saying why) on failure.
inline std::FILE* open_output(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
  }
  return out;
}

/// Closes a finished artifact; false (after saying why) if any write or
/// the close failed, so a truncated file never passes for a result.
inline bool close_output(std::FILE* out, const std::string& path) {
  const bool write_failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

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
/// with no value — last on the line, or followed by another `--flag` —
/// exits 2.
inline const char* flag_value(int argc, const char* const* argv, int& i,
                              std::string_view name) {
  const std::string_view arg = argv[i];
  if (arg.size() > name.size() && arg.starts_with(name) &&
      arg[name.size()] == '=') {
    return argv[i] + name.size() + 1;
  }
  if (arg != name) return nullptr;
  if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--")) {
    bad_flag_value(std::string(name), nullptr, "a value");
  }
  return argv[++i];
}

/// Checks a bench's whole command line before it does any work: every
/// argument must be one of `flags` with its value (`--flag V` or
/// `--flag=V`), one of `switches`, or — when `path` is given — a single
/// output path, stored into *path. An unknown flag, a stray positional
/// argument or a flag with no value exits 2 with a usage line, so a typo
/// cannot silently run a different experiment.
inline void check_args(int argc, const char* const* argv,
                       std::initializer_list<std::string_view> flags,
                       std::initializer_list<std::string_view> switches = {},
                       std::string* path = nullptr) {
  bool have_path = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool known = std::ranges::find(switches, arg) != switches.end();
    for (auto flag = flags.begin(); !known && flag != flags.end(); ++flag) {
      known = flag_value(argc, argv, i, *flag) != nullptr;
    }
    if (known) continue;
    if (path != nullptr && !have_path && !arg.empty() && arg[0] != '-') {
      *path = arg;
      have_path = true;
      continue;
    }
    std::string usage = argv[0];
    for (const std::string_view flag : flags) {
      usage.append(" [").append(flag).append(" V]");
    }
    for (const std::string_view s : switches) {
      usage.append(" [").append(s).append("]");
    }
    if (path != nullptr) usage += " [output]";
    std::fprintf(stderr, "unexpected argument '%s'\nusage: %s\n", argv[i],
                 usage.c_str());
    std::exit(2);
  }
}

/// The last value a checked command line gives `name`; nullptr if none.
inline const char* option_value(int argc, const char* const* argv,
                                std::string_view name) {
  const char* value = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = flag_value(argc, argv, i, name)) value = v;
  }
  return value;
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

/// Worker count for replication fan-out (`parallel::ThreadPool(jobs)`):
/// `--jobs N` / `--jobs=N` on the command line wins, then the SMAC_JOBS
/// environment variable, then hardware concurrency. A missing or
/// malformed value (`--jobs 0`, `--jobs abc`) exits 2, and so does a set
/// but malformed SMAC_JOBS (`0`, `abc`), even when `--jobs` overrides it.
/// Results are seed-determined and independent of this knob — it only
/// changes wall-clock time.
inline std::size_t jobs_option(int argc, const char* const* argv) {
  const char* env = std::getenv("SMAC_JOBS");
  const std::size_t env_jobs = env ? parse_count("SMAC_JOBS", env, 1) : 0;
  if (const char* v = option_value(argc, argv, "--jobs")) {
    return parse_count("--jobs", v, 1);
  }
  return env_jobs != 0 ? std::min(env_jobs, parallel::ThreadPool::kMaxThreads)
                       : parallel::ThreadPool::default_jobs();
}

/// The command line of a bench that runs serially: it takes `--jobs N`
/// like every bench (the golden gate passes it to all of them) and
/// checks it and SMAC_JOBS the same way, so bad input exits 2 here too.
inline void check_serial_args(int argc, const char* const* argv) {
  check_args(argc, argv, {"--jobs"});
  (void)jobs_option(argc, argv);
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
  if (const char* v = option_value(argc, argv, "--ci-target")) {
    rule.ci_half_width_target = parse_non_negative("--ci-target", v);
  }
  if (const char* v = option_value(argc, argv, "--ci-rel")) {
    rule.ci_rel_target = parse_non_negative("--ci-rel", v);
  }
  if (const char* v = option_value(argc, argv, "--max-reps")) {
    rule.max_reps = parse_count("--max-reps", v, 0);
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

/// JSON object naming the machine and build a timing file came from —
/// `nproc`, CPU model, compiler and build type — so timings from
/// different hosts are never compared blind. SMAC_BUILD_TYPE is set per
/// bench target in bench/CMakeLists.txt.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.starts_with("model name") && colon != std::string::npos) {
      cpu = line.substr(std::min(colon + 2, line.size()));
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  };
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + quote(cpu) +
         ", \"compiler\": " + quote(compiler) +
         ", \"build_type\": " + quote(SMAC_BUILD_TYPE) + "}";
}

}  // namespace smac::bench
