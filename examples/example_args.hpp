// Command-line checks shared by the examples. A malformed or out-of-range
// number, or an argument the example does not take, prints the usage line
// and exits 1 instead of running a different scenario from the one asked
// for (`quickstart 5x` must not run with n = 5).
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace smac::examples {

/// Prints "usage: <program> <args>" to stderr and exits 1.
[[noreturn]] inline void usage_exit(const char* program, const char* args) {
  std::fprintf(stderr, "usage: %s %s\n", program, args);
  std::exit(1);
}

/// Exits with the usage line when more than `count` arguments follow the
/// program name.
inline void check_arg_count(int argc, char** argv, int count,
                            const char* usage) {
  if (argc - 1 > count) usage_exit(argv[0], usage);
}

/// Parses `text` as a whole decimal integer in [min, INT_MAX] into `out`;
/// false (and `out` untouched) otherwise.
inline bool parse_int(const char* text, int min, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min ||
      v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// Parses `text` as a whole finite decimal number into `out`; false (and
/// `out` untouched) for junk, NaN, an infinity or an out-of-range value.
inline bool parse_finite(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

/// argv[index] as a whole decimal integer in [min, INT_MAX], or `fallback`
/// when the command line stops before it; anything else exits with the
/// usage line.
inline int int_arg(int argc, char** argv, int index, int fallback, int min,
                   const char* usage) {
  if (index >= argc) return fallback;
  int v = 0;
  if (!parse_int(argv[index], min, v)) usage_exit(argv[0], usage);
  return v;
}

}  // namespace smac::examples
