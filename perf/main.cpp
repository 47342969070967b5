// smac_perf — the repository benchmark (perf/README.md).
//
//   smac_perf --workload <all|NAME> [--seed N] [--seconds X]
//             [--metrics PATH] [--trace PATH] [--smoke]
//
// Runs each selected workload in its own child process, one after
// another, prints every end-to-end metric by name with its unit, and
// writes the metrics file (with a host fingerprint) and, with --trace, a
// Chrome trace-event file of the traced pass. Exits 0 when every output
// check passed, 1 when one failed, 2 on a usage error.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

extern char** environ;

namespace {

struct Cli {
  std::string workload;
  perf::RunOptions run;
  std::string metrics_path;
  std::string trace_path;
  // Internal: set when the parent starts this process for one workload.
  std::string child_result;
  std::string child_events;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "smac_perf: %s\n"
               "usage: smac_perf --workload <all|NAME> [--seed N] "
               "[--seconds X] [--metrics PATH] [--trace PATH] [--smoke]\n"
               "workloads:",
               message.c_str());
  for (const std::string& name : perf::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    usage_error("malformed value for " + flag + ": '" + text + "'");
  }
  return value;
}

Cli parse(int argc, char** argv) {
  Cli cli;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      cli.run.smoke = true;
      continue;
    }
    if (flag == "--traced") {  // internal
      cli.run.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cli.workload = value;
      seen_workload = true;
    } else if (flag == "--seed") {
      cli.run.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      cli.run.seconds = parse_number<double>(flag, value);
      if (!(cli.run.seconds > 0.0) || !std::isfinite(cli.run.seconds)) {
        usage_error("--seconds must be positive");
      }
    } else if (flag == "--metrics") {
      cli.metrics_path = value;
    } else if (flag == "--trace") {
      cli.trace_path = value;
    } else if (flag == "--child-result") {
      cli.child_result = value;
    } else if (flag == "--child-events") {
      cli.child_events = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!seen_workload) usage_error("--workload is required");
  if (cli.workload != "all" && !perf::make_workload(cli.workload, cli.run)) {
    usage_error("unknown workload '" + cli.workload + "'");
  }
  return cli;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string git_sha() {
  const std::string cmd =
      "git -C '" SMAC_PERF_SOURCE_DIR "' rev-parse HEAD 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
  pclose(pipe);
  std::string sha = got ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

std::string host_json() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(nproc()) +
         ", \"cpu_model\": " + perf::json_quote(cpu_model()) +
         ", \"compiler\": " + perf::json_quote(compiler) +
         ", \"build_type\": " + perf::json_quote(SMAC_PERF_BUILD_TYPE) +
         ", \"git_sha\": " + perf::json_quote(git_sha()) + "}";
}

/// Starts this binary for one workload and waits for it. Returns its
/// exit status, or -1 when it did not exit normally.
int spawn_child(const Cli& cli, const std::string& name,
                const std::string& result, const std::string& events) {
  char seed[32];
  char seconds[40];
  std::snprintf(seed, sizeof seed, "%llu",
                static_cast<unsigned long long>(cli.run.seed));
  std::snprintf(seconds, sizeof seconds, "%.17g", cli.run.seconds);
  std::vector<std::string> args{"smac_perf",      "--workload", name,
                                "--seed",         seed,         "--seconds",
                                seconds,          "--child-result", result,
                                "--child-events", events};
  if (cli.run.smoke) args.push_back("--smoke");
  if (cli.run.traced) args.push_back("--traced");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_parent(Cli cli) {
  if (nproc() < static_cast<int>(perf::kWorkers)) {
    std::fprintf(stderr,
                 "smac_perf: needs >= %u usable cores (the parallel "
                 "workloads use a fixed %u workers); this host has %d\n",
                 perf::kWorkers, perf::kWorkers, nproc());
    return 1;
  }
  cli.run.traced = !cli.trace_path.empty();
  const std::vector<std::string> names =
      cli.workload == "all" ? perf::workload_names()
                            : std::vector<std::string>{cli.workload};
  const std::string stem =
      cli.metrics_path.empty()
          ? "smac_perf." + std::to_string(getpid())
          : cli.metrics_path;

  std::string workloads;
  std::string events;
  bool all_ok = true;
  for (const std::string& name : names) {
    const std::string result = stem + "." + name + ".part";
    const std::string part_events = stem + "." + name + ".events.part";
    std::remove(result.c_str());  // a crashed child must not leave a stale one
    std::remove(part_events.c_str());
    const int status = spawn_child(cli, name, result, part_events);
    all_ok = all_ok && status == 0;
    std::string body = read_file(result);
    while (!body.empty() && body.back() == '\n') body.pop_back();
    if (body.empty()) {
      body = "{\"workload\": " + perf::json_quote(name) +
             ", \"correct\": false, \"error\": \"child exit status " +
             std::to_string(status) + "\"}";
      std::printf("[%s] FAILED: child exit status %d\n", name.c_str(),
                  status);
    }
    workloads += (workloads.empty() ? "" : ",\n    ") +
                 perf::json_quote(name) + ": " + body;
    const std::string fragment = read_file(part_events);
    if (!fragment.empty()) events += (events.empty() ? "" : ",\n") + fragment;
    std::remove(result.c_str());
    std::remove(part_events.c_str());
  }

  const std::string host = host_json();
  if (!cli.metrics_path.empty()) {
    char seconds[40];
    std::snprintf(seconds, sizeof seconds, "%.17g", cli.run.seconds);
    std::ofstream out(cli.metrics_path);
    out << "{\n  \"benchmark\": \"smac_perf\",\n  \"host\": " << host
        << ",\n  \"seed\": " << cli.run.seed
        << ",\n  \"seconds\": " << seconds
        << ",\n  \"smoke\": " << (cli.run.smoke ? "true" : "false")
        << ",\n  \"traced\": " << (cli.run.traced ? "true" : "false")
        << ",\n  \"workloads\": {\n    " << workloads << "\n  }\n}\n";
    if (!out) {
      std::fprintf(stderr, "smac_perf: cannot write %s\n",
                   cli.metrics_path.c_str());
      return 1;
    }
  }
  if (cli.run.traced) {
    std::ofstream out(cli.trace_path);
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << host
        << ",\n\"traceEvents\": [\n" << events << "\n]}\n";
    if (!out) {
      std::fprintf(stderr, "smac_perf: cannot write %s\n",
                   cli.trace_path.c_str());
      return 1;
    }
  }
  std::printf("host: %s\n", host.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  try {
    if (!cli.child_result.empty()) {
      return perf::run_child(cli.workload, cli.run, cli.child_result,
                             cli.child_events);
    }
    return run_parent(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smac_perf: %s\n", e.what());
    return 3;
  }
}
