#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "trace.hpp"

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}


std::string metric(double value, const std::string& unit) {
  return "{\"value\": " + num(value) + ", \"unit\": " + json_quote(unit) + "}";
}

/// Starts a new peak-resident-set window: on Linux, writing 5 to
/// clear_refs resets VmHWM to the current resident set. Where the kernel
/// refuses, VmHWM stays the process peak so far.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM in MiB: the peak resident set since the last reset.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "city_1e5", "quasiopt_sweep", "replicated_dcf", "enforced_tournament"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& options) {
  if (name == "city_1e5") return make_city(options);
  if (name == "quasiopt_sweep") return make_quasiopt(options);
  if (name == "replicated_dcf") return make_dcf(options);
  if (name == "enforced_tournament") return make_tourney(options);
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"multihop.index_build_ms", "ms"},
      {"multihop.index_update_ms", "ms"},
      {"multihop.index_churn_ms", "ms"},
      {"multihop.index_rescanned", "count"},
      {"multihop.topology_ms", "ms"},
      {"multihop.mobility_ms", "ms"},
      {"multihop.local_seed_ms", "ms"},
      {"multihop.tft_ms", "ms"},
      {"multihop.tft_rounds", "count"},
      {"multihop.classify_ms", "ms"},
      {"game.class_batch_ms", "ms"},
      {"game.class_batch_cpu_ms", "ms"},
      {"analytical.requests", "count"},
      {"analytical.solves", "count"},
      {"analytical.hit_rate", "ratio"},
      {"analytical.cache_size", "count"},
      {"analytical.distinct_classes", "count"},
      {"analytical.kernel_replay_ms", "ms"},
      {"analytical.kernel_share", "ratio"},
      {"multihop.sim_ms", "ms"},
      {"multihop.ns_per_node_slot", "ns"},
      {"multihop.update_topology_ms", "ms"},
      {"multihop.pdes_speedup", "ratio"},
      {"multihop.pdes_regions", "count"},
      {"sim.rep_ms_p50", "ms"},
      {"sim.rep_ms_p98", "ms"},
      {"sim.rep_n", "count"},
      {"sim.ns_per_slot", "ns"},
      {"game.play_mix_ms_p50", "ms"},
      {"game.play_mix_ms_p90", "ms"},
      {"game.play_mix_n", "count"},
      {"game.us_per_stage", "us"},
      {"game.prefetch_ms", "ms"},
      {"game.horizon_growth", "ratio"},
      {"parallel.busy_frac", "ratio"},
      {"parallel.tail_ms", "ms"},
      {"parallel.barrier_idle_frac", "ratio"},
      {"parallel.speedup_j4", "ratio"},
      {"parallel.cpu_util", "ratio"},
      {"multihop.delivery_ratio", "ratio"},
      {"sim.success_slot_frac", "ratio"},
      {"game.enforcement_episodes", "count"},
      {"game.failed_stages", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return units;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double rel_diff(double a, double b) { return std::abs(a - b) / std::abs(b); }

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void add_cache_layers(const smac::analytical::SolveCacheStats& cache,
                      LayerValues& m) {
  const double requests = static_cast<double>(cache.hits + cache.misses);
  m["analytical.requests"] = requests;
  m["analytical.solves"] = static_cast<double>(cache.misses);
  m["analytical.hit_rate"] =
      requests > 0 ? static_cast<double>(cache.hits) / requests : 0.0;
  m["analytical.cache_size"] = static_cast<double>(cache.size);
}

int run_child(const std::string& name, const RunOptions& options,
              const std::string& result_path,
              const std::string& events_path) {
  const std::unique_ptr<Workload> workload = make_workload(name, options);
  if (!workload) throw std::invalid_argument("unknown workload " + name);

  // Set-up runs once before the first round and once more after every
  // round, outside the round's timer. Host speed can drift in phases of
  // seconds to minutes (perf/README.md), so samples spread over the whole
  // region give a median as steady as the rounds'.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(t0));
  };
  timed_setup();

  // Closed loop: the next round starts only after the previous one
  // finished, and no round starts that would likely overrun the region.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> why;
  std::vector<double> rates;
  std::vector<double> round_s;
  std::vector<double> round_rss_mb;
  bool first_round_ok = false;
  const double cpu0 = cpu_seconds();
  const auto region = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const double elapsed = seconds_since(region);
    const double typical = round_s.empty() ? 0.0 : quantile(round_s, 0.5);
    if (round > 0 && elapsed + typical > options.seconds) break;
    attempted += workload->units_per_round();
    reset_peak_rss();
    const auto t0 = Clock::now();
    try {
      const double work = workload->run_round(round);
      const double dt = seconds_since(t0);
      rates.push_back(work / dt);
      round_s.push_back(dt);
      round_rss_mb.push_back(peak_rss_mb());
      failed += workload->check_round(why);
      first_round_ok = first_round_ok || round == 0;
    } catch (const std::exception& e) {
      failed += workload->units_per_round();
      why.push_back(std::string("round threw: ") + e.what());
    }
    timed_setup();
  }
  const double region_s = seconds_since(region);
  const double cpu_util = (cpu_seconds() - cpu0) / region_s;
  std::sort(why.begin(), why.end());
  why.erase(std::unique(why.begin(), why.end()), why.end());

  const double units_per_s = quantile(rates, 0.5);
  const double setup_med = quantile(setup_s, 0.5);
  const double rss_mb = quantile(round_rss_mb, 0.5);
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::string layers_json;
  std::string layers_text;
  if (options.traced) {
    if (!first_round_ok) {
      why.push_back("traced pass skipped: the first round failed");
    } else {
      trace::set_enabled(true);
      TracedPass pass;
      {
        const trace::Scope root(name.c_str());
        pass = workload->trace();
      }
      trace::set_enabled(false);
      pass.layers["parallel.cpu_util"] = cpu_util;
      pass.layers["trace.overhead_frac"] =
          pass.round_s / quantile(round_s, 0.5) - 1.0;
      for (const std::string& m : pass.mismatches) {
        why.push_back("recomposition mismatch: " + m);
      }
      for (const auto& [key, value] : pass.layers) {
        const auto& units = layer_units();
        if (std::none_of(units.begin(), units.end(),
                         [&](const auto& u) { return u.first == key; })) {
          throw std::logic_error("undeclared per-layer metric " + key);
        }
      }
      for (const auto& [key, unit] : layer_units()) {
        const auto it = pass.layers.find(key);
        const double value = it == pass.layers.end() ? 0.0 : it->second;
        if (!layers_json.empty()) layers_json += ", ";
        layers_json += json_quote(key) + ": " + metric(value, unit);
        if (it == pass.layers.end()) continue;
        char line[160];
        std::snprintf(line, sizeof line, "  %-30s = %.6g %s\n", key.c_str(),
                      value, unit.c_str());
        layers_text += line;
      }
      std::string events;
      const auto& names = workload_names();
      const int pid = static_cast<int>(
          std::find(names.begin(), names.end(), name) - names.begin());
      trace::append_chrome_events(events, trace::collect(), pid, name);
      if (!write_file(events_path, events)) {
        throw std::runtime_error("cannot write " + events_path);
      }
    }
  }
  const bool correct = failed == 0 && why.empty();

  std::string json = "{\"workload\": " + json_quote(name) +
                     ", \"work_unit\": " + json_quote(workload->work_unit()) +
                     ", \"params\": {";
  bool first = true;
  for (const auto& [key, value] : workload->params()) {
    json += (first ? "" : ", ") + json_quote(key) + ": " + json_quote(value);
    first = false;
  }
  json += "}, \"correct\": " + std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < why.size(); ++i) {
    json += (i ? ", " : "") + json_quote(why[i]);
  }
  json += "], \"region_s\": " + num(region_s) + ", \"round_units_per_s\": [";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    json += (i ? ", " : "") + num(rates[i]);
  }
  json += "], \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    json += (i ? ", " : "") + num(setup_s[i]);
  }
  json += "], \"end_to_end\": {\"units_per_s\": " + metric(units_per_s, "1/s") +
          ", \"setup_s\": " + metric(setup_med, "s") +
          ", \"peak_rss_mb\": " + metric(rss_mb, "MiB") +
          ", \"fail_frac\": " + metric(fail_frac, "ratio") + "}";
  if (!layers_json.empty()) json += ", \"per_layer\": {" + layers_json + "}";
  json += "}\n";
  if (!write_file(result_path, json)) {
    throw std::runtime_error("cannot write " + result_path);
  }

  std::printf(
      "[%s] %zu rounds in %.2f s, work unit: %s\n"
      "  units_per_s   = %.6g 1/s\n"
      "  setup_s       = %.6g s (median of %zu)\n"
      "  peak_rss_mb   = %.1f MiB\n"
      "  fail_frac     = %.6g (%llu/%llu)\n%s",
      name.c_str(), round_s.size(), region_s, workload->work_unit(),
      units_per_s, setup_med, setup_s.size(), rss_mb, fail_frac,
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(attempted), layers_text.c_str());
  for (const std::string& w : why) std::printf("  FAIL: %s\n", w.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perf
