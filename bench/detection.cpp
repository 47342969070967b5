// Misbehavior detection (the enforcement side of ref [3]).
//
// The paper's TFT needs to *observe* windows; Kyasanur & Vaidya's line of
// work detects nodes that undercut an agreed window. This harness
// characterizes our binomial detector: slot budgets to flag cheaters of
// varying severity at 90% power, the measured detection/false-positive
// rates at those budgets, and how the tolerance knob trades the two —
// completing the trust pipeline (search finds W_c*, the detector guards
// it, GTFT meters the punishment).
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_common.hpp"
#include "parallel/replication.hpp"
#include "sim/misbehavior_detector.hpp"
#include "util/table.hpp"

namespace {

using namespace smac;

std::size_t g_jobs = 1;
parallel::StoppingRule g_rule;  ///< CLI template; metric/budget set per call

// Fraction of independent replications in which node 0 is flagged.
// Replication r runs with stream seed (0xdec0 + w_node0, r), so the rate
// is a pure function of the arguments — independent of g_jobs. `runs` is
// the fixed default; an active --ci-target replicates in batches of 4
// until the flag-rate CI half-width meets it (or --max-reps runs out).
double measured_rate(int w_agreed, int w_node0, std::uint64_t slots,
                     const sim::DetectorConfig& config, int runs) {
  const parallel::StoppingRule rule = bench::resolve_stopping(
      g_rule, "flagged", static_cast<std::size_t>(runs), 4);
  const auto summary = parallel::run_sequential(
      {"flagged"}, rule, 0xdec0 + static_cast<std::uint64_t>(w_node0), g_jobs,
      [&](std::uint64_t seed, std::size_t /*index*/) {
        sim::SimConfig sc;
        sc.seed = seed;
        std::vector<int> profile(5, w_agreed);
        profile[0] = w_node0;
        sim::Simulator simulator(sc, profile);
        const sim::TryDetectResult detected = sim::try_detect_misbehavior(
            simulator.run_slots(slots), w_agreed, 6, config);
        if (!detected.ok()) {
          throw std::invalid_argument("bench_detection: detector input");
        }
        return std::vector<double>{detected.verdicts[0].flagged ? 1.0 : 0.0};
      });
  return summary.metrics[0].mean;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_args(argc, argv,
                    {"--jobs", "--ci-target", "--ci-rel", "--max-reps"});
  bench::print_header(
      "Contention-window misbehavior detection",
      "ref [3] (Kyasanur & Vaidya) enforcement companion",
      "Agreement W = 64, n = 5, significance 1%, tolerance 5%.");
  g_jobs = bench::jobs_option(argc, argv);
  bench::print_jobs(g_jobs);
  g_rule = bench::stopping_option(argc, argv);
  if (g_rule.ci_half_width_target > 0.0) {
    std::printf("sequential stopping active: CI half-width target %g on "
                "every measured rate%s\n\n",
                g_rule.ci_half_width_target,
                g_rule.max_reps ? " (capped by --max-reps)" : "");
  }

  const sim::DetectorConfig config;

  // 1. Budget and measured rates vs cheat severity.
  util::TextTable table({"W_cheat", "cheat factor", "budget (slots, 90% pwr)",
                         "detect rate @2x budget", "channel time @ budget"});
  for (int w_cheat : {8, 16, 32, 48, 56}) {
    const auto budget = sim::expected_detection_slots(64, w_cheat, 5, 6,
                                                      config, 0.9);
    std::string rate = "n/a";
    std::string airtime = "n/a";
    if (budget > 0) {
      rate = util::fmt_percent(
          measured_rate(64, w_cheat, 2 * budget, config, 12), 0);
      // ~0.4 ms per slot at this contention level (model T_slot).
      airtime = util::fmt_double(budget * 4e-4, 1) + " s";
    }
    table.add_row({std::to_string(w_cheat),
                   util::fmt_double(64.0 / w_cheat, 1) + "x",
                   budget > 0 ? std::to_string(budget) : "undetectable",
                   rate, airtime});
  }
  std::printf("%s\n", table.to_string().c_str());

  // 2. False positives on a compliant network vs tolerance.
  util::TextTable fp({"tolerance", "false-positive rate (compliant)"});
  for (double tolerance : {0.0, 0.02, 0.05, 0.10}) {
    sim::DetectorConfig c;
    c.tolerance = tolerance;
    fp.add_row({util::fmt_percent(tolerance, 0),
                util::fmt_percent(measured_rate(64, 64, 60000, c, 25), 0)});
  }
  std::printf("%s\n", fp.to_string().c_str());
  std::printf(
      "Expectation: severe cheats are caught within fractions of a second\n"
      "of channel time while near-marginal ones take orders of magnitude\n"
      "longer, and sub-tolerance ones are undetectable by design. False\n"
      "positives stay at or below the 1%% design level even at zero\n"
      "tolerance — the mean-field tau tracks the realized attempt rate\n"
      "tightly — so the tolerance knob mainly grants amnesty to\n"
      "*deliberate* marginal undercuts (the detector-side analogue of\n"
      "GTFT's beta).\n");
  return 0;
}
