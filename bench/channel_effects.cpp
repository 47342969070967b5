// Ablation — channel realism: packet errors, capture, backoff laws.
//
// The paper assumes an ideal channel (no noise, no capture) and BEB.
// This harness quantifies how each relaxation moves the headline objects:
// the efficient NE window, its utility, throughput, and fairness.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "game/equilibrium.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {
using namespace smac;
}  // namespace

int main(int argc, char** argv) {
  bench::check_args(argc, argv, {"--jobs"});
  bench::print_header(
      "Channel-realism ablations: PER, capture, backoff law",
      "paper §III idealizations relaxed one axis at a time",
      "Basic access, n = 10 unless noted.");
  const std::size_t jobs = bench::jobs_option(argc, argv);
  parallel::ThreadPool pool(jobs);
  bench::print_jobs(jobs);

  const phy::Parameters base = phy::Parameters::paper();
  const game::StageGame clean(base, phy::AccessMode::kBasic);
  const int w_star = game::EquilibriumFinder(clean, 10).efficient_cw();

  // Every sweep point below is a self-contained experiment with its own
  // fixed seed; each table fans its points across --jobs into per-index
  // row slots and prints them in sweep order, so output is byte-identical
  // for any jobs value.

  // 1. PER sweep: NE window and achievable utility.
  util::TextTable per_table({"PER", "W_c*", "u at W_c*", "vs clean %"});
  const double u_clean = clean.homogeneous_utility_rate(w_star, 10);
  const std::vector<double> pers{0.0, 0.05, 0.15, 0.3, 0.5};
  std::vector<std::vector<std::string>> per_rows(pers.size());
  pool.for_each_index(pers.size(), [&](std::size_t k) {
    phy::Parameters params = base;
    params.packet_error_rate = pers[k];
    const game::StageGame noisy(params, phy::AccessMode::kBasic);
    const int w_noisy = game::EquilibriumFinder(noisy, 10).efficient_cw();
    const double u = noisy.homogeneous_utility_rate(w_noisy, 10);
    per_rows[k] = {util::fmt_double(pers[k], 2), std::to_string(w_noisy),
                   util::fmt_double(u * 1e6, 3) + "e-6",
                   util::fmt_double(u / u_clean * 100.0, 1)};
  });
  for (auto& row : per_rows) per_table.add_row(std::move(row));
  std::printf("%s\n", per_table.to_string().c_str());

  // 2. Capture sweep: throughput and the aggressor's premium (one node at
  //    W/8 among conformers at the NE window).
  util::TextTable cap_table({"capture p", "throughput", "aggr. premium x"});
  const std::vector<double> captures{0.0, 0.25, 0.5, 0.9};
  std::vector<std::vector<std::string>> cap_rows(captures.size());
  pool.for_each_index(captures.size(), [&](std::size_t k) {
    sim::SimConfig config;
    config.seed = 77;
    config.capture_probability = captures[k];
    std::vector<int> profile(10, w_star);
    profile[0] = std::max(1, w_star / 8);
    sim::Simulator sim(config, profile);
    const auto r = sim.run_slots(300000);
    cap_rows[k] = {util::fmt_double(captures[k], 2),
                   util::fmt_double(r.throughput, 3),
                   util::fmt_double(r.payoff_rate[0] / r.payoff_rate[1], 2)};
  });
  for (auto& row : cap_rows) cap_table.add_row(std::move(row));
  std::printf("%s\n", cap_table.to_string().c_str());

  // 3. Backoff-law fairness at two horizons.
  util::TextTable law_table({"policy", "Jain (500 slots)",
                             "Jain (20k slots)", "throughput"});
  const std::vector<sim::BackoffPolicy> policies{
      sim::BackoffPolicy::kBinaryExponential, sim::BackoffPolicy::kMild,
      sim::BackoffPolicy::kConstant};
  std::vector<std::vector<std::string>> law_rows(policies.size());
  pool.for_each_index(policies.size(), [&](std::size_t k) {
    const sim::BackoffPolicy policy = policies[k];
    auto jain_at = [&](std::uint64_t slots) {
      util::RunningStats acc;
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        sim::SimConfig config;
        config.seed = 200 + seed;
        config.backoff_policy = policy;
        sim::Simulator sim(config, std::vector<int>(10, 16));
        const auto r = sim.run_slots(slots);
        std::vector<double> succ;
        for (const auto& node : r.node) {
          succ.push_back(static_cast<double>(node.successes));
        }
        acc.add(util::jain_fairness(succ));
      }
      return acc.mean();
    };
    sim::SimConfig config;
    config.seed = 300;
    config.backoff_policy = policy;
    sim::Simulator sim(config, std::vector<int>(10, 16));
    const char* name = policy == sim::BackoffPolicy::kBinaryExponential
                           ? "BEB (802.11)"
                           : policy == sim::BackoffPolicy::kMild
                                 ? "MILD (MACAW)"
                                 : "constant";
    law_rows[k] = {name, util::fmt_double(jain_at(500), 3),
                   util::fmt_double(jain_at(20000), 3),
                   util::fmt_double(sim.run_slots(100000).throughput, 3)};
  });
  for (auto& row : law_rows) law_table.add_row(std::move(row));
  std::printf("%s\n", law_table.to_string().c_str());
  std::printf(
      "Expectation: PER drags W_c* *down* (escalation suppresses tau; a\n"
      "smaller window restores the channel-optimal attempt rate) and costs\n"
      "utility roughly linearly; capture raises throughput but *softens*\n"
      "the aggressor's premium (uniform capture shares contested slots);\n"
      "MILD is fairer than BEB at short horizons and less fair at long\n"
      "ones, with comparable throughput.\n");
  return 0;
}
