// replicated_dcf: sim::run_replicated — the single-hop slot simulator
// under the replication engine (run_sequential batches of 32 on a
// 4-worker pool). Basic access, 16 nodes at W*(20) and 4 selfish nodes at
// W*/4. It guards the "one slot kernel" refactor and the replication-
// scaling work.
//
// The traced pass re-drives run_replicated's batches through public calls
// (one span per replication, one per batch) and must reproduce the
// SimBatch aggregates bitwise; it also times a 128-replication prefix at
// jobs 1 and 4, whose aggregates must agree bitwise too.
#include <optional>
#include <string>

#include "analytical/fixed_point_solver.hpp"
#include "analytical/throughput.hpp"
#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"
#include "harness.hpp"
#include "parallel/replication.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace perf {
namespace {

using namespace smac;

constexpr int kNodes = 20;
constexpr int kSelfish = 4;
/// Model-vs-simulation margins (relative). Over 25 rounds on seeds 2026,
/// 1 and 7 the largest deviations were 0.094% (mean payoff rate against
/// StageGame::utility_rates) and 0.092% (throughput against
/// analytical::channel_metrics); the margins allow ten times that.
constexpr double kPayoffMargin = 0.01;
constexpr double kThroughputMargin = 0.01;

bool same_summaries(const std::vector<util::MetricSummary>& a,
                    const std::vector<util::MetricSummary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].count != b[i].count ||
        a[i].mean != b[i].mean || a[i].stddev != b[i].stddev ||
        a[i].ci95 != b[i].ci95 || a[i].min != b[i].min ||
        a[i].max != b[i].max) {
      return false;
    }
  }
  return true;
}

double mean_of(const std::vector<util::MetricSummary>& metrics,
               const std::string& name) {
  for (const auto& m : metrics) {
    if (m.name == name) return m.mean;
  }
  return 0.0;
}

class Dcf final : public Workload {
 public:
  explicit Dcf(const RunOptions& options) : options_(options) {}

  const char* work_unit() const override { return "replication-slot"; }
  std::vector<std::pair<std::string, std::string>> params() const override {
    return {{"nodes", std::to_string(kNodes)},
            {"selfish", std::to_string(kSelfish)},
            {"w_star", std::to_string(w_star_)},
            {"replications", std::to_string(replications())},
            {"slots", std::to_string(slots())},
            {"jobs", std::to_string(kWorkers)}};
  }
  std::size_t units_per_round() const override { return replications(); }

  void setup() override {
    const game::StageGame game(phy::Parameters::paper(),
                               phy::AccessMode::kBasic);
    w_star_ = game::EquilibriumFinder(game, kNodes).efficient_cw();
    profile_.assign(kNodes, w_star_);
    for (int i = kNodes - kSelfish; i < kNodes; ++i) {
      profile_[static_cast<std::size_t>(i)] = std::max(1, w_star_ / 4);
    }
    // Model reference for the output check.
    model_payoff_ = util::mean_of(game.utility_rates(profile_));
    const phy::Parameters& params = game.params();
    const auto solved = analytical::try_solve_network(
        profile_, params.max_backoff_stage, {}, params.packet_error_rate);
    model_throughput_ = analytical::channel_metrics(
                            solved.state.tau, params, phy::AccessMode::kBasic)
                            .throughput;
  }

  double run_round(std::size_t round) override {
    last_ = sim::run_replicated(config_for(round), profile_, slots(),
                                replications(), kWorkers);
    return static_cast<double>(replications()) *
           static_cast<double>(slots());
  }

  std::size_t check_round(std::vector<std::string>& why) override {
    if (!first_) first_ = last_;
    const double payoff = mean_of(last_.metrics, "mean payoff rate");
    const double throughput = mean_of(last_.metrics, "throughput");
    if (rel_diff(payoff, model_payoff_) <= kPayoffMargin &&
        rel_diff(throughput, model_throughput_) <= kThroughputMargin) {
      return 0;
    }
    why.push_back("simulation departs from the model");
    return replications();
  }

  TracedPass trace() override {
    TracedPass out;
    const sim::SimConfig config = config_for(0);
    std::vector<double> success_slots(replications(), 0.0);
    std::vector<util::RunningStats> acc(sim::replicated_metric_names().size());
    {
      // run_sequential's schedule: batches of kDefaultStoppingBatch
      // consecutive indices on one pool, reduced in index order.
      const trace::Scope round("dcf.round");
      parallel::ThreadPool pool(kWorkers);
      const std::size_t batch = parallel::kDefaultStoppingBatch;
      std::vector<std::vector<double>> rows(batch);
      for (std::size_t done = 0; done < replications(); done += batch) {
        const std::size_t count = std::min(batch, replications() - done);
        const trace::Scope fanout("parallel.batch");
        pool.for_each_index(count, [&](std::size_t k) {
          const trace::Scope span("sim.replication", fanout.id());
          sim::SimConfig replica = config;
          replica.seed = parallel::stream_seed(config.seed, done + k);
          sim::Simulator simulator(replica, profile_);
          const sim::SimResult r = simulator.run_slots(slots());
          rows[k] = metric_row(r);
          success_slots[done + k] = static_cast<double>(r.success_slots);
        });
        for (std::size_t k = 0; k < count; ++k) {
          for (std::size_t m = 0; m < acc.size(); ++m) acc[m].add(rows[k][m]);
        }
      }
    }
    const auto recomposed =
        util::summaries_from_stats(sim::replicated_metric_names(), acc);
    if (!same_summaries(recomposed, first_->metrics)) {
      out.mismatches.push_back("run_replicated aggregates");
    }

    // Replication-engine scaling on a 128-replication prefix.
    const std::size_t prefix = std::min<std::size_t>(128, replications());
    sim::SimBatch serial;
    sim::SimBatch parallel4;
    {
      const trace::Scope span("dcf.prefix_jobs1");
      serial = sim::run_replicated(config, profile_, slots(), prefix, 1);
    }
    {
      const trace::Scope span("dcf.prefix_jobs4");
      parallel4 =
          sim::run_replicated(config, profile_, slots(), prefix, kWorkers);
    }
    if (!same_summaries(serial.metrics, parallel4.metrics)) {
      out.mismatches.push_back("jobs 1 vs jobs 4 aggregates");
    }

    const auto spans = trace::collect();
    const std::vector<double> reps =
        trace::durations_ms(spans, "sim.replication");
    double rep_ms = 0.0;
    for (const double r : reps) rep_ms += r;
    const trace::FanoutUse use =
        trace::fanout_use(spans, "parallel.batch", kWorkers);
    double successes = 0.0;
    for (const double s : success_slots) successes += s;
    const double total_slots =
        static_cast<double>(replications()) * static_cast<double>(slots());
    LayerValues& m = out.layers;
    m["sim.rep_ms_p50"] = quantile(reps, 0.5);
    m["sim.rep_ms_p98"] = quantile(reps, 0.98);
    m["sim.rep_n"] = static_cast<double>(reps.size());
    m["sim.ns_per_slot"] = rep_ms * 1e6 / total_slots;
    m["sim.success_slot_frac"] = successes / total_slots;
    m["parallel.busy_frac"] = use.busy_ms / use.capacity_ms;
    m["parallel.barrier_idle_frac"] = 1.0 - use.busy_ms / use.capacity_ms;
    m["parallel.tail_ms"] = use.tail_ms;
    m["parallel.speedup_j4"] = trace::total_ms(spans, "dcf.prefix_jobs1") /
                               trace::total_ms(spans, "dcf.prefix_jobs4");
    out.round_s = trace::total_ms(spans, "dcf.round") * 1e-3;
    return out;
  }

 private:
  std::size_t replications() const { return options_.smoke ? 64 : 512; }
  std::uint64_t slots() const { return options_.smoke ? 2000 : 25000; }

  sim::SimConfig config_for(std::size_t round) const {
    sim::SimConfig config;
    config.mode = phy::AccessMode::kBasic;
    config.seed =
        parallel::stream_seed(parallel::stream_seed(options_.seed, 4), round);
    return config;
  }

  /// The row run_replicated reduces per replication (its column order is
  /// sim::replicated_metric_names()).
  static std::vector<double> metric_row(const sim::SimResult& r) {
    const auto total = static_cast<double>(r.slots);
    return {r.throughput,
            static_cast<double>(r.collision_slots) / total,
            static_cast<double>(r.idle_slots) / total,
            util::mean_of(r.payoff_rate),
            util::jain_fairness(r.payoff_rate),
            util::mean_of(r.measured_tau),
            util::mean_of(r.measured_p)};
  }

  RunOptions options_;
  int w_star_ = 0;
  std::vector<int> profile_;
  double model_payoff_ = 0.0;
  double model_throughput_ = 0.0;
  sim::SimBatch last_;
  std::optional<sim::SimBatch> first_;
};

}  // namespace

std::unique_ptr<Workload> make_dcf(const RunOptions& options) {
  return std::make_unique<Dcf>(options);
}

}  // namespace perf
