// PERF: batch backend vs scalar -- aggregate moves/sec over replica
// bursts.  The workload the batch backend exists for: N independent
// counter-scheduled replicas of one elect instance, advanced in lockstep
// by BatchWorld vs run one-at-a-time by the coroutine World.  Both sides
// execute the identical (seed, replica) schedules, and the bench asserts
// the per-replica move counts agree before it reports a speedup.
//
// Cases land in BENCH_sim.json next to the scalar simulator cases: the
// reporter first re-imports the cases an earlier bench_sim_throughput run
// of the same build wrote there, then appends batch_*/scalar_burst_* pairs
// with a batch_vs_scalar counter per pair (tools/bench_summary.py gates on
// it under --strict).
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "qelect/campaign/json.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/elect_batch.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/batch.hpp"
#include "qelect/sim/world.hpp"

namespace {

using namespace qelect;

constexpr std::size_t kReplicas = 64;
constexpr std::uint64_t kSeed = 5;
/// Above-default sample count: the speedup ratio divides two best-of-N
/// times, so both sides get extra shots at an uncontended sample.
constexpr int kSamples = 15;

/// Re-imports the cases of an existing BENCH_sim.json (the scalar
/// simulator suite) so this bench's write() does not clobber them.  Cases
/// from a different build or smoke setting are dropped -- merging them
/// would mix measurements bench_summary.py could not tell apart.
void import_existing(benchjson::Reporter& rep) {
  std::ifstream in("BENCH_sim.json", std::ios::binary);
  if (!in.good()) return;
  std::ostringstream buf;
  buf << in.rdbuf();
  campaign::JsonValue root;
  try {
    root = campaign::parse_json(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sim_batch: ignoring BENCH_sim.json: %s\n",
                 e.what());
    return;
  }
  if (root.string_or("config_hash", "") != benchjson::config_hash() ||
      root.bool_or("smoke", false) != rep.smoke()) {
    std::printf("dropping stale BENCH_sim.json cases (different build or "
                "smoke setting); re-run bench_sim_throughput to restore\n");
    return;
  }
  const campaign::JsonValue* cases = root.find("cases");
  if (cases == nullptr) return;
  std::size_t imported = 0;
  for (const campaign::JsonValue& c : cases->as_array()) {
    const std::string name = c.string_or("name", "");
    if (name.empty() || name.rfind("batch_", 0) == 0 ||
        name.rfind("scalar_burst_", 0) == 0) {
      continue;  // this bench re-measures those
    }
    std::vector<double> samples;
    if (const campaign::JsonValue* s = c.find("samples_seconds")) {
      for (const campaign::JsonValue& v : s->as_array()) {
        samples.push_back(v.as_double());
      }
    }
    const double median = c.number_or("median_seconds", 0.0);
    double best = c.number_or("best_seconds", 0.0);
    if (best == 0.0) {
      best = median;
      for (const double s : samples) best = std::min(best, s);
    }
    std::vector<std::pair<std::string, double>> counters;
    if (const campaign::JsonValue* k = c.find("counters")) {
      for (const auto& [key, value] : k->members()) {
        counters.emplace_back(key, value.as_double());
      }
    }
    rep.import_case(name, median, best, std::move(samples),
                    static_cast<std::size_t>(
                        c.int_or("iterations_per_sample", 0)),
                    std::move(counters));
    ++imported;
  }
  std::printf("kept %zu cases from BENCH_sim.json\n", imported);
}

/// One instance: times kReplicas counter-stream runs on the scalar engine
/// and on the batch backend, checks they agree replica-for-replica, and
/// reports the aggregate-throughput ratio.
void burst_case(benchjson::Reporter& rep, const std::string& instance,
                graph::Graph g, graph::Placement p) {
  const sim::Protocol protocol = core::make_elect_protocol();
  sim::World world(g, p, kSeed);
  std::vector<std::uint64_t> scalar_moves(kReplicas, 0);
  std::size_t scalar_total = 0;
  const std::string scalar_name = "scalar_burst_" + instance;
  const double scalar_t = rep.bench(scalar_name, [&] {
    scalar_total = 0;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      sim::RunConfig cfg;
      cfg.policy = sim::SchedulerPolicy::Counter;
      cfg.seed = kSeed;
      cfg.replica = i;
      const sim::RunResult r = world.run(protocol, cfg);
      scalar_moves[i] = r.total_moves;
      scalar_total += r.total_moves;
    }
    benchjson::keep(scalar_total);
  }, kSamples);
  const double scalar_mps =
      static_cast<double>(scalar_total) / std::max(scalar_t, 1e-12);
  const double scalar_best_mps = static_cast<double>(scalar_total) /
                                 std::max(rep.best_of(scalar_name), 1e-12);
  rep.counter(scalar_name, "replicas", static_cast<double>(kReplicas));
  rep.counter(scalar_name, "moves", static_cast<double>(scalar_total));
  rep.counter(scalar_name, "moves_per_second", scalar_mps);
  rep.counter(scalar_name, "best_moves_per_second", scalar_best_mps);

  // The plan compile is once-per-instance work (campaign slabs and serve
  // bursts both amortize it); it is timed separately below.  The runner is
  // likewise held across runs -- the batch analog of the reused scalar
  // World above -- so steady-state iterations recycle replica buffers.
  std::shared_ptr<const core::ElectBatchPlan> plan;
  const auto t0 = std::chrono::steady_clock::now();
  plan = core::compile_elect_batch_plan(g, p);
  const std::chrono::duration<double> compile_dt =
      std::chrono::steady_clock::now() - t0;
  core::ElectBatchRunner runner;

  std::vector<sim::BatchReplicaConfig> replicas;
  replicas.reserve(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    replicas.push_back({kSeed, i});
  }
  sim::BatchConfig config;
  config.policy = sim::SchedulerPolicy::Counter;

  std::size_t batch_total = 0;
  bool identical = true;
  const std::string batch_name = "batch_" + instance;
  const double batch_t = rep.bench(batch_name, [&] {
    const core::ElectBatchOutcome out = runner.run(*plan, replicas, config);
    batch_total = 0;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      if (out.failed[i] || out.runs[i].total_moves != scalar_moves[i]) {
        identical = false;
      }
      batch_total += out.runs[i].total_moves;
    }
    benchjson::keep(batch_total);
  }, kSamples);
  if (!identical) {
    std::fprintf(stderr,
                 "bench_sim_batch: %s: batch/scalar move counts DIVERGE\n",
                 instance.c_str());
  }
  const double batch_mps =
      static_cast<double>(batch_total) / std::max(batch_t, 1e-12);
  const double best_mps = static_cast<double>(batch_total) /
                          std::max(rep.best_of(batch_name), 1e-12);
  rep.counter(batch_name, "replicas", static_cast<double>(kReplicas));
  rep.counter(batch_name, "moves", static_cast<double>(batch_total));
  rep.counter(batch_name, "moves_per_second", batch_mps);
  rep.counter(batch_name, "best_moves_per_second", best_mps);
  rep.counter(batch_name, "compile_seconds", compile_dt.count());
  rep.counter(batch_name, "scalar_moves_per_second", scalar_mps);
  rep.counter(batch_name, "scalar_best_moves_per_second", scalar_best_mps);
  // Speedup is best-sample vs best-sample: on a shared/noisy host the
  // minimum is the least-interfered observation of each engine, and taking
  // it on both sides keeps the comparison symmetric.
  rep.counter(batch_name, "batch_vs_scalar", best_mps / scalar_best_mps);
  rep.counter(batch_name, "batch_vs_scalar_median", batch_mps / scalar_mps);
  rep.counter(batch_name, "verdicts_identical", identical ? 1.0 : 0.0);
  std::printf("  %-24s %8.2fM moves/s batch  %8.2fM scalar  %5.2fx "
              "(best %5.2fx)\n",
              instance.c_str(), batch_mps / 1e6, scalar_mps / 1e6,
              batch_mps / scalar_mps, best_mps / scalar_best_mps);
}

}  // namespace

int main() {
  benchjson::Reporter rep("sim");
  std::printf("bench_sim_batch (%zu replicas/case)%s\n", kReplicas,
              rep.smoke() ? " [smoke]" : "");
  import_existing(rep);

  for (const std::size_t n : {6u, 10u, 14u}) {
    burst_case(rep, "elect_ring_" + std::to_string(n), graph::ring(n),
               graph::Placement(n, {0, 2}));
  }
  burst_case(rep, "elect_hypercube3_8agents", graph::hypercube(3),
             graph::Placement(8, {0, 1, 2, 3, 4, 5, 6, 7}));

  rep.write();
  return 0;
}
