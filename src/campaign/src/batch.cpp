#include "qelect/campaign/batch.hpp"

#include "qelect/campaign/workloads.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/elect_batch_cache.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/batch.hpp"

namespace qelect::campaign {

std::size_t BatchStats::bucket_of(std::size_t replicas) {
  if (replicas <= 1) return 0;
  if (replicas <= 3) return 1;
  if (replicas <= 7) return 2;
  if (replicas <= 15) return 3;
  if (replicas <= 31) return 4;
  return 5;
}

BatchStats& batch_stats() {
  static BatchStats stats;
  return stats;
}

std::vector<sim::RunResult> run_elect_replicas(
    const std::shared_ptr<const core::ElectBatchPlan>& plan,
    const std::vector<sim::BatchReplicaConfig>& replicas,
    const sim::BatchConfig& config) {
  core::ElectBatchOutcome outcome =
      core::run_elect_batch(plan, replicas, config);

  BatchStats& stats = batch_stats();
  stats.slabs_run.fetch_add(1, std::memory_order_relaxed);
  stats.replicas_run.fetch_add(replicas.size(), std::memory_order_relaxed);
  stats.slab_size_hist[BatchStats::bucket_of(replicas.size())].fetch_add(
      1, std::memory_order_relaxed);

  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (!outcome.failed[i]) continue;
    stats.scalar_fallbacks.fetch_add(1, std::memory_order_relaxed);
    sim::World world(plan->graph, plan->placement,
                     /*color_seed=*/replicas[i].seed);
    sim::RunConfig run;
    run.policy = config.policy;
    run.seed = replicas[i].seed;
    run.replica = replicas[i].replica;
    run.max_steps = config.max_steps;
    outcome.runs[i] = world.run(core::make_elect_protocol(), run);
  }
  return std::move(outcome.runs);
}

bool batch_eligible(const CampaignSpec& spec, double timeout_seconds) {
  if (spec.workload != "elect") return false;
  if (!spec.inject.match.empty()) return false;
  // Fault campaigns go through the scalar path: the slab engine has no
  // injection hooks, and the per-task fault-seed derivation is scalar-only.
  if (!spec.faults.empty()) return false;
  if (timeout_seconds > 0) return false;
  return policy_from_name(spec.scheduler).has_value();
}

std::vector<std::vector<std::pair<std::string, double>>> run_elect_slab(
    std::span<const TaskSpec> tasks) {
  QELECT_CHECK(!tasks.empty(), "batch: empty slab");
  const TaskSpec& head = tasks.front();
  const graph::Graph g = head.graph.build();
  const graph::Placement p(g.node_count(), head.home_bases);
  // Campaign chunking hands the same structure to many slabs; the shared
  // plan cache amortizes the compile across them (and across qelectd).
  const auto plan = core::ElectBatchPlanCache::global().plan(g, p);

  std::vector<sim::BatchReplicaConfig> replicas;
  replicas.reserve(tasks.size());
  for (const TaskSpec& task : tasks) {
    // The color seed doubles as the scheduler seed, matching the scalar
    // run_config (and so the whole record matches the scalar path's).
    replicas.push_back({task.color_seed, 0});
  }
  sim::BatchConfig config;
  config.policy = policy_from_name(head.scheduler).value();
  if (head.max_steps > 0) config.max_steps = head.max_steps;

  std::vector<std::vector<std::pair<std::string, double>>> out;
  out.reserve(tasks.size());
  for (const sim::RunResult& run : run_elect_replicas(plan, replicas, config)) {
    out.push_back(elect_metrics(g.node_count(), plan->final_gcd, run));
  }
  return out;
}

}  // namespace qelect::campaign
