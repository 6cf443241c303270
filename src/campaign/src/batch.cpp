#include "qelect/campaign/batch.hpp"

#include "qelect/campaign/workloads.hpp"
#include "qelect/core/elect_batch.hpp"
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

bool batch_eligible(const CampaignSpec& spec, double timeout_seconds) {
  if (spec.workload != "elect") return false;
  if (!spec.inject.match.empty()) return false;
  // Fault campaigns go through the scalar path: the slab engine has no
  // injection hooks, and the per-task fault-seed derivation is scalar-only.
  if (!spec.faults.empty()) return false;
  if (timeout_seconds > 0) return false;
  return spec.scheduler == "random" || spec.scheduler == "round-robin" ||
         spec.scheduler == "lockstep" || spec.scheduler == "counter";
}

std::vector<std::optional<std::vector<std::pair<std::string, double>>>>
run_elect_slab(std::span<const TaskSpec> tasks) {
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
  config.policy = policy_from_name(head.scheduler);
  if (head.max_steps > 0) config.max_steps = head.max_steps;
  const core::ElectBatchOutcome outcome =
      core::run_elect_batch(plan, replicas, config);

  BatchStats& stats = batch_stats();
  stats.slabs_run.fetch_add(1, std::memory_order_relaxed);
  stats.replicas_run.fetch_add(tasks.size(), std::memory_order_relaxed);
  stats.slab_size_hist[BatchStats::bucket_of(tasks.size())].fetch_add(
      1, std::memory_order_relaxed);

  std::vector<std::optional<std::vector<std::pair<std::string, double>>>> out;
  out.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (outcome.failed[i]) {
      stats.scalar_fallbacks.fetch_add(1, std::memory_order_relaxed);
      out.emplace_back(std::nullopt);
      continue;
    }
    const sim::RunResult& r = outcome.runs[i];
    const bool matches = r.completed &&
                         r.clean_election() == (plan->final_gcd == 1) &&
                         r.clean_failure() == (plan->final_gcd != 1);
    out.emplace_back(std::vector<std::pair<std::string, double>>{
        {"n", static_cast<double>(g.node_count())},
        {"final_gcd", static_cast<double>(plan->final_gcd)},
        {"completed", r.completed ? 1 : 0},
        {"clean_election", r.clean_election() ? 1 : 0},
        {"clean_failure", r.clean_failure() ? 1 : 0},
        {"matches_oracle", matches ? 1 : 0},
        {"moves", static_cast<double>(r.total_moves)},
        {"steps", static_cast<double>(r.steps)}});
  }
  return out;
}

}  // namespace qelect::campaign
