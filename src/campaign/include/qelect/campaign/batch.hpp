// Batch execution: one runner for every many-replica ELECT run.
//
// Campaign slabs, multi-replica RUN_ELECT requests and qelectd's coalesced
// single-seed windows each look up the compiled plan, build a replica list
// and call run_elect_replicas.  It runs the list as one sim::BatchWorld
// slab, counts the slab in batch_stats(), and re-runs a replica the batch
// model refuses on a fresh scalar sim::World with the same seed, replica,
// policy and max_steps (a `scalar_fallbacks` count).  Replica (seed, r)
// reproduces the scalar run with that RunConfig bit-for-bit (the golden
// gate in tests/test_batch.cpp), so a fallback costs time, never a
// different answer.
//
// A campaign slab is a run of adjacent pending elect tasks of one
// task-space instance, which differ only in their color seed; replica
// (color_seed, 0) makes each record the one the scalar path writes, so
// stores stay resumable and comparable.  A slab that throws as a whole is
// re-run task by task on the scalar path by the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/core/elect_batch.hpp"

namespace qelect::campaign {

/// Replicas-per-slab histogram buckets: 1, 2-3, 4-7, 8-15, 16-31, 32+.
inline constexpr std::size_t kSlabHistBuckets = 6;

/// The most replicas in one campaign slab; an instance with more seeds
/// runs as several.  Why 64: docs/PERFORMANCE.md § "Batch execution".
inline constexpr std::size_t kMaxSlabReplicas = 64;

struct BatchStats {
  std::atomic<std::uint64_t> slabs_run{0};
  std::atomic<std::uint64_t> replicas_run{0};
  std::atomic<std::uint64_t> scalar_fallbacks{0};
  std::atomic<std::uint64_t> slab_size_hist[kSlabHistBuckets]{};

  /// Bucket index for a slab of `replicas` replicas.
  static std::size_t bucket_of(std::size_t replicas);
};

/// Process-wide batch-backend counters (campaign slabs and serve bursts
/// both report here).
BatchStats& batch_stats();

/// Runs `replicas` of `plan` as one slab under `config`: one RunResult
/// per replica, in order, each the scalar ELECT run with color and
/// scheduler seed `seed`, stream `replica`, and `config`'s policy and
/// max_steps.  Propagates what the batch engine or a scalar re-run throws.
std::vector<sim::RunResult> run_elect_replicas(
    const std::shared_ptr<const core::ElectBatchPlan>& plan,
    const std::vector<sim::BatchReplicaConfig>& replicas,
    const sim::BatchConfig& config);

/// True when `spec` runs on slabs: elect workload, no fail injection, no
/// faults axis, no per-attempt deadline, and a scheduler policy the batch
/// engine supports.  `timeout_seconds` is the engine-resolved value
/// (options override applied).
bool batch_eligible(const CampaignSpec& spec, double timeout_seconds);

/// Runs one campaign slab (tasks sharing graph, home bases, scheduler and
/// max_steps): one metrics vector per task, in order, identical to the
/// scalar "elect" workload's.  Throws if the slab cannot run.
std::vector<std::vector<std::pair<std::string, double>>> run_elect_slab(
    std::span<const TaskSpec> tasks);

}  // namespace qelect::campaign
