// Batch execution for the campaign engine.
//
// Every batch-eligible campaign runs its elect tasks as *slabs*: adjacent
// pending tasks of one task-space instance (graph, home_bases; scheduler
// and max_steps are per spec) differ only in their color seed, so the
// engine compiles the instance once
// (compile_elect_batch_plan) and advances all seeds in lockstep through
// sim::BatchWorld.  Each replica is keyed (seed = color_seed, replica =
// 0), which reproduces the scalar run for that task bit-for-bit -- records
// committed by a batch slab are identical to the records the scalar path
// writes, so stores stay resumable and comparable.  A replica that fails
// inside the batch run (model error) is re-run on the scalar engine by the
// caller; the record then carries whatever the scalar attempt produced.
//
// Global counters (slabs run, replicas-per-slab histogram, scalar
// fallbacks) feed qelectd's STATS opcode and the bench summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/task.hpp"

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

/// True when `spec` runs on slabs: elect workload, no fail injection, no
/// faults axis, no per-attempt deadline, and a scheduler policy the batch
/// engine supports.  `timeout_seconds` is the engine-resolved value
/// (options override applied).
bool batch_eligible(const CampaignSpec& spec, double timeout_seconds);

/// Runs one slab.  All tasks must share graph, home bases, scheduler and
/// max_steps.  Returns one metrics vector per task, in task order,
/// identical to what the scalar "elect" workload would produce; a nullopt
/// marks a replica that failed in batch (caller falls back to the scalar
/// path and counts it).  Throws if the instance itself cannot be compiled
/// (caller falls back for the whole slab).
std::vector<std::optional<std::vector<std::pair<std::string, double>>>>
run_elect_slab(std::span<const TaskSpec> tasks);

}  // namespace qelect::campaign
