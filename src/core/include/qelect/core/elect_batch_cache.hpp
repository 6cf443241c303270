// A process-wide, bounded cache of compiled ElectBatchPlans.
//
// compile_elect_batch_plan is the expensive prefix of every batch
// invocation: one scratch scalar run per agent (MAP-DRAWING tape
// extraction), plan/squad/route precomputation.  The callers that matter
// -- qelectd's multi-replica RUN_ELECT path, the serve-side request
// coalescer, and the campaign engine's slab runner -- hand it the *same*
// instances over and over: a steady-state burst of single-seed queries
// over one instance is thousands of slabs of one structure, and a
// many-seed campaign is one structure per spec point chunked into many
// slabs.  This cache makes the repeat cost a map lookup.
//
// Keys are the exact port structure of the graph plus the home-base set
// (the same lossless encoding the protocol_plan/route caches use), so a
// hit can only return the plan the uncached compile would have produced:
// key equality is structure equality, and plans are pure functions of
// (graph, placement).  The golden batch-vs-scalar parity gate therefore
// holds verbatim through the cache.
//
// It is a util::LruCache: compilation runs outside the lock, two threads
// racing on one cold key may both compile (the first insert wins), and
// LRU eviction bounds it.  qelectd resizes the global instance at startup
// (--plan-cache).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qelect/core/elect_batch.hpp"
#include "qelect/graph/graph.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/util/hash.hpp"
#include "qelect/util/lru_cache.hpp"

namespace qelect::core {

class ElectBatchPlanCache
    : public util::LruCache<std::vector<std::uint64_t>, ElectBatchPlan,
                            util::WordsHash> {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit ElectBatchPlanCache(std::size_t capacity = kDefaultCapacity)
      : LruCache(capacity) {}

  /// The compiled plan for (g, p): a shared hit when the structure was
  /// seen before, otherwise compiled via compile_elect_batch_plan and
  /// inserted.  Propagates compile_elect_batch_plan's CheckError for
  /// unsupported instances (nothing is cached on failure).
  std::shared_ptr<const ElectBatchPlan> plan(const graph::Graph& g,
                                             const graph::Placement& p);

  /// The process-wide cache shared by serve and campaign slab paths.
  static ElectBatchPlanCache& global();
};

}  // namespace qelect::core
