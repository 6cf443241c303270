#include "qelect/core/elect_batch_cache.hpp"

#include "structure_cache.hpp"

namespace qelect::core {

std::shared_ptr<const ElectBatchPlan> ElectBatchPlanCache::plan(
    const graph::Graph& g, const graph::Placement& p) {
  return get(detail::structure_key(g, p),
             [&] { return compile_elect_batch_plan(g, p); });
}

ElectBatchPlanCache& ElectBatchPlanCache::global() {
  static ElectBatchPlanCache cache;
  return cache;
}

}  // namespace qelect::core
