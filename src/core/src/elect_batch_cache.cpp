#include "qelect/core/elect_batch_cache.hpp"

#include "structure_cache.hpp"

namespace qelect::core {

namespace {

template <typename T>
std::size_t vector_words(const std::vector<T>& v) {
  return 3 + (v.size() * sizeof(T) + 7) / 8;
}

template <typename T>
std::size_t nested_words(const std::vector<std::vector<T>>& vs) {
  std::size_t words = 3;
  for (const std::vector<T>& v : vs) words += vector_words(v);
  return words;
}

/// A graph's adjacency lists (one word per half-edge) and edge list.
std::size_t graph_words(const graph::Graph& g) {
  return 3 + 3 * g.node_count() + 2 * g.edge_count() +
         (g.edge_count() * sizeof(graph::Edge) + 7) / 8;
}

}  // namespace

ElectBatchPlanCache::ElectBatchPlanCache(std::size_t budget_words)
    : LruCache(budget_words, [](const std::vector<std::uint64_t>&,
                                const ElectBatchPlan& plan) {
        return words(plan);
      }) {}

std::size_t ElectBatchPlanCache::words(const ElectBatchPlan& plan) {
  const std::size_t n = plan.graph.node_count();
  // detail::structure_key: n, each degree and half-edge, a separator and
  // the home bases.
  std::size_t words = 3 + 2 + n + 2 * plan.graph.edge_count() +
                      plan.placement.agent_count();
  words += graph_words(plan.graph) + vector_words(plan.placement.home_bases());
  for (const ElectAgentProgram& a : plan.agents) {
    words += vector_words(a.tape) + vector_words(a.tape_actions) +
             graph_words(a.map) + vector_words(a.map_to_real) +
             nested_words(a.class_nodes) + vector_words(a.agent_home) +
             nested_words(a.routes) + nested_words(a.tours) +
             nested_words(a.tour_orders) + a.map_n * a.map_n;
    for (const BatchSquad& squad : a.class_squads) {
      words += vector_words(squad.agents) + vector_words(squad.homes);
    }
  }
  return words;
}

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
