#include "qelect/core/surrounding.hpp"

#include <map>

#include "qelect/iso/canonical.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::core {

iso::ColoredDigraph surrounding(const graph::Graph& g,
                                const graph::Placement& p, NodeId u) {
  QELECT_CHECK(u < g.node_count(), "surrounding: node out of range");
  QELECT_CHECK(p.node_count() == g.node_count(),
               "surrounding: placement mismatch");
  const std::vector<int> dist = g.bfs_distances(u);
  std::vector<iso::Arc> arcs;
  arcs.reserve(2 * g.edge_count());
  for (const graph::Edge& e : g.edges()) {
    QELECT_ASSERT(dist[e.u] >= 0 && dist[e.v] >= 0);
    if (dist[e.u] <= dist[e.v]) arcs.push_back(iso::Arc{e.u, e.v, 0});
    if (dist[e.v] <= dist[e.u]) arcs.push_back(iso::Arc{e.v, e.u, 0});
  }
  return iso::ColoredDigraph(g.node_count(), p.node_colors(),
                             std::move(arcs));
}

iso::OrderedClasses surrounding_classes(const graph::Graph& g,
                                        const graph::Placement& p) {
  const std::size_t n = g.node_count();
  // Classes in lexicographic certificate order.  Repeats of one (G, p)
  // rarely get here: protocol_plan_shared memoizes the plan built from
  // these classes.
  std::map<iso::Certificate, std::vector<NodeId>> by_cert;
  for (NodeId u = 0; u < n; ++u) {
    by_cert[iso::canonical_certificate(surrounding(g, p, u))].push_back(u);
  }
  iso::OrderedClasses out;
  out.class_of.assign(n, 0);
  for (auto& [cert, members] : by_cert) {
    const std::size_t idx = out.classes.size();
    for (NodeId x : members) out.class_of[x] = idx;
    out.classes.push_back(std::move(members));
    out.certificates.push_back(cert);
  }
  return out;
}

}  // namespace qelect::core
