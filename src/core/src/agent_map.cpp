#include "qelect/core/agent_map.hpp"

#include <algorithm>
#include <memory>

#include "qelect/util/assert.hpp"
#include "qelect/util/hash.hpp"
#include "qelect/util/lru_cache.hpp"
#include "structure_cache.hpp"

namespace qelect::core {

std::size_t AgentMap::agent_count() const {
  std::size_t count = 0;
  for (const auto& c : base_color) {
    if (c.has_value()) ++count;
  }
  return count;
}

std::vector<NodeId> AgentMap::home_base_nodes() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < base_color.size(); ++v) {
    if (base_color[v].has_value()) out.push_back(v);
  }
  return out;
}

graph::Placement AgentMap::placement() const {
  return graph::Placement(graph.node_count(), home_base_nodes());
}

namespace detail {

/// BFS predecessor trees from every source of one port structure --
/// exactly the (prev_node, prev_port) arrays route() used to compute per
/// call, so reconstructed paths are identical to the uncached ones.
struct BfsTrees {
  std::vector<std::vector<int>> prev_node;     // [from][node]
  std::vector<std::vector<PortId>> prev_port;  // [from][node]
};

}  // namespace detail

namespace {

using detail::BfsTrees;

BfsTrees bfs_trees(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  BfsTrees trees;
  trees.prev_node.assign(n, std::vector<int>(n, -1));
  trees.prev_port.assign(n, std::vector<PortId>(n, 0));
  for (NodeId from = 0; from < n; ++from) {
    std::vector<int>& prev_node = trees.prev_node[from];
    std::vector<PortId>& prev_port = trees.prev_port[from];
    // Each node is queued at most once: a vector read through a head index.
    std::vector<NodeId> queue;
    queue.reserve(n);
    queue.push_back(from);
    prev_node[from] = static_cast<int>(from);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      for (PortId p = 0; p < g.degree(x); ++p) {
        const graph::HalfEdge& h = g.peer(x, p);
        if (prev_node[h.to] < 0) {
          prev_node[h.to] = static_cast<int>(x);
          prev_port[h.to] = p;
          queue.push_back(h.to);
        }
      }
    }
  }
  return trees;
}

std::shared_ptr<const BfsTrees> trees_for(const graph::Graph& g) {
  static util::LruCache<detail::StructureKey, BfsTrees, util::WordsHash>
      cache(1024);
  return cache.get(detail::structure_key(g), [&] { return bfs_trees(g); });
}

}  // namespace

std::vector<PortId> route(const graph::Graph& g, NodeId from, NodeId to) {
  QELECT_CHECK(from < g.node_count() && to < g.node_count(),
               "route: node out of range");
  return RouteFinder(g).route(from, to);
}

RouteFinder::RouteFinder(const graph::Graph& g) : trees_(trees_for(g)) {}

std::vector<PortId> RouteFinder::route(NodeId from, NodeId to) const {
  QELECT_CHECK(trees_ != nullptr && from < trees_->prev_node.size() &&
                   to < trees_->prev_node.size(),
               "route: node out of range");
  if (from == to) return {};
  const std::vector<int>& prev_node = trees_->prev_node[from];
  const std::vector<PortId>& prev_port = trees_->prev_port[from];
  QELECT_CHECK(prev_node[to] >= 0, "route: target unreachable");
  std::vector<PortId> ports;
  NodeId cursor = to;
  while (cursor != from) {
    ports.push_back(prev_port[cursor]);
    cursor = static_cast<NodeId>(prev_node[cursor]);
  }
  std::reverse(ports.begin(), ports.end());
  return ports;
}

namespace {

void tour_rec(const graph::Graph& g, NodeId x, std::vector<bool>& visited,
              std::vector<PortId>& ports, std::vector<NodeId>* order) {
  visited[x] = true;
  for (PortId p = 0; p < g.degree(x); ++p) {
    const graph::HalfEdge& h = g.peer(x, p);
    if (visited[h.to]) continue;
    ports.push_back(p);
    if (order) order->push_back(h.to);
    tour_rec(g, h.to, visited, ports, order);
    ports.push_back(h.to_port);
    if (order) order->push_back(x);
  }
}

}  // namespace

std::vector<PortId> tour_ports(const graph::Graph& g, NodeId start,
                               std::vector<NodeId>* visit_order) {
  QELECT_CHECK(start < g.node_count(), "tour_ports: node out of range");
  QELECT_CHECK(g.is_connected(), "tour_ports: graph must be connected");
  std::vector<bool> visited(g.node_count(), false);
  std::vector<PortId> ports;
  if (visit_order) visit_order->clear();
  tour_rec(g, start, visited, ports, visit_order);
  return ports;
}

}  // namespace qelect::core
