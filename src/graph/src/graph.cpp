#include "qelect/graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "qelect/util/assert.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::graph {

Graph Graph::from_edges(std::size_t node_count,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g(node_count);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

Graph Graph::from_explicit_edges(std::size_t node_count,
                                 const std::vector<Edge>& edges) {
  Graph g(node_count);
  g.edges_ = edges;
  // Determine degrees from the highest port used at each node.
  std::vector<std::size_t> degree(node_count, 0);
  for (const Edge& e : edges) {
    QELECT_CHECK(e.u < node_count && e.v < node_count,
                 "from_explicit_edges: endpoint out of range");
    degree[e.u] = std::max<std::size_t>(degree[e.u], e.u_port + 1);
    degree[e.v] = std::max<std::size_t>(degree[e.v], e.v_port + 1);
  }
  for (NodeId x = 0; x < node_count; ++x) {
    g.adjacency_[x].assign(degree[x], HalfEdge{});
  }
  // A port is taken once its half-edge leads somewhere: a fresh HalfEdge
  // leads to kInvalidNode, and every endpoint was checked to be a node.
  for (EdgeId id = 0; id < edges.size(); ++id) {
    const Edge& e = edges[id];
    HalfEdge& at_u = g.adjacency_[e.u][e.u_port];
    HalfEdge& at_v = g.adjacency_[e.v][e.v_port];
    QELECT_CHECK(at_u.to == kInvalidNode && at_v.to == kInvalidNode,
                 "from_explicit_edges: duplicate port assignment");
    at_u = HalfEdge{e.v, e.v_port, id};
    at_v = HalfEdge{e.u, e.u_port, id};
  }
  for (const std::vector<HalfEdge>& ports : g.adjacency_) {
    for (const HalfEdge& h : ports) {
      QELECT_CHECK(h.to != kInvalidNode,
                   "from_explicit_edges: port gap at a node");
    }
  }
  return g;
}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

EdgeId Graph::add_edge(NodeId u, NodeId v) {
  QELECT_CHECK(u < adjacency_.size() && v < adjacency_.size(),
               "add_edge endpoint out of range");
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  const PortId pu = static_cast<PortId>(adjacency_[u].size());
  // For a loop both half-edges live at the same node; the second port is
  // allocated after the first.
  const PortId pv = (u == v) ? pu + 1 : static_cast<PortId>(adjacency_[v].size());
  adjacency_[u].push_back(HalfEdge{v, pv, id});
  adjacency_[v].push_back(HalfEdge{u, pu, id});
  edges_.push_back(Edge{u, pu, v, pv});
  return id;
}

const Edge& Graph::edge(EdgeId e) const {
  QELECT_CHECK(e < edges_.size(), "edge id out of range");
  return edges_[e];
}

const std::vector<HalfEdge>& Graph::ports(NodeId x) const {
  QELECT_CHECK(x < adjacency_.size(), "ports: node out of range");
  return adjacency_[x];
}

bool Graph::is_simple() const {
  for (NodeId x = 0; x < adjacency_.size(); ++x) {
    std::set<NodeId> seen;
    for (const HalfEdge& h : adjacency_[x]) {
      if (h.to == x) return false;  // loop
      if (!seen.insert(h.to).second) return false;  // parallel edge
    }
  }
  return true;
}

bool Graph::is_regular() const {
  if (adjacency_.empty()) return true;
  const std::size_t d = adjacency_.front().size();
  return std::all_of(adjacency_.begin(), adjacency_.end(),
                     [d](const auto& a) { return a.size() == d; });
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (const auto& a : adjacency_) d = std::max(d, a.size());
  return d;
}

bool Graph::is_connected() const {
  if (adjacency_.empty()) return true;
  const auto dist = bfs_distances(0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d < 0; });
}

std::vector<int> Graph::bfs_distances(NodeId from) const {
  QELECT_CHECK(from < adjacency_.size(), "bfs_distances: node out of range");
  std::vector<int> dist(adjacency_.size(), -1);
  // Each node is queued at most once, so a vector read through a head
  // index is the whole queue.
  std::vector<NodeId> queue;
  queue.reserve(adjacency_.size());
  queue.push_back(from);
  dist[from] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId x = queue[head];
    for (const HalfEdge& h : adjacency_[x]) {
      if (dist[h.to] < 0) {
        dist[h.to] = dist[x] + 1;
        queue.push_back(h.to);
      }
    }
  }
  return dist;
}

int Graph::diameter() const {
  if (adjacency_.empty()) return -1;
  int best = 0;
  for (NodeId x = 0; x < adjacency_.size(); ++x) {
    const auto dist = bfs_distances(x);
    for (int d : dist) {
      if (d < 0) return -1;
      best = std::max(best, d);
    }
  }
  return best;
}

Graph Graph::permute_ports(
    const std::vector<std::vector<PortId>>& perms) const {
  QELECT_CHECK(perms.size() == adjacency_.size(),
               "permute_ports: one permutation per node required");
  for (NodeId x = 0; x < adjacency_.size(); ++x) {
    QELECT_CHECK(perms[x].size() == adjacency_[x].size(),
                 "permute_ports: permutation size must equal degree");
    std::vector<bool> used(perms[x].size(), false);
    for (PortId np : perms[x]) {
      QELECT_CHECK(np < used.size() && !used[np],
                   "permute_ports: perms[x] is not a permutation");
      used[np] = true;
    }
  }
  Graph out(adjacency_.size());
  out.edges_.resize(edges_.size());
  for (NodeId x = 0; x < adjacency_.size(); ++x) {
    out.adjacency_[x].resize(adjacency_[x].size());
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& old = edges_[e];
    Edge fresh = old;
    fresh.u_port = perms[old.u][old.u_port];
    fresh.v_port = perms[old.v][old.v_port];
    out.edges_[e] = fresh;
    out.adjacency_[fresh.u][fresh.u_port] = HalfEdge{fresh.v, fresh.v_port, e};
    out.adjacency_[fresh.v][fresh.v_port] = HalfEdge{fresh.u, fresh.u_port, e};
  }
  return out;
}

Graph Graph::relabel_nodes(const std::vector<NodeId>& sigma) const {
  QELECT_CHECK(sigma.size() == adjacency_.size(),
               "relabel_nodes: permutation size mismatch");
  std::vector<bool> used(sigma.size(), false);
  for (NodeId t : sigma) {
    QELECT_CHECK(t < sigma.size() && !used[t],
                 "relabel_nodes: sigma is not a permutation");
    used[t] = true;
  }
  Graph out(adjacency_.size());
  out.edges_.resize(edges_.size());
  for (NodeId x = 0; x < adjacency_.size(); ++x) {
    out.adjacency_[sigma[x]].resize(adjacency_[x].size());
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& old = edges_[e];
    Edge fresh{sigma[old.u], old.u_port, sigma[old.v], old.v_port};
    // Keep loop port invariants: ports carry over unchanged.
    out.edges_[e] = fresh;
    out.adjacency_[fresh.u][fresh.u_port] = HalfEdge{fresh.v, fresh.v_port, e};
    out.adjacency_[fresh.v][fresh.v_port] = HalfEdge{fresh.u, fresh.u_port, e};
  }
  return out;
}

std::string Graph::describe() const {
  std::ostringstream out;
  out << "Graph(n=" << node_count() << ", m=" << edge_count() << ")";
  return out.str();
}

std::vector<std::vector<PortId>> random_port_permutations(const Graph& g,
                                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<PortId>> perms(g.node_count());
  for (NodeId x = 0; x < g.node_count(); ++x) {
    perms[x].resize(g.degree(x));
    std::iota(perms[x].begin(), perms[x].end(), 0u);
    rng.shuffle(perms[x]);
  }
  return perms;
}

std::vector<NodeId> random_node_permutation(std::size_t n,
                                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<NodeId> sigma(n);
  std::iota(sigma.begin(), sigma.end(), 0u);
  rng.shuffle(sigma);
  return sigma;
}

}  // namespace qelect::graph
