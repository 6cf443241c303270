// Port-based representation of anonymous networks.
//
// The paper's universe is a connected undirected graph whose nodes are
// unlabeled and whose edges carry, at each endpoint, a locally-distinct
// label (Section 1.2).  The natural data structure is the *port graph*:
// node x exposes deg(x) ports numbered 0..deg(x)-1, and each port leads
// across an edge to a (node, port) pair on the other side.  Port numbers are
// an implementation artifact -- protocols must behave correctly under any
// per-node permutation of them (the adversarial edge-labeling requirement of
// Definition 1.1) -- and the test-suite exercises exactly that via
// permute_ports().
//
// Multigraphs and self-loops are supported because the paper's Figure 2(c)
// counterexample (three nodes, a double edge and a loop) needs them; a loop
// occupies two ports of its node.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qelect/util/assert.hpp"

namespace qelect::graph {

using NodeId = std::uint32_t;
using PortId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// The far side of a port: which node you reach and through which of its
/// ports you enter it, plus the identity of the traversed edge.
struct HalfEdge {
  NodeId to = kInvalidNode;
  PortId to_port = 0;
  EdgeId edge = 0;
  bool operator==(const HalfEdge&) const = default;
};

/// One undirected edge with both endpoints and both port numbers.
struct Edge {
  NodeId u = kInvalidNode;
  PortId u_port = 0;
  NodeId v = kInvalidNode;
  PortId v_port = 0;
  bool is_loop() const { return u == v; }
  bool operator==(const Edge&) const = default;
};

/// Undirected multigraph with per-node port numbering.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  /// Builds a graph on `node_count` nodes from an edge list; ports are
  /// assigned in insertion order at each endpoint.
  static Graph from_edges(std::size_t node_count,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Builds a graph from fully specified edges (endpoints *and* ports).
  /// The ports used at every node must be exactly 0..deg-1.  This is how
  /// Cayley graphs pin port i of every node to generator s_i.
  static Graph from_explicit_edges(std::size_t node_count,
                                   const std::vector<Edge>& edges);

  /// Appends a new isolated node and returns its id.
  NodeId add_node();

  /// Adds an undirected edge {u, v} (u == v makes a loop) and returns its id.
  /// The new edge uses the next free port at each endpoint.
  EdgeId add_edge(NodeId u, NodeId v);

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  // Inline: the simulator and the trace checkers call these on every step.
  std::size_t degree(NodeId x) const {
    QELECT_CHECK(x < adjacency_.size(), "degree: node out of range");
    return adjacency_[x].size();
  }

  /// The far side of port `p` of node `x`.
  const HalfEdge& peer(NodeId x, PortId p) const {
    QELECT_CHECK(x < adjacency_.size(), "peer: node out of range");
    QELECT_CHECK(p < adjacency_[x].size(), "peer: port out of range");
    return adjacency_[x][p];
  }

  const Edge& edge(EdgeId e) const;
  const std::vector<Edge>& edges() const { return edges_; }

  /// All ports of `x` (their far sides), in port order.
  const std::vector<HalfEdge>& ports(NodeId x) const;

  /// True iff there are no loops and no parallel edges.
  bool is_simple() const;

  /// True iff every node has the same degree.
  bool is_regular() const;

  /// The largest degree of any node; 0 for the empty graph.
  std::size_t max_degree() const;

  /// True iff the graph is connected (the empty graph counts as connected).
  bool is_connected() const;

  /// BFS hop distances from `from`; unreachable nodes get -1.
  std::vector<int> bfs_distances(NodeId from) const;

  /// Largest finite eccentricity; -1 if disconnected or empty.
  int diameter() const;

  /// Returns a copy whose node-`x` ports are renumbered by `perms[x]`
  /// (perms[x][old_port] = new_port, a permutation of 0..deg(x)-1).
  /// Used to exercise protocols under adversarial port assignments.
  Graph permute_ports(const std::vector<std::vector<PortId>>& perms) const;

  /// Returns an isomorphic copy under the node relabeling `sigma`
  /// (sigma[old] = new); edge and port structure follows the mapping.
  Graph relabel_nodes(const std::vector<NodeId>& sigma) const;

  /// Structural equality: same node count, same port structure.
  bool operator==(const Graph&) const = default;

  /// Human-readable summary for diagnostics.
  std::string describe() const;

 private:
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::vector<Edge> edges_;
};

/// Generates, for every node, a random permutation of its ports; feeding the
/// result to Graph::permute_ports yields the same topology under a different
/// (adversarial) local edge-labeling.
std::vector<std::vector<PortId>> random_port_permutations(const Graph& g,
                                                          std::uint64_t seed);

/// A uniformly random node relabeling for iso-invariance tests.
std::vector<NodeId> random_node_permutation(std::size_t n, std::uint64_t seed);

}  // namespace qelect::graph
