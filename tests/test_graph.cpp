// Unit tests for the graph module: port-graph invariants, families, the
// Figure 2 example constructions, labelings, and placements.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "qelect/campaign/workloads.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/graph.hpp"
#include "qelect/graph/labeling.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::graph {
namespace {

// Every port's peer must point back: peer(peer(x, p)) == (x, p).
void expect_port_involution(const Graph& g) {
  for (NodeId x = 0; x < g.node_count(); ++x) {
    for (PortId p = 0; p < g.degree(x); ++p) {
      const HalfEdge& h = g.peer(x, p);
      const HalfEdge& back = g.peer(h.to, h.to_port);
      EXPECT_EQ(back.to, x);
      EXPECT_EQ(back.to_port, p);
      EXPECT_EQ(back.edge, h.edge);
    }
  }
}

TEST(Graph, AddEdgeAssignsSequentialPorts) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.peer(0, 0).to, 1u);
  EXPECT_EQ(g.peer(0, 1).to, 2u);
  expect_port_involution(g);
}

TEST(Graph, LoopOccupiesTwoPorts) {
  Graph g(1);
  g.add_edge(0, 0);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.peer(0, 0).to, 0u);
  EXPECT_EQ(g.peer(0, 0).to_port, 1u);
  EXPECT_FALSE(g.is_simple());
  expect_port_involution(g);
}

TEST(Graph, ParallelEdgesSupported) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_FALSE(g.is_simple());
  expect_port_involution(g);
}

TEST(Graph, BfsAndDiameter) {
  const Graph g = ring(6);
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
  EXPECT_EQ(g.diameter(), 3);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, DisconnectedDetected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  EXPECT_EQ(g.diameter(), -1);
}

TEST(Graph, FromExplicitEdgesRoundTrip) {
  const Graph g = hypercube(3);
  Graph h = Graph::from_explicit_edges(g.node_count(), g.edges());
  EXPECT_EQ(g, h);
}

TEST(Graph, FromExplicitEdgesRejectsPortGaps) {
  // Node 0 uses port 1 but never port 0.
  EXPECT_THROW(Graph::from_explicit_edges(
                   2, {Edge{0, 1, 1, 0}}),
               CheckError);
}

TEST(Graph, FromExplicitEdgesNamesEachRejection) {
  const auto error_of = [](std::size_t n, const std::vector<Edge>& edges) {
    try {
      Graph::from_explicit_edges(n, edges);
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto names = [](const std::string& error, const char* what) {
    return error.find(what) != std::string::npos;
  };
  EXPECT_PRED2(names, error_of(2, {Edge{0, 0, 2, 0}}),
               "from_explicit_edges: endpoint out of range");
  // Port 0 of node 0 twice.
  EXPECT_PRED2(names, error_of(3, {Edge{0, 0, 1, 0}, Edge{0, 0, 2, 0}}),
               "from_explicit_edges: duplicate port assignment");
  // A loop holds ports 0 and 1 of node 0; the second edge claims port 1.
  EXPECT_PRED2(names, error_of(2, {Edge{0, 0, 0, 1}, Edge{0, 1, 1, 0}}),
               "from_explicit_edges: duplicate port assignment");
  // Node 0 uses port 1 but never port 0.
  EXPECT_PRED2(names, error_of(2, {Edge{0, 1, 1, 0}}),
               "from_explicit_edges: port gap at a node");
}

TEST(Graph, PermutePortsPreservesTopology) {
  const Graph g = petersen();
  const auto perms = random_port_permutations(g, 99);
  const Graph h = g.permute_ports(perms);
  EXPECT_EQ(h.node_count(), g.node_count());
  EXPECT_EQ(h.edge_count(), g.edge_count());
  expect_port_involution(h);
  // Same multiset of neighbor sets.
  for (NodeId x = 0; x < g.node_count(); ++x) {
    std::multiset<NodeId> a, b;
    for (PortId p = 0; p < g.degree(x); ++p) {
      a.insert(g.peer(x, p).to);
      b.insert(h.peer(x, p).to);
    }
    EXPECT_EQ(a, b);
  }
}

TEST(Graph, PermutePortsRejectsNonPermutation) {
  const Graph g = ring(4);
  auto perms = random_port_permutations(g, 1);
  perms[0][0] = perms[0][1];
  EXPECT_THROW(g.permute_ports(perms), CheckError);
}

TEST(Graph, RelabelNodesIsIsomorphicCopy) {
  const Graph g = cube_connected_cycles(3);
  const auto sigma = random_node_permutation(g.node_count(), 5);
  const Graph h = g.relabel_nodes(sigma);
  expect_port_involution(h);
  EXPECT_EQ(h.edge_count(), g.edge_count());
  for (NodeId x = 0; x < g.node_count(); ++x) {
    EXPECT_EQ(h.degree(sigma[x]), g.degree(x));
    for (PortId p = 0; p < g.degree(x); ++p) {
      EXPECT_EQ(h.peer(sigma[x], p).to, sigma[g.peer(x, p).to]);
    }
  }
}

TEST(Families, RingBasics) {
  const Graph g = ring(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_TRUE(g.is_simple());
  EXPECT_THROW(ring(2), CheckError);
}

TEST(Families, HypercubePortsFlipBits) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.edge_count(), 32u);
  for (NodeId x = 0; x < g.node_count(); ++x) {
    for (PortId p = 0; p < 4; ++p) {
      EXPECT_EQ(g.peer(x, p).to, x ^ (1u << p));
      EXPECT_EQ(g.peer(x, p).to_port, p);
    }
  }
}

TEST(Families, TorusDegreesAndSize) {
  const Graph g = torus({3, 4});
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(g.is_simple());
  // Side length 2 halves that axis' degree contribution.
  const Graph h = torus({2, 3});
  EXPECT_EQ(h.degree(0), 3u);
  EXPECT_TRUE(h.is_simple());
}

TEST(Families, CompleteAndStar) {
  EXPECT_EQ(complete(5).edge_count(), 10u);
  EXPECT_EQ(star(7).node_count(), 8u);
  EXPECT_EQ(star(7).degree(0), 7u);
  EXPECT_EQ(complete_bipartite(2, 3).edge_count(), 6u);
}

TEST(Families, PetersenIsThreeRegularGirth5) {
  const Graph g = petersen();
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_EQ(g.diameter(), 2);
  // Strongly regular (10, 3, 0, 1): adjacent pairs share 0 neighbors.
  for (const Edge& e : g.edges()) {
    std::set<NodeId> nu, nv;
    for (PortId p = 0; p < 3; ++p) {
      nu.insert(g.peer(e.u, p).to);
      nv.insert(g.peer(e.v, p).to);
    }
    std::vector<NodeId> common;
    std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                          std::back_inserter(common));
    EXPECT_TRUE(common.empty());
  }
}

TEST(Families, CccStructure) {
  const Graph g = cube_connected_cycles(3);
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Families, CirculantDegrees) {
  const Graph g = circulant(8, {1, 2});
  EXPECT_EQ(g.degree(0), 4u);
  // Antipodal offset contributes a single edge.
  const Graph h = circulant(8, {4});
  EXPECT_EQ(h.degree(0), 1u);
  EXPECT_EQ(h.edge_count(), 4u);
}

TEST(Families, RandomConnectedIsConnected) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_TRUE(random_connected(12, 0.2, seed).is_connected());
  }
}

TEST(Families, RandomTreeHasNMinus1Edges) {
  const Graph g = random_tree(20, 3);
  EXPECT_EQ(g.edge_count(), 19u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Families, Figure2cMatchesPaper) {
  const Fig2cExample ex = figure2c();
  EXPECT_EQ(ex.graph.node_count(), 3u);
  EXPECT_EQ(ex.graph.edge_count(), 6u);  // 3 ring + 2 parallel + 1 loop
  EXPECT_TRUE(ex.labeling.locally_distinct(ex.graph));
  // Every node has degree 4 (ring 2 + mess 2).
  for (NodeId x = 0; x < 3; ++x) EXPECT_EQ(ex.graph.degree(x), 4u);
}

TEST(Families, Figure2PathLabelings) {
  const Fig2PathExample ex = figure2_path();
  EXPECT_TRUE(ex.quantitative.locally_distinct(ex.graph));
  EXPECT_TRUE(ex.qualitative.locally_distinct(ex.graph));
  EXPECT_EQ(ex.quantitative.alphabet_size(), 2u);
  EXPECT_EQ(ex.qualitative.alphabet_size(), 3u);
}

TEST(Labeling, FromPortsIsLocallyDistinct) {
  const Graph g = petersen();
  EXPECT_TRUE(EdgeLabeling::from_ports(g).locally_distinct(g));
}

TEST(Labeling, EnumerateCountsForTinyGraphs) {
  // P2: one edge, each endpoint picks one of `alphabet` symbols.
  const Graph p2 = path(2);
  EXPECT_EQ(enumerate_labelings(p2, 2).size(), 4u);
  // P3: middle node needs 2 distinct of 2 (2 ways), ends free (2 each).
  const Graph p3 = path(3);
  EXPECT_EQ(enumerate_labelings(p3, 2).size(), 2u * 2u * 2u);
  EXPECT_THROW(enumerate_labelings(star(3), 2), CheckError);
  // The degree check comes before the first visit.
  std::size_t calls = 0;
  EXPECT_THROW(for_each_labeling(star(3), 2,
                                 [&](const EdgeLabeling&) {
                                   ++calls;
                                   return false;
                                 }),
               CheckError);
  EXPECT_EQ(calls, 0u);
}

TEST(Labeling, ForEachVisitsEveryLabelingInEnumerationOrder) {
  // Depth first over the (node, port) slots in order: the symbols read in
  // that slot order strictly increase from one labeling to the next.
  // figure2c() is a multigraph with a loop, whose two ports count toward
  // its node's degree like any other pair of ports.
  for (const Graph& g : {ring(4), star(3), figure2c().graph}) {
    const std::size_t alphabet = g.max_degree();
    std::vector<EdgeLabeling> visited;
    std::vector<Symbol> previous;
    EXPECT_FALSE(for_each_labeling(g, alphabet, [&](const EdgeLabeling& l) {
      EXPECT_TRUE(l.locally_distinct(g));
      std::vector<Symbol> slots;
      for (NodeId x = 0; x < g.node_count(); ++x) {
        for (PortId p = 0; p < g.degree(x); ++p) slots.push_back(l.at(x, p));
      }
      EXPECT_TRUE(visited.empty() || previous < slots) << g.describe();
      previous = std::move(slots);
      visited.push_back(l);
      return false;
    }));
    EXPECT_EQ(static_cast<double>(visited.size()),
              campaign::labeling_count(g, alphabet))
        << g.describe();
    EXPECT_EQ(visited, enumerate_labelings(g, alphabet)) << g.describe();
  }
}

TEST(Labeling, ForEachStopsAtFirstTrue) {
  const Graph g = ring(4);
  const std::vector<EdgeLabeling> all = enumerate_labelings(g, 2);
  ASSERT_GT(all.size(), 5u);
  std::size_t calls = 0;
  EXPECT_TRUE(for_each_labeling(g, 2, [&](const EdgeLabeling& l) {
    EXPECT_EQ(l, all[calls]);
    return ++calls == 5;
  }));
  EXPECT_EQ(calls, 5u);
}

TEST(Placement, BasicsAndColors) {
  const Placement p(5, {1, 3});
  EXPECT_TRUE(p.is_home_base(1));
  EXPECT_FALSE(p.is_home_base(0));
  EXPECT_EQ(p.agent_count(), 2u);
  const auto colors = p.node_colors();
  EXPECT_EQ(colors, (std::vector<std::uint32_t>{0, 1, 0, 1, 0}));
  EXPECT_THROW(Placement(3, {0, 0}), CheckError);
  EXPECT_THROW(Placement(3, {5}), CheckError);
}

TEST(Placement, EnumerateCombinations) {
  EXPECT_EQ(enumerate_placements(5, 2).size(), 10u);
  EXPECT_EQ(enumerate_placements(4, 0).size(), 1u);
  EXPECT_EQ(enumerate_placements(4, 4).size(), 1u);
}

TEST(Placement, RelabelFollowsSigma) {
  const Placement p(4, {0, 2});
  const std::vector<NodeId> sigma{3, 2, 1, 0};
  const Placement q = p.relabel(sigma);
  EXPECT_TRUE(q.is_home_base(3));
  EXPECT_TRUE(q.is_home_base(1));
  EXPECT_FALSE(q.is_home_base(0));
}

TEST(Placement, RandomPlacementValid) {
  const Placement p = random_placement(10, 4, 77);
  EXPECT_EQ(p.agent_count(), 4u);
}

}  // namespace
}  // namespace qelect::graph
