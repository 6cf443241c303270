// Exact keys for the memo caches of pure per-structure computations.
//
// protocol_plan, the batch plan, Cayley recognition and route are pure
// functions of the port structure of a graph (plus, for plans, the
// home-base set), and the hot callers -- an ELECT agent re-deriving its
// class plan every run, goto_node re-running BFS for every leg -- hand
// them the *same* structures over and over: an agent's map of a fixed
// instance is identical across runs.  Their util::LruCaches key on the
// exact port structure, so a hit is guaranteed to return the very value
// the uncached computation would have produced (byte-identical traces;
// the golden gate in tests/test_golden_sim.cpp holds this).
#pragma once

#include <cstdint>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/graph/placement.hpp"

namespace qelect::core::detail {

using StructureKey = std::vector<std::uint64_t>;

/// The full port structure of `g`: node count, then each node's degree
/// and the far side of each of its ports.
inline StructureKey structure_key(const graph::Graph& g) {
  StructureKey key;
  key.push_back(g.node_count());
  for (graph::NodeId x = 0; x < g.node_count(); ++x) {
    key.push_back(g.degree(x));
    for (graph::PortId p = 0; p < g.degree(x); ++p) {
      const graph::HalfEdge& h = g.peer(x, p);
      key.push_back((static_cast<std::uint64_t>(h.to) << 32) | h.to_port);
    }
  }
  return key;
}

/// structure_key(g), a separator no structure word reaches (2^64 - 1),
/// then the home bases.
inline StructureKey structure_key(const graph::Graph& g,
                                  const graph::Placement& p) {
  StructureKey key = structure_key(g);
  key.push_back(~std::uint64_t{0});
  for (const graph::NodeId base : p.home_bases()) key.push_back(base);
  return key;
}

}  // namespace qelect::core::detail
