// The common input shape of the isomorphism machinery.
//
// Every morphism the paper reasons about -- color-preserving automorphisms
// (Definition 2.1), label-preserving automorphisms (Definition 2.2),
// isomorphisms of surroundings (Definition 3.1), view isomorphisms -- is an
// isomorphism of a *node-colored, arc-labeled digraph*:
//
//   * a bi-colored graph (G, p) maps to arcs in both directions, labels 0;
//   * an edge-labeled graph maps edge {x,y} to arc x->y labeled with the
//     pair (l_x(e), l_y(e)) and arc y->x labeled (l_y(e), l_x(e));
//   * a surrounding S(u) maps to its defining arcs;
//   * views are handled by refinement over the same arc encoding.
//
// So the engine below works on one structure and everything else converts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/graph/labeling.hpp"
#include "qelect/graph/placement.hpp"

namespace qelect::iso {

using graph::NodeId;

/// One directed arc with a 64-bit structural label.
struct Arc {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t label = 0;
  auto operator<=>(const Arc&) const = default;
};

/// Node-colored, arc-labeled digraph; the engine's sole input type.
///
/// The arcs are stored once in CSR form: arcs() sorted by (from, to,
/// label) with per-node offsets, plus one copy sorted by (to, from, label)
/// with its own offsets.  out_arcs(x) and in_arcs(x) are spans into those
/// two arrays, valid as long as the digraph, so a digraph costs a handful
/// of allocations however many nodes it has.
class ColoredDigraph {
 public:
  ColoredDigraph() = default;
  ColoredDigraph(std::size_t n, std::vector<std::uint32_t> node_colors,
                 std::vector<Arc> arcs);

  std::size_t node_count() const { return colors_.size(); }
  std::uint32_t color(NodeId x) const { return colors_[x]; }
  const std::vector<std::uint32_t>& colors() const { return colors_; }
  /// Every arc, sorted by (from, to, label).
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Out-arcs of x, sorted by (to, label).
  std::span<const Arc> out_arcs(NodeId x) const {
    return {arcs_.data() + offsets_[x], arcs_.data() + offsets_[x + 1]};
  }
  /// In-arcs of x, sorted by (from, label).
  std::span<const Arc> in_arcs(NodeId x) const {
    const std::size_t n1 = colors_.size() + 1;
    return {in_arcs_.data() + offsets_[n1 + x],
            in_arcs_.data() + offsets_[n1 + x + 1]};
  }

  /// Returns the digraph obtained by renaming nodes with sigma
  /// (sigma[old] = new) and re-normalizing arc order.
  ColoredDigraph relabel(const std::vector<NodeId>& sigma) const;

  /// The same digraph with node x's color replaced by a fresh color that no
  /// other node has (individualization).
  ColoredDigraph individualize(NodeId x) const;

  /// Equal node colors and arcs (the rest is derived from those).
  bool operator==(const ColoredDigraph& other) const {
    return colors_ == other.colors_ && arcs_ == other.arcs_;
  }

 private:
  std::vector<std::uint32_t> colors_;
  std::vector<Arc> arcs_;     // sorted by (from, to, label)
  std::vector<Arc> in_arcs_;  // sorted by (to, from, label)
  // n + 1 offsets into arcs_ by source, then n + 1 into in_arcs_ by target.
  std::vector<std::uint32_t> offsets_;
};

/// Packs the two endpoint labels of an undirected labeled edge into one arc
/// label (out-label in the high half).
std::uint64_t pack_edge_labels(std::uint32_t out_label, std::uint32_t in_label);

/// Bi-colored graph (G, p) as a digraph: both arc directions, labels 0.
ColoredDigraph from_bicolored_graph(const graph::Graph& g,
                                    const graph::Placement& p);

/// Node-colored graph with explicit colors.
ColoredDigraph from_colored_graph(const graph::Graph& g,
                                  const std::vector<std::uint32_t>& colors);

/// Edge-labeled bi-colored graph: arcs carry packed endpoint-label pairs, so
/// isomorphisms of the result are exactly the label- and color-preserving
/// morphisms of Definition 2.2.
ColoredDigraph from_labeled_graph(const graph::Graph& g,
                                  const graph::Placement& p,
                                  const graph::EdgeLabeling& l);

}  // namespace qelect::iso
