// Yamashita-Kameda views of edge-labeled bi-colored networks.
//
// The view V(v) (Theorem 2.1's key tool) is the infinite labeled rooted
// tree of all label-sequenced walks out of v.  Norris's theorem says views
// agree iff they agree to depth n-1, so ~view is decidable; operationally,
// depth-k view equivalence is exactly k rounds of color refinement over the
// arc encoding used by the iso module.  We provide both:
//
//   * an explicit truncated view-tree builder (used by the Figure 2 demos,
//     where the paper reasons about concrete little trees), and
//   * the refinement-based ~view classes used everywhere else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/graph/labeling.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/refinement.hpp"

namespace qelect::views {

using graph::NodeId;
using graph::PortId;

/// A truncated view: the tree of walks of length <= depth from the root.
/// Children are keyed by the (near label, far label) pair of the traversed
/// edge, i.e. what an agent reads when it walks the edge.
struct ViewTree {
  std::uint32_t root_color = 0;  // black/white of the root node
  struct Child {
    std::uint32_t near_label = 0;  // l_x(e) at the parent
    std::uint32_t far_label = 0;   // l_y(e) at the child
    std::shared_ptr<const ViewTree> subtree;
  };
  std::vector<Child> children;  // one per port of the root, in port order
};

/// Builds the depth-`depth` view of `g` from `root` under labeling `l` and
/// bi-coloring `p`.  The subtree below a tree node depends only on (graph
/// node, remaining depth), so the returned tree shares its subtrees: it
/// unrolls to ~deg^depth nodes but holds at most n * (depth + 1).
ViewTree build_view(const graph::Graph& g, const graph::Placement& p,
                    const graph::EdgeLabeling& l, NodeId root,
                    std::size_t depth);

/// Canonical encoding of a truncated view: two views are label-isomorphic
/// iff their encodings are equal (children are sorted recursively, so the
/// encoding is order-independent).  Each shared subtree is encoded once.
std::vector<std::uint64_t> encode_view(const ViewTree& view);

/// The qualitative-world encoding: the canonical form of the view *up to a
/// bijective renaming of edge symbols* (symbols are only testable for
/// equality, so no more information is available to a qualitative agent).
/// Figure 2(b)'s point is reproduced by this function: nodes x and z of the
/// starred path have different exact views but equal qualitative encodings.
/// Supports views mentioning at most 8 distinct symbols (exhaustive
/// minimization over renamings).
std::vector<std::uint64_t> encode_view_qualitative(const ViewTree& view);

/// The paper's Section 2 walk-coding device: "code i the i-th symbol met so
/// far".  Applied to a symbol sequence observed along a walk; both agents
/// of the Figure 2(b) example produce 1,2,3,1 from opposite ends.
std::vector<std::uint32_t> first_seen_code(
    const std::vector<std::uint32_t>& symbols);

/// ~view classes of (G, p, l) via refinement to Norris depth n-1.
/// Classes are the color classes of the returned coloring.
iso::Coloring view_coloring(const graph::Graph& g, const graph::Placement& p,
                            const graph::EdgeLabeling& l);

/// Convenience: groups of mutually view-equivalent nodes.
std::vector<std::vector<NodeId>> view_classes(const graph::Graph& g,
                                              const graph::Placement& p,
                                              const graph::EdgeLabeling& l);

/// The quotient of (G, p, l) by view equivalence: one node per ~view
/// class, with an edge {A, B} for each class-orbit of edges between the
/// classes (parallel edges and loops arise naturally -- the quotient of a
/// 2n-ring by the antipodal symmetry is an n-ring; the quotient of a fully
/// symmetric ring is one node with a loop).  G is a fibration over this
/// quotient with all fibers of size sigma_l(G) -- the structural fact
/// behind Yamashita-Kameda's equal-class-size lemma, checked by the tests.
struct ViewQuotient {
  graph::Graph graph;                    // the quotient graph
  std::vector<NodeId> projection;        // node of G -> quotient node
  std::size_t fiber_size = 0;            // common ~view class size
  /// False when a class has an odd number of within-class ports: the true
  /// quotient then carries a half-edge and cannot be a plain graph (e.g.
  /// K_2 with the same symbol at both ends); `graph` rounds the loop count
  /// down in that case.
  bool realizable = true;
};
ViewQuotient view_quotient(const graph::Graph& g, const graph::Placement& p,
                           const graph::EdgeLabeling& l);

/// The smallest view depth that already determines ~view: the number of
/// refinement rounds needed to reach the fixed point.  Norris guarantees
/// <= n - 1; the bench compares the measured depth with the diameter
/// (the paper quotes Boldi-Vigna's improvement to diameter-scale depths).
std::size_t view_depth_needed(const graph::Graph& g,
                              const graph::Placement& p,
                              const graph::EdgeLabeling& l);

}  // namespace qelect::views
