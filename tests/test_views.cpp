// Tests for views and symmetricity, anchored on the paper's Figure 2
// examples and Yamashita-Kameda facts.
#include <gtest/gtest.h>

#include "qelect/graph/families.hpp"
#include "qelect/group/cayley_graph.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/views/symmetricity.hpp"
#include "qelect/views/views.hpp"

namespace qelect::views {
namespace {

using graph::EdgeLabeling;
using graph::Placement;

TEST(Views, Fig2aQuantitativeViewsAllDiffer) {
  // Figure 2(a): with the integer labeling 1,1 / 2,1 all three views
  // differ, so a quantitative agent can order them and elect.
  const auto ex = graph::figure2_path();
  const Placement p = Placement::empty(3);
  const auto vx = encode_view(build_view(ex.graph, p, ex.quantitative, 0, 3));
  const auto vy = encode_view(build_view(ex.graph, p, ex.quantitative, 1, 3));
  const auto vz = encode_view(build_view(ex.graph, p, ex.quantitative, 2, 3));
  EXPECT_NE(vx, vy);
  EXPECT_NE(vy, vz);
  EXPECT_NE(vx, vz);
}

TEST(Views, Fig2bQualitativeEndsBecomeIndistinguishable) {
  // Figure 2(b): with symbols *, o, bullet the *exact* views of x and z
  // still differ, but up to symbol renaming they coincide -- the paper's
  // "election cannot be performed by just sorting the views".
  const auto ex = graph::figure2_path();
  const Placement p = Placement::empty(3);
  const auto vx = build_view(ex.graph, p, ex.qualitative, 0, 3);
  const auto vz = build_view(ex.graph, p, ex.qualitative, 2, 3);
  EXPECT_NE(encode_view(vx), encode_view(vz));
  EXPECT_EQ(encode_view_qualitative(vx), encode_view_qualitative(vz));
  // y remains distinguishable even qualitatively (it has degree 2).
  const auto vy = build_view(ex.graph, p, ex.qualitative, 1, 3);
  EXPECT_NE(encode_view_qualitative(vy), encode_view_qualitative(vx));
}

TEST(Views, Fig2bWalkCodingCollides) {
  // The walk device: agent from x sees *, o, bullet, * => 1,2,3,1; agent
  // from z sees *, bullet, o, * => also 1,2,3,1.
  const std::vector<std::uint32_t> from_x{10, 11, 12, 10};
  const std::vector<std::uint32_t> from_z{10, 12, 11, 10};
  EXPECT_NE(from_x, from_z);
  EXPECT_EQ(first_seen_code(from_x), first_seen_code(from_z));
  EXPECT_EQ(first_seen_code(from_x),
            (std::vector<std::uint32_t>{1, 2, 3, 1}));
}

TEST(Views, Fig2cAllNodesShareOneView) {
  // Figure 2(c): the 3-node multigraph where all views coincide although
  // the ~lab classes are singletons (the converse of Equation 1 fails).
  const auto ex = graph::figure2c();
  const Placement p = Placement::empty(3);
  const auto classes = view_classes(ex.graph, p, ex.labeling);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].size(), 3u);
  const auto lab = label_class_sizes(ex.graph, p, ex.labeling);
  EXPECT_EQ(lab, (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Views, ExplicitTreeMatchesRefinementOnPaths) {
  // Depth-(n-1) explicit views and the refinement fixed point must induce
  // the same partition (Norris).
  const graph::Graph g = graph::path(6);
  const Placement p = Placement::empty(6);
  const EdgeLabeling l = EdgeLabeling::from_ports(g);
  const auto classes = view_classes(g, p, l);
  // Explicit check: same class <=> equal encoded depth-(n-1) views.
  for (graph::NodeId a = 0; a < 6; ++a) {
    for (graph::NodeId b = 0; b < 6; ++b) {
      const bool same_class = [&] {
        for (const auto& c : classes) {
          const bool ina = std::find(c.begin(), c.end(), a) != c.end();
          const bool inb = std::find(c.begin(), c.end(), b) != c.end();
          if (ina || inb) return ina && inb;
        }
        return false;
      }();
      const bool same_view =
          encode_view(build_view(g, p, l, a, 5)) ==
          encode_view(build_view(g, p, l, b, 5));
      EXPECT_EQ(same_class, same_view) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Symmetricity, UniformRingLabelingIsFullySymmetric) {
  // The clockwise/counterclockwise labeling of C_n has sigma = n.
  const group::CayleyGraph cg = group::cayley_ring(6);
  const auto l = cg.natural_labeling();
  EXPECT_EQ(symmetricity_of_labeling(cg.graph, Placement::empty(6), l), 6u);
}

TEST(Symmetricity, PortsLabelingOfPathIsAsymmetric) {
  const graph::Graph g = graph::path(4);
  const EdgeLabeling l = EdgeLabeling::from_ports(g);
  // Port labeling of a path: end nodes both have the label-0 edge, but the
  // interior structure separates everything at fixed point... compute and
  // sanity-check the YK equal-size invariant holds.
  const std::size_t sigma =
      symmetricity_of_labeling(g, Placement::empty(4), l);
  EXPECT_GE(sigma, 1u);
  EXPECT_EQ(4 % sigma, 0u);
}

TEST(Symmetricity, K2HasSigma2) {
  // K_2: both labelings (same symbol both sides or not) keep the two nodes
  // symmetric when the symbols agree; max symmetricity is 2.
  const graph::Graph k2 = graph::complete(2);
  EXPECT_EQ(max_symmetricity_exhaustive(k2, Placement::empty(2), 2), 2u);
}

TEST(Symmetricity, PathMaxSymmetricityIsNontrivial) {
  // P_2 with both agents black: the symmetric labeling keeps sigma = 2,
  // proving election impossible on (K_2, both agents) -- the paper's basic
  // counterexample.
  const graph::Graph k2 = graph::complete(2);
  const Placement p(2, {0, 1});
  EXPECT_EQ(max_symmetricity_exhaustive(k2, p, 2), 2u);
  EXPECT_TRUE(exists_labeling_with_all_classes_nontrivial(k2, p, 2));
}

TEST(Symmetricity, StarIsAlwaysAsymmetric) {
  // A star with the agent at the center: no labeling hides the center.
  const graph::Graph g = graph::star(3);
  const Placement p(4, {0});
  EXPECT_FALSE(exists_labeling_with_all_classes_nontrivial(g, p, 3));
}

TEST(Symmetricity, RingWithTwoAntipodalAgentsIsObstructed) {
  // (C_4, {0, 2}): the natural labeling leaves a fixed-point-free
  // label-preserving automorphism; Theorem 2.1 applies.
  const graph::Graph g = graph::ring(4);
  const Placement p(4, {0, 2});
  EXPECT_TRUE(exists_labeling_with_all_classes_nontrivial(g, p, 2));
}

TEST(Symmetricity, RingWithAdjacentAgentsIsObstructed) {
  // The documented Theorem 4.1 gap instance (C_4, {0, 1}): obstructed even
  // though the Z_4 translation classes are singletons.
  const graph::Graph g = graph::ring(4);
  const Placement p(4, {0, 1});
  EXPECT_TRUE(exists_labeling_with_all_classes_nontrivial(g, p, 2));
}

TEST(Symmetricity, LabelWalkRejectsInputsThatDoNotFit) {
  const graph::Graph g = graph::ring(4);
  const EdgeLabeling l = EdgeLabeling::from_ports(g);
  EXPECT_THROW(label_classes_all_nontrivial(g, Placement::empty(5), l),
               CheckError);
  EXPECT_THROW(label_classes_all_nontrivial(
                   g, Placement::empty(4),
                   EdgeLabeling::from_ports(graph::ring(5))),
               CheckError);
  EdgeLabeling clash = l;
  clash.set(0, 1, clash.at(0, 0));
  EXPECT_THROW(label_classes_all_nontrivial(g, Placement::empty(4), clash),
               CheckError);
}

TEST(Symmetricity, LabelClassesRefineViewClasses) {
  // x ~lab y => x ~view y (Equation 1) on a spread of labelings.
  const graph::Graph g = graph::ring(6);
  const Placement p(6, {0, 2});
  int checked = 0;
  for (const auto& l : graph::enumerate_labelings(g, 2)) {
    const auto lab_classes = label_equivalence_classes(g, p, l);
    const auto coloring = view_coloring(g, p, l);
    for (const auto& cls : lab_classes) {
      for (graph::NodeId x : cls) {
        EXPECT_EQ(coloring[x], coloring[cls.front()]);
      }
    }
    if (++checked >= 32) break;  // spread, not exhaustive: runtime bound
  }
  EXPECT_GE(checked, 32);
}

TEST(YkLeader, ExistsExactlyWhenSigmaIsOne) {
  const graph::Graph g = graph::ring(4);
  const Placement p(4, {0});
  for (const auto& l : graph::enumerate_labelings(g, 2)) {
    const auto leader = yk_quantitative_leader(g, p, l);
    const std::size_t sigma = symmetricity_of_labeling(g, p, l);
    EXPECT_EQ(leader.has_value(), sigma == 1);
  }
}

TEST(YkLeader, InvariantUnderRelabeling) {
  // The elected node must follow any isomorphism: every processor computes
  // the same leader regardless of the hidden node numbering.
  const graph::Graph g = graph::path(5);
  const Placement p(5, {1});
  const auto l = graph::EdgeLabeling::from_ports(g);
  const auto leader = yk_quantitative_leader(g, p, l);
  ASSERT_TRUE(leader.has_value());
  // Apply a node relabeling; the labeling must be transported too.  For a
  // path with port labeling, reversing the node order transports ports to
  // the mirrored node; rebuild from scratch instead: the mirrored path has
  // the same structure, so the leader's *view* must be the mirror image.
  const std::vector<graph::NodeId> sigma{4, 3, 2, 1, 0};
  const graph::Graph h = g.relabel_nodes(sigma);
  graph::EdgeLabeling lh = graph::EdgeLabeling::zeros(h);
  for (graph::NodeId x = 0; x < 5; ++x) {
    for (graph::PortId q = 0; q < g.degree(x); ++q) {
      lh.set(sigma[x], q, l.at(x, q));
    }
  }
  const auto leader_h = yk_quantitative_leader(h, p.relabel(sigma), lh);
  ASSERT_TRUE(leader_h.has_value());
  EXPECT_EQ(*leader_h, sigma[*leader]);
}

TEST(YkLeader, SymmetricRingHasNoLeader) {
  const auto cg = group::cayley_ring(6);
  EXPECT_FALSE(yk_quantitative_leader(cg.graph, Placement::empty(6),
                                      cg.natural_labeling())
                   .has_value());
}

}  // namespace
}  // namespace qelect::views
