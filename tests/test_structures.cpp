// Tests for the extended structural toolkit: generalized Petersen graphs,
// the wrapped butterfly, view depths (Norris), and graph IO.
#include <gtest/gtest.h>

#include <map>

#include "qelect/cayley/recognition.hpp"
#include "qelect/cayley/translation.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/io.hpp"
#include "qelect/iso/automorphism.hpp"
#include "qelect/iso/canonical.hpp"
#include "qelect/iso/colored_digraph.hpp"
#include "qelect/iso/enumerate.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/views/views.hpp"

namespace qelect {
namespace {

using graph::Placement;

iso::Certificate cert_of(const graph::Graph& g) {
  return iso::canonical_certificate(
      iso::from_bicolored_graph(g, Placement::empty(g.node_count())));
}

TEST(GeneralizedPetersen, GP52IsThePetersenGraph) {
  EXPECT_EQ(cert_of(graph::generalized_petersen(5, 2)),
            cert_of(graph::petersen()));
}

TEST(GeneralizedPetersen, GP41IsTheCube) {
  EXPECT_EQ(cert_of(graph::generalized_petersen(4, 1)),
            cert_of(graph::hypercube(3)));
}

TEST(GeneralizedPetersen, MoebiusKantorIsCayley) {
  // GP(8, 3): 16 nodes, vertex-transitive AND Cayley (k^2 = 9 = 1 mod 8).
  const graph::Graph g = graph::generalized_petersen(8, 3);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_TRUE(g.is_regular());
  const auto rec = cayley::recognize_cayley(g);
  EXPECT_TRUE(rec.is_cayley);
  EXPECT_TRUE(iso::is_vertex_transitive(
      iso::from_bicolored_graph(g, Placement::empty(16))));
}

TEST(GeneralizedPetersen, GP72IsNotVertexTransitive) {
  // k^2 = 4 is neither +1 nor -1 mod 7: inner and outer rims differ.
  const graph::Graph g = graph::generalized_petersen(7, 2);
  EXPECT_FALSE(iso::is_vertex_transitive(
      iso::from_bicolored_graph(g, Placement::empty(14))));
  EXPECT_FALSE(cayley::recognize_cayley(g).is_cayley);
}

TEST(GeneralizedPetersen, DesarguesIsVertexTransitive) {
  // GP(10, 3): the Desargues graph (k^2 = 9 = -1 mod 10).
  const graph::Graph g = graph::generalized_petersen(10, 3);
  EXPECT_TRUE(iso::is_vertex_transitive(
      iso::from_bicolored_graph(g, Placement::empty(20))));
}

TEST(GeneralizedPetersen, ParameterValidation) {
  EXPECT_THROW(graph::generalized_petersen(4, 2), CheckError);  // k = n/2
  EXPECT_THROW(graph::generalized_petersen(5, 0), CheckError);
}

TEST(WrappedButterfly, Structure) {
  const graph::Graph g = graph::wrapped_butterfly(3);
  EXPECT_EQ(g.node_count(), 24u);
  EXPECT_EQ(g.edge_count(), 48u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(g.is_simple());
  // Vertex-transitive (it is a Cayley graph of a wreath-type group).
  EXPECT_TRUE(iso::is_vertex_transitive(
      iso::from_bicolored_graph(g, Placement::empty(24))));
}

TEST(WrappedButterfly, RejectsDegenerateDimensions) {
  EXPECT_THROW(graph::wrapped_butterfly(2), CheckError);
}

TEST(ViewDepth, NorrisBoundHolds) {
  struct Case {
    graph::Graph g;
  };
  for (const graph::Graph& g :
       {graph::path(7), graph::ring(8), graph::petersen(),
        graph::hypercube(3), graph::star(5),
        graph::random_connected(12, 0.3, 3)}) {
    const Placement p = Placement::empty(g.node_count());
    const auto l = graph::EdgeLabeling::from_ports(g);
    const std::size_t depth = views::view_depth_needed(g, p, l);
    EXPECT_LE(depth, g.node_count() - 1) << g.describe();
    // Definition check: depth rounds reach the fixed point, depth-1 do not.
    const auto d = iso::from_labeled_graph(g, p, l);
    const auto fixed = iso::refine(d);
    EXPECT_EQ(iso::refine_rounds(d, d.colors(), depth), fixed);
    if (depth > 0) {
      EXPECT_NE(iso::refine_rounds(d, d.colors(), depth - 1), fixed);
    }
  }
}

TEST(ViewDepth, SymmetricLabelingNeedsZeroRounds) {
  // The natural ring labeling keeps all views identical: the initial
  // (uncolored) partition is already stable.
  const auto cg = group::cayley_ring(8);
  EXPECT_EQ(views::view_depth_needed(cg.graph,
                                     Placement::empty(8),
                                     cg.natural_labeling()),
            0u);
}

TEST(ViewDepth, PathDepthGrowsWithLength) {
  const auto depth_of = [](std::size_t n) {
    const graph::Graph g = graph::path(n);
    return views::view_depth_needed(g, Placement::empty(n),
                                    graph::EdgeLabeling::from_ports(g));
  };
  EXPECT_LT(depth_of(4), depth_of(10));
}

TEST(GraphIo, EdgeListRoundTrip) {
  for (const graph::Graph& g :
       {graph::petersen(), graph::figure2c().graph,
        graph::random_connected(9, 0.4, 8)}) {
    const graph::Graph back = graph::from_edge_list(graph::to_edge_list(g));
    EXPECT_EQ(back, g) << g.describe();
  }
}

TEST(GraphIo, ParsesCommentsAndWhitespace) {
  const graph::Graph g = graph::from_edge_list(
      "# a triangle\n n 3 \n\n e 0 1  # first\n e 1 2\n e 2 0\n");
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_THROW(graph::from_edge_list("e 0 1\n"), CheckError);   // e before n
  EXPECT_THROW(graph::from_edge_list("n 2\ne 0 5\n"), CheckError);
  EXPECT_THROW(graph::from_edge_list("n 2\nx 0 1\n"), CheckError);
  EXPECT_THROW(graph::from_edge_list(""), CheckError);
  EXPECT_THROW(graph::from_edge_list("n 2\nn 3\n"), CheckError);
}

TEST(GraphIo, DotExportMentionsHomeBases) {
  const graph::Graph g = graph::ring(4);
  const Placement p(4, {1});
  const std::string dot = graph::to_dot(g, &p);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=black"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

TEST(ViewQuotient, SymmetricRingCollapsesToOneLoopNode) {
  const auto cg = group::cayley_ring(8);
  const auto q = views::view_quotient(cg.graph, Placement::empty(8),
                                      cg.natural_labeling());
  EXPECT_EQ(q.graph.node_count(), 1u);
  EXPECT_EQ(q.graph.edge_count(), 1u);  // a single loop: degree 2 preserved
  EXPECT_EQ(q.fiber_size, 8u);
  EXPECT_TRUE(q.realizable);
  EXPECT_EQ(q.graph.degree(0), 2u);
}

TEST(ViewQuotient, AsymmetricLabelingIsIdentityQuotient) {
  const graph::Graph g = graph::path(5);
  const auto q = views::view_quotient(g, Placement::empty(5),
                                      graph::EdgeLabeling::from_ports(g));
  // Port labeling of a path separates... compute: fiber size must be 1 and
  // the quotient isomorphic to the path itself if all views distinct.
  if (q.fiber_size == 1) {
    EXPECT_EQ(q.graph.node_count(), 5u);
    EXPECT_EQ(q.graph.edge_count(), 4u);
  }
  // Fibration law regardless: n = fiber * quotient nodes.
  EXPECT_EQ(q.fiber_size * q.graph.node_count(), 5u);
}

TEST(ViewQuotient, DegreePreservedOnRealizableQuotients) {
  // C_6 with a labeling making antipodal nodes view-equivalent: the
  // natural labeling of Cay(Z_6) is fully symmetric; instead place one
  // agent to split classes and check the fibration degree law on whatever
  // partition arises.
  struct Case {
    graph::Graph g;
    Placement p;
    graph::EdgeLabeling l;
  };
  const auto cg6 = group::cayley_ring(6);
  const auto cg4 = group::cayley_torus(3, 3);
  const std::vector<Case> cases = {
      {cg6.graph, Placement(6, {0, 3}), cg6.natural_labeling()},
      {cg4.graph, Placement(9, {0}), cg4.natural_labeling()},
  };
  for (const auto& c : cases) {
    const auto q = views::view_quotient(c.g, c.p, c.l);
    EXPECT_EQ(q.fiber_size * q.graph.node_count(), c.g.node_count());
    if (q.realizable) {
      for (graph::NodeId x = 0; x < c.g.node_count(); ++x) {
        EXPECT_EQ(q.graph.degree(q.projection[x]), c.g.degree(x));
      }
    }
  }
}

TEST(ViewQuotient, HalfEdgeCaseFlagged) {
  // K_2 with the same symbol at both ends: both nodes share one view; the
  // quotient would need a half-edge.
  const graph::Graph k2 = graph::complete(2);
  graph::EdgeLabeling l = graph::EdgeLabeling::zeros(k2);
  const auto q = views::view_quotient(k2, Placement::empty(2), l);
  EXPECT_EQ(q.graph.node_count(), 1u);
  EXPECT_FALSE(q.realizable);
}

// Reference enumeration: certify every connected edge subset and keep the
// first (smallest) subset of each certificate, in certificate order.
std::vector<graph::Graph> connected_graphs_by_certificate(std::size_t n) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  }
  std::map<iso::Certificate, graph::Graph> found;
  for (std::size_t mask = 0; mask < (std::size_t{1} << pairs.size());
       ++mask) {
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (mask & (std::size_t{1} << i)) edges.push_back(pairs[i]);
    }
    graph::Graph g = graph::Graph::from_edges(n, edges);
    if (!g.is_connected()) continue;
    found.emplace(cert_of(g), std::move(g));
  }
  std::vector<graph::Graph> out;
  for (auto& [cert, g] : found) out.push_back(std::move(g));
  return out;
}

TEST(Enumerate, MatchesCertificateDedupePortByPort) {
  for (std::size_t n = 1; n <= 6; ++n) {
    const auto got = iso::all_connected_graphs(n);
    const auto want = connected_graphs_by_certificate(n);
    ASSERT_EQ(got.size(), want.size()) << n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].node_count(), n);
      EXPECT_EQ(got[i].edges(), want[i].edges()) << "n=" << n << " #" << i;
    }
  }
}

TEST(Enumerate, CountsMatchOeisA001349) {
  const std::size_t expected[] = {1, 1, 2, 6, 21, 112};
  for (std::size_t n = 1; n <= 6; ++n) {
    EXPECT_EQ(iso::all_connected_graphs(n).size(), expected[n - 1]) << n;
  }
  EXPECT_THROW(iso::all_connected_graphs(7), CheckError);
}

TEST(Enumerate, GraphsArePairwiseNonIsomorphicAndConnected) {
  for (std::size_t n = 5; n <= 6; ++n) {
    std::vector<iso::Certificate> certs;
    for (const auto& g : iso::all_connected_graphs(n)) {
      EXPECT_TRUE(g.is_connected());
      EXPECT_TRUE(g.is_simple());
      EXPECT_EQ(g.node_count(), n);
      certs.push_back(cert_of(g));
    }
    for (std::size_t i = 0; i < certs.size(); ++i) {
      for (std::size_t j = i + 1; j < certs.size(); ++j) {
        EXPECT_NE(certs[i], certs[j]) << "n=" << n;
      }
    }
  }
}

TEST(Enumerate, LandscapeInvariantsUpToFiveNodes) {
  // Every instance with gcd > 1 on a Cayley graph must carry a translation
  // obstruction (the corrected Theorem 4.1 dichotomy), across the complete
  // landscape of graphs up to 5 nodes.
  for (std::size_t n = 2; n <= 5; ++n) {
    for (const auto& g : iso::all_connected_graphs(n)) {
      const auto rec = cayley::recognize_cayley(g);
      for (std::size_t r = 1; r <= n; ++r) {
        for (const auto& p : graph::enumerate_placements(n, r)) {
          const auto plan = core::protocol_plan(g, p);
          if (plan.final_gcd > 1 && rec.is_cayley) {
            EXPECT_GT(cayley::max_translation_obstruction(
                          rec.regular_subgroups, p),
                      1u)
                << g.describe() << " r=" << r;
          }
        }
      }
    }
  }
}

TEST(ConjugacyClasses, C4HasTwoGroupStructures) {
  const graph::Graph g = graph::ring(4);
  const auto rec = cayley::recognize_cayley(g);
  ASSERT_EQ(rec.regular_subgroups.size(), 2u);
  const auto autos = iso::all_automorphisms(iso::from_bicolored_graph(
      g, Placement::empty(4)));
  ASSERT_TRUE(autos.has_value());
  const auto classes =
      cayley::conjugacy_classes_of_subgroups(rec.regular_subgroups, *autos);
  // Z_4 and Z_2 x Z_2 are non-isomorphic, hence never conjugate.
  EXPECT_EQ(classes.size(), 2u);
}

TEST(ConjugacyClasses, HypercubeSubgroupsCollapse) {
  // Q_3 carries 10 regular subgroups but far fewer genuinely different
  // structures up to symmetry.
  const graph::Graph g = graph::hypercube(3);
  const auto rec = cayley::recognize_cayley(g);
  ASSERT_EQ(rec.regular_subgroups.size(), 10u);
  const auto autos = iso::all_automorphisms(iso::from_bicolored_graph(
      g, Placement::empty(8)));
  ASSERT_TRUE(autos.has_value());
  const auto classes =
      cayley::conjugacy_classes_of_subgroups(rec.regular_subgroups, *autos);
  EXPECT_LT(classes.size(), 10u);
  // Conjugate subgroups have isomorphic abstract groups: same abelianness.
  for (const auto& cls : classes) {
    const bool abelian0 =
        cayley::reconstruct_group(g, rec.regular_subgroups[cls.front()])
            .gamma.is_abelian();
    for (const std::size_t i : cls) {
      EXPECT_EQ(cayley::reconstruct_group(g, rec.regular_subgroups[i])
                    .gamma.is_abelian(),
                abelian0);
    }
  }
}

}  // namespace
}  // namespace qelect
