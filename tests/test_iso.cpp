// Unit tests for the isomorphism engine: refinement, canonical forms,
// automorphism enumeration, and equivalence classes -- cross-validated
// against known automorphism group orders and against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "qelect/graph/families.hpp"
#include "qelect/iso/automorphism.hpp"
#include "qelect/iso/canonical.hpp"
#include "qelect/iso/colored_digraph.hpp"
#include "qelect/iso/enumerate.hpp"
#include "qelect/iso/equivalence.hpp"
#include "qelect/iso/reference.hpp"
#include "qelect/iso/refinement.hpp"

namespace qelect::iso {
namespace {

using graph::Placement;

ColoredDigraph plain(const graph::Graph& g) {
  return from_bicolored_graph(g, Placement::empty(g.node_count()));
}

std::vector<Arc> as_vector(std::span<const Arc> arcs) {
  return {arcs.begin(), arcs.end()};
}

// Random digraphs with loops and parallel arcs (equal and distinct labels).
TEST(ColoredDigraph, ArcSpansAndIndividualizeMatchAFreshBuild) {
  std::mt19937_64 rng(2026);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    const std::size_t n = 1 + rng() % 12;
    std::vector<std::uint32_t> colors(n);
    for (std::uint32_t& c : colors) c = static_cast<std::uint32_t>(rng() % 3);
    std::vector<Arc> arcs(rng() % 40);
    for (Arc& a : arcs) {
      a = Arc{static_cast<NodeId>(rng() % n), static_cast<NodeId>(rng() % n),
              rng() % 3};
    }
    if (!arcs.empty()) arcs.push_back(arcs.front());
    const ColoredDigraph g(n, colors, arcs);

    std::vector<Arc> sorted = arcs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(g.arcs(), sorted);
    for (NodeId x = 0; x < n; ++x) {
      // With one endpoint fixed, Arc's (from, to, label) order is the
      // (to, label) order of out-arcs and the (from, label) order of
      // in-arcs.
      std::vector<Arc> out, in;
      for (const Arc& a : arcs) {
        if (a.from == x) out.push_back(a);
        if (a.to == x) in.push_back(a);
      }
      std::sort(out.begin(), out.end());
      std::sort(in.begin(), in.end());
      EXPECT_EQ(as_vector(g.out_arcs(x)), out) << x;
      EXPECT_EQ(as_vector(g.in_arcs(x)), in) << x;
    }

    const NodeId x = static_cast<NodeId>(rng() % n);
    std::vector<std::uint32_t> fresh = colors;
    fresh[x] = 1 + *std::max_element(colors.begin(), colors.end());
    const ColoredDigraph built(n, fresh, arcs);
    const ColoredDigraph individualized = g.individualize(x);
    EXPECT_EQ(individualized, built);
    EXPECT_EQ(individualized.colors(), fresh);
    for (NodeId y = 0; y < n; ++y) {
      EXPECT_EQ(as_vector(individualized.out_arcs(y)),
                as_vector(built.out_arcs(y)));
      EXPECT_EQ(as_vector(individualized.in_arcs(y)),
                as_vector(built.in_arcs(y)));
    }
  }
}

/// Every (G, p) of the landscape: each connected graph on 2..6 nodes under
/// each nonempty home-base set.
std::vector<ColoredDigraph> landscape_digraphs() {
  std::vector<ColoredDigraph> out;
  for (std::size_t n = 2; n <= 6; ++n) {
    for (const graph::Graph& g : all_connected_graphs(n)) {
      for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
        std::vector<NodeId> bases;
        for (NodeId x = 0; x < n; ++x) {
          if (mask >> x & 1) bases.push_back(x);
        }
        out.push_back(from_bicolored_graph(g, Placement(n, bases)));
      }
    }
  }
  return out;
}

/// One thread's pass over the kernel's per-thread scratch: a large digraph
/// first, so the small ones after it run on oversized buffers, then every
/// landscape digraph, then random initial colorings at every round count,
/// then canonical certificates.  Returns how many answers differ from the
/// reference engine's.
std::size_t scratch_reuse_mismatches(
    const std::vector<ColoredDigraph>& landscape) {
  std::size_t mismatches = 0;
  const ColoredDigraph big =
      from_bicolored_graph(graph::hypercube(7), Placement(128, {0, 5, 77}));
  mismatches += refine(big) != reference::refine(big);
  for (const ColoredDigraph& d : landscape) {
    mismatches += refine(d) != reference::refine(d);
  }
  std::mt19937_64 rng(5);
  for (std::size_t i = 0; i < landscape.size(); i += 7) {
    const ColoredDigraph& d = landscape[i];
    Coloring init(d.node_count());
    for (std::uint32_t& v : init) {
      v = static_cast<std::uint32_t>(rng() % (d.node_count() + 2)) * 5;
    }
    for (std::size_t rounds = 0; rounds <= d.node_count() + 1; ++rounds) {
      mismatches += refine_rounds(d, init, rounds) !=
                    reference::refine_rounds(d, init, rounds);
    }
  }
  const ColoredDigraph search =
      from_bicolored_graph(graph::hypercube(4), Placement(16, {0}));
  mismatches +=
      canonical_certificate(search) != reference::canonical_certificate(search);
  for (std::size_t i = 0; i < landscape.size(); i += 13) {
    mismatches += canonical_certificate(landscape[i]) !=
                  reference::canonical_certificate(landscape[i]);
  }
  return mismatches;
}

TEST(Refinement, PerThreadScratchMatchesReferenceOnOneAndFourThreads) {
  const std::vector<ColoredDigraph> landscape = landscape_digraphs();
  ASSERT_EQ(landscape.size(), 7814u);
  EXPECT_EQ(scratch_reuse_mismatches(landscape), 0u);
  std::vector<std::size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      mismatches[t] = scratch_reuse_mismatches(landscape);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<std::size_t>(4, 0));
}

TEST(Refinement, DistinguishesDegrees) {
  const auto g = plain(graph::star(3));
  const Coloring c = refine(g);
  // Center vs leaves: two classes.
  const auto classes = color_classes(c);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].size() + classes[1].size(), 4u);
}

TEST(Refinement, RegularGraphStaysCoarse) {
  const auto g = plain(graph::ring(6));
  EXPECT_EQ(color_classes(refine(g)).size(), 1u);
}

TEST(Refinement, ColorsSeedTheRefinement) {
  const graph::Graph ring6 = graph::ring(6);
  const auto g = from_bicolored_graph(ring6, Placement(6, {0}));
  const auto classes = color_classes(refine(g));
  // Distances from the black node: {0}, {1,5}, {2,4}, {3}.
  EXPECT_EQ(classes.size(), 4u);
}

TEST(Refinement, RoundsMatchViewDepth) {
  const graph::Graph p = graph::path(5);
  const auto g = plain(p);
  // After one round only degrees are known: 2 classes (ends vs middle).
  EXPECT_EQ(color_classes(refine_rounds(g, g.colors(), 1)).size(), 2u);
  // Fixed point separates by distance to the ends: 3 classes.
  EXPECT_EQ(color_classes(refine(g)).size(), 3u);
}

TEST(Refinement, IsDiscreteAndNormalize) {
  EXPECT_TRUE(is_discrete({2, 0, 1}));
  EXPECT_FALSE(is_discrete({0, 0, 1}));
  EXPECT_EQ(normalize_coloring({7, 3, 7, 9}),
            (Coloring{1, 0, 1, 2}));
}

TEST(Canonical, InvariantUnderRelabeling) {
  const graph::Graph g = graph::petersen();
  const auto base = canonical_certificate(plain(g));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sigma =
        graph::random_node_permutation(g.node_count(), seed);
    const auto cert = canonical_certificate(plain(g.relabel_nodes(sigma)));
    EXPECT_EQ(cert, base);
  }
}

TEST(Canonical, SeparatesNonIsomorphic) {
  EXPECT_NE(canonical_certificate(plain(graph::ring(6))),
            canonical_certificate(plain(graph::complete_bipartite(3, 3))));
  EXPECT_NE(canonical_certificate(plain(graph::path(4))),
            canonical_certificate(plain(graph::star(3))));
}

TEST(Canonical, ColorsMatter) {
  const graph::Graph g = graph::ring(5);
  const auto a = from_bicolored_graph(g, Placement(5, {0}));
  const auto b = from_bicolored_graph(g, Placement(5, {2}));
  const auto c = from_bicolored_graph(g, Placement(5, {0, 1}));
  EXPECT_EQ(canonical_certificate(a), canonical_certificate(b));
  EXPECT_NE(canonical_certificate(a), canonical_certificate(c));
}

TEST(Canonical, ArcLabelsMatter) {
  const graph::Graph p3 = graph::path(3);
  const graph::Placement empty = Placement::empty(3);
  const auto fig2 = graph::figure2_path();
  const auto quant = from_labeled_graph(p3, empty, fig2.quantitative);
  const auto qual = from_labeled_graph(p3, empty, fig2.qualitative);
  EXPECT_NE(canonical_certificate(quant), canonical_certificate(qual));
}

TEST(Canonical, LabelingRealizesCertificate) {
  const graph::Graph g = graph::cube_connected_cycles(3);
  const auto d = plain(g);
  const CanonicalForm form = canonical_form(d);
  EXPECT_EQ(certificate_under(d, form.labeling), form.certificate);
  for (const auto& gamma : form.discovered_automorphisms) {
    EXPECT_TRUE(is_automorphism(d, gamma));
  }
}

TEST(Canonical, CompleteGraphIsFast) {
  // Automorphism pruning must keep K_8 tractable (8! leaves without it).
  const CanonicalForm form = canonical_form(plain(graph::complete(8)));
  EXPECT_LT(form.leaves_evaluated, 500u);
}

TEST(Canonical, MultigraphAndLoops) {
  const auto ex = graph::figure2c();
  const auto cert1 = canonical_certificate(
      from_labeled_graph(ex.graph, Placement::empty(3), ex.labeling));
  EXPECT_FALSE(cert1.empty());
}

TEST(Automorphism, KnownGroupOrders) {
  EXPECT_EQ(automorphism_count(plain(graph::ring(5))).value(), 10u);   // D_5
  EXPECT_EQ(automorphism_count(plain(graph::ring(8))).value(), 16u);   // D_8
  EXPECT_EQ(automorphism_count(plain(graph::complete(5))).value(), 120u);
  EXPECT_EQ(automorphism_count(plain(graph::petersen())).value(), 120u);
  EXPECT_EQ(automorphism_count(plain(graph::hypercube(3))).value(),
            48u);  // 2^3 * 3!
  EXPECT_EQ(automorphism_count(plain(graph::star(4))).value(), 24u);  // S_4
  EXPECT_EQ(automorphism_count(plain(graph::path(4))).value(), 2u);
}

TEST(Automorphism, LimitAborts) {
  EXPECT_FALSE(automorphism_count(plain(graph::complete(6)), 100).has_value());
}

TEST(Automorphism, ColoredGroupShrinks) {
  const graph::Graph g = graph::ring(6);
  // Two antipodal black nodes: stabilizer of {0,3} in D_6 has order 4.
  const auto d = from_bicolored_graph(g, Placement(6, {0, 3}));
  EXPECT_EQ(automorphism_count(d).value(), 4u);
}

TEST(Automorphism, OrbitsOfColoredRing) {
  const graph::Graph g = graph::ring(6);
  const auto d = from_bicolored_graph(g, Placement(6, {0, 3}));
  const auto orbits = automorphism_orbits(d);
  // {0,3}, {1,2,4,5}.
  ASSERT_EQ(orbits.size(), 2u);
  EXPECT_EQ(orbits[0], (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(orbits[1], (std::vector<NodeId>{1, 2, 4, 5}));
}

TEST(Automorphism, VertexTransitiveFamilies) {
  EXPECT_TRUE(is_vertex_transitive(plain(graph::ring(7))));
  EXPECT_TRUE(is_vertex_transitive(plain(graph::petersen())));
  EXPECT_TRUE(is_vertex_transitive(plain(graph::hypercube(3))));
  EXPECT_FALSE(is_vertex_transitive(plain(graph::star(3))));
  EXPECT_FALSE(is_vertex_transitive(plain(graph::path(4))));
}

TEST(Automorphism, ComposeInvertIdentity) {
  const std::vector<NodeId> a{1, 2, 0};
  const std::vector<NodeId> inv = invert(a);
  EXPECT_EQ(compose(a, inv), identity_permutation(3));
  EXPECT_EQ(compose(inv, a), identity_permutation(3));
}

TEST(Equivalence, ClassesMatchAutomorphismOrbits) {
  // The certificate-based classes must equal the orbit computation from
  // the fully enumerated group, on a spread of colored instances.
  const std::vector<std::pair<graph::Graph, Placement>> cases = {
      {graph::ring(6), Placement(6, {0, 3})},
      {graph::ring(6), Placement(6, {0, 1})},
      {graph::petersen(), Placement(10, {0, 1})},
      {graph::hypercube(3), Placement(8, {0})},
      {graph::star(4), Placement(5, {1})},
      {graph::path(5), Placement::empty(5)},
  };
  for (const auto& [g, p] : cases) {
    const auto d = from_bicolored_graph(g, p);
    const auto classes = equivalence_classes(d).classes;
    auto orbits = automorphism_orbits(d);
    auto sorted_classes = classes;
    std::sort(sorted_classes.begin(), sorted_classes.end());
    std::sort(orbits.begin(), orbits.end());
    EXPECT_EQ(sorted_classes, orbits) << g.describe();
  }
}

TEST(Equivalence, ClassOrderIsRelabelingInvariant) {
  // The *sizes* in prec order must be identical for isomorphic inputs --
  // this is what lets agents agree on the class schedule.
  const graph::Graph g = graph::ring(8);
  const Placement p(8, {0, 2, 4});
  const auto base = class_sizes(equivalence_classes(from_bicolored_graph(g, p)));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto sigma = graph::random_node_permutation(8, seed);
    const auto sizes = class_sizes(equivalence_classes(
        from_bicolored_graph(g.relabel_nodes(sigma), p.relabel(sigma))));
    EXPECT_EQ(sizes, base);
  }
}

}  // namespace
}  // namespace qelect::iso
