// Cross-theorem validation: the library's strongest scientific tests.
//
// The centerpiece is the *corrected Theorem 4.1 dichotomy*: on Cayley
// graphs, election is impossible iff SOME regular subgroup of Aut(G) has a
// nontrivial color-preserving translation subgroup, and that happens iff
// the gcd of the (automorphism) equivalence-class sizes exceeds 1.  The
// paper's literal statement quantifies over one "selected" group and is
// refuted by (C_4, {0,1}); the exhaustive sweeps below validate the
// corrected statement over every placement of every small Cayley graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "qelect/cayley/marking.hpp"
#include "qelect/cayley/recognition.hpp"
#include "qelect/cayley/translation.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/group/cayley_graph.hpp"
#include "qelect/iso/automorphism.hpp"
#include "qelect/iso/enumerate.hpp"
#include "qelect/util/math.hpp"
#include "qelect/util/rng.hpp"
#include "qelect/views/symmetricity.hpp"

namespace qelect {
namespace {

using graph::Placement;

struct CayleyCase {
  std::string name;
  graph::Graph g;
};

std::vector<CayleyCase> cayley_catalog() {
  std::vector<CayleyCase> out;
  for (std::size_t n = 3; n <= 8; ++n) {
    out.push_back({"ring" + std::to_string(n), graph::ring(n)});
  }
  out.push_back({"k4", graph::complete(4)});
  out.push_back({"k5", graph::complete(5)});
  out.push_back({"q3", graph::hypercube(3)});
  out.push_back({"torus33", graph::torus({3, 3})});
  out.push_back({"circ6-12", graph::circulant(6, {1, 2})});
  out.push_back({"circ8-13", graph::circulant(8, {1, 3})});
  out.push_back({"dihedral4", group::cayley_dihedral(4).graph});
  out.push_back({"quaternion", group::cayley_quaternion().graph});
  out.push_back({"star3", group::cayley_star_graph(3).graph});
  return out;
}

/// Enumerates all placements for small node counts, samples for larger.
std::vector<Placement> placements_for(std::size_t n, std::uint64_t seed) {
  std::vector<Placement> out;
  if (n <= 6) {
    for (std::size_t r = 1; r <= n; ++r) {
      const auto all = graph::enumerate_placements(n, r);
      out.insert(out.end(), all.begin(), all.end());
    }
  } else {
    Xoshiro256 rng(seed);
    for (std::size_t r = 1; r <= n; ++r) {
      for (int k = 0; k < 8; ++k) {
        out.push_back(graph::random_placement(n, r, rng.next()));
      }
    }
  }
  return out;
}

TEST(Theory, CorrectedTheorem41DichotomyOnCayleyGraphs) {
  // For every (Cayley G, p):  gcd(|C_1|..|C_k|) > 1
  //   <=>  some regular subgroup has |R_p| > 1.
  std::size_t instances = 0;
  for (const CayleyCase& c : cayley_catalog()) {
    const auto rec = cayley::recognize_cayley(c.g);
    ASSERT_TRUE(rec.is_cayley) << c.name;
    ASSERT_TRUE(rec.aut_enumeration_complete) << c.name;
    for (const Placement& p : placements_for(c.g.node_count(), 17)) {
      const auto plan = core::protocol_plan(c.g, p);
      const std::size_t obstruction =
          cayley::max_translation_obstruction(rec.regular_subgroups, p);
      EXPECT_EQ(plan.final_gcd > 1, obstruction > 1)
          << c.name << " r=" << p.agent_count()
          << " gcd=" << plan.final_gcd << " obstruction=" << obstruction;
      ++instances;
    }
  }
  // The sweep must be substantial to mean anything.
  EXPECT_GT(instances, 400u);
}

TEST(Theory, PaperTheorem41LiteralFormHasCounterexample) {
  // Documented finding: with Gamma = Z_4 "selected", (C_4, {0,1}) has all
  // translation classes of size 1 (gcd 1), yet election is impossible.
  const graph::Graph c4 = graph::ring(4);
  const Placement p(4, {0, 1});
  const auto rec = cayley::recognize_cayley(c4);
  ASSERT_TRUE(rec.is_cayley);
  // Locate the Z_4 subgroup (its generator has order 4).
  bool found_z4 = false;
  for (const auto& sub : rec.regular_subgroups) {
    const auto& rho = sub.element(1);
    const auto sq = iso::compose(rho, rho);
    if (sq != iso::identity_permutation(4)) {
      found_z4 = true;
      const auto tc = cayley::translation_classes(sub, p);
      EXPECT_EQ(tc.stabilizer_order, 1u);  // "gcd 1" under the paper's rule
    }
  }
  EXPECT_TRUE(found_z4);
  // ...and yet the instance is impossible (Theorem 2.1, exhaustively).
  EXPECT_TRUE(core::impossibility_by_exhaustive_labelings(c4, p, 2));
  // The corrected test catches it through the other subgroup.
  EXPECT_EQ(cayley::max_translation_obstruction(rec.regular_subgroups, p),
            2u);
}

TEST(Theory, ObstructingSubgroupYieldsImpossibilityLabeling) {
  // Theorem 4.1's constructive half: when |R_p| = d > 1 for a regular
  // subgroup, the natural Cayley labeling of that group structure has all
  // ~lab classes of size d, satisfying Theorem 2.1's premise.
  struct Inst {
    graph::Graph g;
    Placement p;
  };
  const std::vector<Inst> insts = {
      {graph::ring(6), Placement(6, {0, 3})},
      {graph::ring(4), Placement(4, {0, 1})},
      {graph::ring(4), Placement(4, {0, 2})},
      {graph::hypercube(3), Placement(8, {0, 7})},
  };
  for (const auto& inst : insts) {
    const auto rec = cayley::recognize_cayley(inst.g);
    ASSERT_TRUE(rec.is_cayley);
    bool verified = false;
    for (const auto& sub : rec.regular_subgroups) {
      const std::size_t d =
          cayley::color_preserving_translation_count(sub, inst.p);
      if (d <= 1) continue;
      // Rebuild the group structure and its natural labeling on the
      // original node set.
      const auto rc = cayley::reconstruct_group(inst.g, sub);
      const group::GeneratingSet gens(rc.gamma, rc.generators);
      const auto cg = group::make_cayley_graph(rc.gamma, gens);
      const auto sizes = views::label_class_sizes(cg.graph, inst.p,
                                                  cg.natural_labeling());
      for (const std::uint64_t s : sizes) EXPECT_EQ(s, d);
      verified = true;
    }
    EXPECT_TRUE(verified) << inst.g.describe();
  }
}

TEST(Theory, MarkingProcessAgreesWithRecognizedSubgroups) {
  // The Theorem 4.1 marking process run on reconstructed group structures
  // must land on classes of size |R_p|.
  const graph::Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const auto rec = cayley::recognize_cayley(g);
  for (const auto& sub : rec.regular_subgroups) {
    const auto rc = cayley::reconstruct_group(g, sub);
    const group::GeneratingSet gens(rc.gamma, rc.generators);
    const auto cg = group::make_cayley_graph(rc.gamma, gens);
    const auto res = cayley::theorem41_marking(cg, p);
    EXPECT_EQ(res.final_class_size,
              cayley::color_preserving_translation_count(sub, p));
  }
}

TEST(Theory, Lemma21AllLabelClassesSameSize) {
  // Lemma 2.1 over every labeling of small instances.
  struct Inst {
    graph::Graph g;
    Placement p;
    std::size_t alphabet;
  };
  const std::vector<Inst> insts = {
      {graph::ring(4), Placement(4, {0}), 2},
      {graph::ring(4), Placement(4, {0, 1}), 2},
      {graph::path(4), Placement(4, {1}), 2},
      {graph::complete(3), Placement(3, {0}), 2},
  };
  for (const auto& inst : insts) {
    for (const auto& l : graph::enumerate_labelings(inst.g, inst.alphabet)) {
      const auto sizes = views::label_class_sizes(inst.g, inst.p, l);
      for (const std::uint64_t s : sizes) {
        EXPECT_EQ(s, sizes.front());
      }
    }
  }
}

// Every label_class_sizes entry is > 1: the canonical-certificate answer
// that label_classes_all_nontrivial must reproduce.
bool all_classes_nontrivial_by_certificates(const graph::Graph& g,
                                            const Placement& p,
                                            const graph::EdgeLabeling& l) {
  const auto sizes = views::label_class_sizes(g, p, l);
  return std::all_of(sizes.begin(), sizes.end(),
                     [](std::uint64_t s) { return s > 1; });
}

// Compares the label walk with the certificates on every placement of at
// most `max_agents` agents and every labeling over max-degree symbols;
// returns how many (placement, labeling) pairs had all classes nontrivial.
std::size_t expect_label_walk_matches(const graph::Graph& g,
                                      std::size_t max_agents = SIZE_MAX) {
  const std::size_t alphabet = g.max_degree();
  std::size_t nontrivial = 0;
  for (std::size_t r = 0; r <= std::min(max_agents, g.node_count()); ++r) {
    for (const Placement& p : graph::enumerate_placements(g.node_count(), r)) {
      graph::for_each_labeling(g, alphabet, [&](const graph::EdgeLabeling& l) {
        const bool expected = all_classes_nontrivial_by_certificates(g, p, l);
        EXPECT_EQ(views::label_classes_all_nontrivial(g, p, l), expected)
            << g.describe() << " r=" << r;
        nontrivial += expected ? 1 : 0;
        return false;
      });
    }
  }
  return nontrivial;
}

TEST(Theory, Lemma21LabelWalkMatchesCertificatesConnected) {
  // Under locally distinct labels a label-preserving automorphism is fixed
  // by the image of one node, so a label walk decides each ~lab class.
  std::size_t nontrivial = 0;
  for (std::size_t n = 1; n <= 4; ++n) {
    for (const graph::Graph& g : iso::all_connected_graphs(n)) {
      nontrivial += expect_label_walk_matches(g);
    }
  }
  EXPECT_GT(nontrivial, 0u);
}

TEST(Theory, Lemma21LabelWalkMatchesCertificatesMultigraph) {
  // Figure 2(c): a loop and a double edge.  The loop node's degree is
  // unique, so no labeling makes every class nontrivial.
  EXPECT_EQ(expect_label_walk_matches(graph::figure2c().graph), 0u);
  // Two looped nodes joined by a double edge: here the loop labels decide.
  graph::Graph looped(2);
  looped.add_edge(0, 0);
  looped.add_edge(1, 1);
  looped.add_edge(0, 1);
  looped.add_edge(0, 1);
  EXPECT_GT(expect_label_walk_matches(looped), 0u);
}

TEST(Theory, Lemma21LabelWalkMatchesCertificatesDisconnected) {
  // A walk maps one component onto another, and a node whose component
  // has no partner keeps a singleton class even when node 0's class is
  // nontrivial.
  const graph::Graph k2_k1 = graph::Graph::from_edges(3, {{0, 1}});
  const graph::Graph c4_c4 = graph::Graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}});
  EXPECT_EQ(expect_label_walk_matches(k2_k1), 0u);
  EXPECT_GT(expect_label_walk_matches(c4_c4, /*max_agents=*/2), 0u);
}

TEST(Theory, Theorem21ImpliesGcdObstruction) {
  // Consistency of Theorems 2.1 and 3.1: if some labeling proves the
  // instance impossible, ELECT's sufficient condition must fail
  // (gcd > 1) -- otherwise ELECT would elect on an impossible instance.
  for (std::size_t n = 3; n <= 5; ++n) {
    const graph::Graph g = graph::ring(n);
    for (std::size_t r = 1; r <= n; ++r) {
      for (const Placement& p : graph::enumerate_placements(n, r)) {
        if (core::impossibility_by_exhaustive_labelings(g, p, 2)) {
          EXPECT_GT(core::protocol_plan(g, p).final_gcd, 1u)
              << "n=" << n << " r=" << r;
        }
      }
    }
  }
}

TEST(Theory, PetersenLabelClassesAreSingletonsInSample) {
  // Section 4: for the Petersen pair, every edge-labeling yields ~lab
  // classes of size 1 while gcd of the ~ classes is 2 -- the gap between
  // d and the gcd.  Exhausting all labelings is infeasible; sample widely.
  const graph::Graph g = graph::petersen();
  const Placement p(10, {0, 5});
  EXPECT_EQ(core::protocol_plan(g, p).final_gcd, 2u);
  Xoshiro256 rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    graph::EdgeLabeling l = graph::EdgeLabeling::zeros(g);
    for (graph::NodeId x = 0; x < 10; ++x) {
      // Random permutation of 3 symbols per node.
      std::vector<graph::Symbol> symbols{0, 1, 2};
      rng.shuffle(symbols);
      for (graph::PortId q = 0; q < 3; ++q) l.set(x, q, symbols[q]);
    }
    const auto sizes = views::label_class_sizes(g, p, l);
    for (const std::uint64_t s : sizes) EXPECT_EQ(s, 1u);
  }
}

TEST(Theory, ReductionScheduleMatchesPhaseArithmetic) {
  // The d_i cascade from the plan equals gcd prefixes of the class sizes
  // (the invariant in Theorem 3.1's proof).
  const graph::Graph g = graph::circulant(8, {1, 3});
  for (const Placement& p : placements_for(8, 5)) {
    const auto plan = core::protocol_plan(g, p);
    std::uint64_t running = plan.sizes.front();
    for (std::size_t i = 0; i < plan.d.size(); ++i) {
      running = std::gcd(running, plan.sizes[i + 1]);
      EXPECT_EQ(plan.d[i], running);
    }
    EXPECT_EQ(plan.final_gcd, gcd_all(plan.sizes));
  }
}

TEST(Theory, VertexTransitiveButNotCayleyExists) {
  // Confirms the Sabidussi discussion: the Petersen graph is
  // vertex-transitive yet carries no regular subgroup.
  const graph::Graph g = graph::petersen();
  EXPECT_TRUE(iso::is_vertex_transitive(iso::from_bicolored_graph(
      g, Placement::empty(10))));
  EXPECT_FALSE(cayley::recognize_cayley(g).is_cayley);
}

}  // namespace
}  // namespace qelect
