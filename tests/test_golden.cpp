// Golden-equivalence property tests for the fast-path iso/views engine.
//
// The worklist refinement (refinement.cpp), the canonical search
// (canonical.cpp), and the DAG view builder/encoder (views.cpp) are
// all rewrites of seed algorithms that must be *behavior-preserving*: same
// colorings, same certificates, same encodings, byte for byte.  The seed
// implementations live on under iso::reference / views::reference, and
// these tests compare the two across randomized instance families --
// rings, tori, hypercubes, Petersen graphs, random connected graphs and
// trees, random placements, random initial colorings, and random
// locally-distinct edge labelings.  Each suite walks well over 200 seeded
// instances (asserted explicitly), so a regression in any branch of the
// new code paths has to reproduce the seed's output exactly to slip by.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "qelect/graph/families.hpp"
#include "qelect/graph/labeling.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/canonical.hpp"
#include "qelect/iso/colored_digraph.hpp"
#include "qelect/iso/reference.hpp"
#include "qelect/iso/refinement.hpp"
#include "qelect/views/reference.hpp"
#include "qelect/views/views.hpp"

namespace qelect {
namespace {

using graph::EdgeLabeling;
using graph::Graph;
using graph::NodeId;
using graph::Placement;
using graph::PortId;

Placement random_placement(const Graph& g, std::mt19937_64& rng) {
  std::vector<NodeId> bases;
  for (NodeId x = 0; x < g.node_count(); ++x) {
    if (rng() % 3 == 0) bases.push_back(x);
  }
  return Placement(g.node_count(), std::move(bases));
}

// A random locally-distinct labeling: each node hands out a shuffled
// permutation of {0, ..., deg-1} across its ports.
EdgeLabeling random_labeling(const Graph& g, std::mt19937_64& rng) {
  EdgeLabeling l = EdgeLabeling::zeros(g);
  for (NodeId x = 0; x < g.node_count(); ++x) {
    std::vector<graph::Symbol> symbols(g.degree(x));
    for (PortId p = 0; p < g.degree(x); ++p) symbols[p] = p;
    std::shuffle(symbols.begin(), symbols.end(), rng);
    for (PortId p = 0; p < g.degree(x); ++p) l.set(x, p, symbols[p]);
  }
  return l;
}

iso::Coloring random_coloring(std::size_t n, std::mt19937_64& rng) {
  iso::Coloring c(n);
  // Sparse color values on purpose: normalize_coloring has to renumber.
  for (std::uint32_t& v : c) v = static_cast<std::uint32_t>(rng() % (n + 3)) * 7;
  return c;
}

std::vector<Graph> base_graphs() {
  std::vector<Graph> out;
  for (std::size_t n = 3; n <= 12; ++n) out.push_back(graph::ring(n));
  out.push_back(graph::path(7));
  out.push_back(graph::complete(5));
  out.push_back(graph::complete_bipartite(3, 3));
  out.push_back(graph::star(5));
  out.push_back(graph::hypercube(2));
  out.push_back(graph::hypercube(3));
  out.push_back(graph::hypercube(4));
  out.push_back(graph::torus({3, 4}));
  out.push_back(graph::torus({4, 4}));
  out.push_back(graph::torus({2, 3, 4}));
  out.push_back(graph::circulant(11, {1, 2, 3}));
  out.push_back(graph::petersen());
  out.push_back(graph::generalized_petersen(7, 2));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    out.push_back(graph::random_connected(9, 0.3, seed));
    out.push_back(graph::random_tree(10, seed));
  }
  return out;
}

// Bi-colored and edge-labeled digraph instances: every base graph under an
// empty placement, several random placements, and several random labelings.
std::vector<iso::ColoredDigraph> digraph_instances() {
  std::vector<iso::ColoredDigraph> out;
  std::mt19937_64 rng(20260806);
  for (const Graph& g : base_graphs()) {
    out.push_back(
        iso::from_bicolored_graph(g, Placement::empty(g.node_count())));
    for (int k = 0; k < 3; ++k) {
      out.push_back(iso::from_bicolored_graph(g, random_placement(g, rng)));
    }
    for (int k = 0; k < 2; ++k) {
      out.push_back(iso::from_labeled_graph(g, random_placement(g, rng),
                                            random_labeling(g, rng)));
    }
  }
  return out;
}

TEST(GoldenRefine, FixedPointMatchesSeedByteForByte) {
  std::size_t checked = 0;
  for (const auto& g : digraph_instances()) {
    SCOPED_TRACE(checked);
    EXPECT_EQ(iso::refine(g), iso::reference::refine(g));
    ++checked;
  }
  EXPECT_GE(checked, 200u);
}

TEST(GoldenRefine, RandomInitialColoringsMatchSeed) {
  std::mt19937_64 rng(7);
  std::size_t checked = 0;
  for (const auto& g : digraph_instances()) {
    SCOPED_TRACE(checked);
    const iso::Coloring init = random_coloring(g.node_count(), rng);
    EXPECT_EQ(iso::refine(g, init), iso::reference::refine(g, init));
    ++checked;
  }
  EXPECT_GE(checked, 200u);
}

TEST(GoldenRefine, BoundedRoundsMatchSeedAtEveryDepth) {
  std::mt19937_64 rng(11);
  std::size_t checked = 0;
  for (const auto& g : digraph_instances()) {
    const iso::Coloring init = random_coloring(g.node_count(), rng);
    for (std::size_t rounds = 0; rounds <= 3; ++rounds) {
      SCOPED_TRACE(checked);
      EXPECT_EQ(iso::refine_rounds(g, init, rounds),
                iso::reference::refine_rounds(g, init, rounds));
      ++checked;
    }
  }
  EXPECT_GE(checked, 200u);
}

// Instances whose fast canonical form differs from the seed's certificate
// `want`, or whose labeling does not realize it.
std::size_t canonical_mismatches(
    const std::vector<iso::ColoredDigraph>& instances,
    const std::vector<iso::Certificate>& want) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const iso::CanonicalForm fast = iso::canonical_form(instances[i]);
    if (fast.certificate != want[i] ||
        iso::certificate_under(instances[i], fast.labeling) != want[i]) {
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(GoldenCanonical, CertificatesMatchSeed) {
  const std::vector<iso::ColoredDigraph> instances = digraph_instances();
  std::vector<iso::Certificate> seed_certs;
  std::size_t checked = 0;
  for (const auto& g : instances) {
    SCOPED_TRACE(checked);
    const iso::CanonicalForm fast = iso::canonical_form(g);
    const iso::CanonicalForm seed = iso::reference::canonical_form(g);
    EXPECT_EQ(fast.certificate, seed.certificate);
    // The labeling must realize the certificate (it need not be the same
    // permutation the seed picked when the graph has automorphisms).
    EXPECT_EQ(iso::certificate_under(g, fast.labeling), fast.certificate);
    seed_certs.push_back(seed.certificate);
    ++checked;
  }
  EXPECT_GE(checked, 200u);
  // The search keeps its buffers per thread: four threads searching at
  // once must each still match the seed.
  std::vector<std::size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      mismatches[t] = canonical_mismatches(instances, seed_certs);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<std::size_t>(4, 0));
}

TEST(GoldenViews, EncodingsMatchSeedAcrossDepths) {
  std::mt19937_64 rng(13);
  std::size_t checked = 0;
  for (const Graph& g : base_graphs()) {
    const Placement p = random_placement(g, rng);
    const EdgeLabeling l = random_labeling(g, rng);
    for (std::size_t depth = 0; depth <= 3; ++depth) {
      const NodeId root = static_cast<NodeId>(rng() % g.node_count());
      SCOPED_TRACE(checked);
      const auto seed_word =
          views::reference::encode_view(
              views::reference::build_view(g, p, l, root, depth));
      EXPECT_EQ(views::encode_view(views::build_view(g, p, l, root, depth)),
                seed_word);
      ++checked;
    }
  }
  // Every node of a few fully symmetric graphs, where subtree sharing is
  // maximal and any memo mix-up would collide encodings.
  for (const Graph& g : {graph::ring(8), graph::hypercube(3)}) {
    const Placement p = Placement::empty(g.node_count());
    const EdgeLabeling l = EdgeLabeling::from_ports(g);
    for (NodeId root = 0; root < g.node_count(); ++root) {
      SCOPED_TRACE(checked);
      EXPECT_EQ(views::encode_view(views::build_view(g, p, l, root, 4)),
                views::reference::encode_view(
                    views::reference::build_view(g, p, l, root, 4)));
      ++checked;
    }
  }
  EXPECT_GE(checked, 130u);
}

TEST(GoldenViews, QualitativeEncodingsMatchSeed) {
  std::mt19937_64 rng(17);
  std::size_t checked = 0;
  for (const Graph& g : base_graphs()) {
    if (g.node_count() > 10) continue;
    const Placement p = random_placement(g, rng);
    const EdgeLabeling l = random_labeling(g, rng);
    const NodeId root = static_cast<NodeId>(rng() % g.node_count());
    const views::ViewTree fast = views::build_view(g, p, l, root, 2);
    const views::ViewTree seed =
        views::reference::build_view(g, p, l, root, 2);
    SCOPED_TRACE(checked);
    EXPECT_EQ(views::encode_view_qualitative(fast),
              views::reference::encode_view_qualitative(seed));
    ++checked;
  }
  EXPECT_GE(checked, 15u);
}

}  // namespace
}  // namespace qelect
