// Symmetricity (Yamashita-Kameda) and label-equivalence classes.
//
// sigma_l(G) is the common size of the ~view classes under labeling l;
// sigma(G) = max over labelings.  Yamashita-Kameda: election is possible in
// the quantitative anonymous world iff sigma(G) = 1.  Theorem 2.1 of the
// paper routes through these notions: if some labeling has all ~lab classes
// of size > 1 then election is impossible even for qualitative agents.
//
// Computing sigma(G) exactly requires quantifying over all locally-distinct
// labelings; we provide an exhaustive enumerator for small graphs (the
// TH21 experiments) plus the per-labeling quantities used everywhere else.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/graph/labeling.hpp"
#include "qelect/graph/placement.hpp"

namespace qelect::views {

/// sigma_l(G,p): the common size of the view-equivalence classes of the
/// labeled bi-colored graph.  Checks the Yamashita-Kameda equal-size
/// property as an internal invariant.
std::size_t symmetricity_of_labeling(const graph::Graph& g,
                                     const graph::Placement& p,
                                     const graph::EdgeLabeling& l);

/// Sizes of the label-equivalence (~lab, Definition 2.2) classes of
/// (G, p, l), in the canonical class order.
std::vector<std::uint64_t> label_class_sizes(const graph::Graph& g,
                                             const graph::Placement& p,
                                             const graph::EdgeLabeling& l);

/// The ~lab classes themselves.
std::vector<std::vector<graph::NodeId>> label_equivalence_classes(
    const graph::Graph& g, const graph::Placement& p,
    const graph::EdgeLabeling& l);

/// True iff every ~lab class of (G, p, l) has size > 1, i.e. iff every
/// label_class_sizes entry is > 1, decided without canonical forms.  The
/// argument behind Lemma 2.1: under locally distinct labels a label-
/// preserving automorphism is fixed by where it sends one node.  So x has
/// a nontrivial class iff some y != x of x's color passes a *label walk*:
/// following equal labels out of x and y in step maps x's component onto
/// y's, preserving colors and labels.  Each try costs O(|E| * max degree)
/// and needs no search.  Exact for loops, multi-edges and disconnected
/// graphs.
bool label_classes_all_nontrivial(const graph::Graph& g,
                                  const graph::Placement& p,
                                  const graph::EdgeLabeling& l);

/// max over enumerated labelings (alphabet symbols) of sigma_l, streamed
/// through graph::for_each_labeling.  Exhaustive and exponential: small
/// graphs only.  With `alphabet` >= the max degree every port-locally-
/// distinct equality pattern on symbols drawn from that alphabet is
/// covered; larger alphabets can only lower symmetricity of the extra
/// labelings, so max-degree alphabets give sigma(G) for the graphs used in
/// the experiments (validated in the tests against known values).
std::size_t max_symmetricity_exhaustive(const graph::Graph& g,
                                        const graph::Placement& p,
                                        std::size_t alphabet);

/// Yamashita-Kameda election in the *quantitative* anonymous network: when
/// sigma_l(G,p) = 1 every node has a unique view, views are integer-encoded
/// and hence totally ordered, and "the node with the minimal view" is a
/// well-defined leader every processor can compute locally.  Returns that
/// node, or nullopt when sigma_l > 1 (election impossible under this
/// labeling).  This is the Section 2 contrast case: the same construction
/// is unavailable to qualitative agents because their views are only
/// defined up to symbol renaming.
std::optional<graph::NodeId> yk_quantitative_leader(
    const graph::Graph& g, const graph::Placement& p,
    const graph::EdgeLabeling& l);

/// Theorem 2.1 premise, checked exhaustively: does some labeling over
/// `alphabet` symbols make every ~lab class have size > 1?  If yes, election
/// on (G, p) is impossible in every model.  Streams the labelings and
/// decides each with label_classes_all_nontrivial, stopping at the first
/// witness.
bool exists_labeling_with_all_classes_nontrivial(const graph::Graph& g,
                                                 const graph::Placement& p,
                                                 std::size_t alphabet);

}  // namespace qelect::views
