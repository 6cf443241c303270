// Color refinement (1-dimensional Weisfeiler-Leman) on colored digraphs.
//
// Refinement is the workhorse shared by the canonical-labeling search and
// the view machinery: it repeatedly splits node classes by the multiset of
// (arc label, neighbor class) pairs on out- and in-arcs until stable.  The
// resulting class indices are *isomorphism-invariant*: two nodes in
// isomorphic digraphs receive the same final class index iff the refinement
// process cannot distinguish them.  (Signatures are compared exactly, by
// sorting -- never by hash -- so there are no collision soundness holes.)
#pragma once

#include <cstdint>
#include <vector>

#include "qelect/iso/colored_digraph.hpp"

namespace qelect::iso {

using Coloring = std::vector<std::uint32_t>;

/// Renumbers `coloring` to dense indices 0..k-1, ordered by original value.
Coloring normalize_coloring(const Coloring& coloring);

/// Runs color refinement to a fixed point starting from `initial`
/// (defaulting to the digraph's own node colors).  The returned coloring is
/// dense and ordered canonically (class index order follows the
/// lexicographic order of class signatures, which is iso-invariant).
///
/// The round scratch is per thread, so refine and refine_rounds are safe to
/// call from any thread; each thread's scratch keeps the capacity of the
/// largest digraph it refined, and a warm thread allocates only the
/// returned coloring.
Coloring refine(const ColoredDigraph& g, const Coloring& initial);
Coloring refine(const ColoredDigraph& g);

/// Result of refine() after `rounds` iterations only (no fixed point);
/// round k distinguishes exactly what depth-k views distinguish, which is
/// how the view machinery computes ~view at Norris depth n-1.
Coloring refine_rounds(const ColoredDigraph& g, const Coloring& initial,
                       std::size_t rounds);

/// True iff every class of the coloring is a singleton.
bool is_discrete(const Coloring& coloring);

/// Groups node ids by color; classes ordered by class index, nodes ascending.
std::vector<std::vector<NodeId>> color_classes(const Coloring& coloring);

}  // namespace qelect::iso
