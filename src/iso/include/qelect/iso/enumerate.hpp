// Exhaustive enumeration of small graphs up to isomorphism.
//
// The election-landscape experiments classify *every* instance at small
// scale: all connected simple graphs on n <= 6 nodes (OEIS A001349 counts
// 1, 1, 2, 6, 21, 112), crossed with all agent placements.  Enumeration is
// brute force over edge subsets: a subset is kept iff it is connected and
// no relabeling of its nodes (n! <= 720 of them, precomputed as maps on
// node pairs) gives a numerically smaller edge mask, so each class is
// represented by its smallest mask.  Only the kept graphs are certified,
// to put them in canonical-certificate order.  tests/test_structures.cpp
// checks the result graph by graph against a certificate dedupe of every
// connected subset, which keeps the enumeration a large-scale consistency
// exercise for the canonizer.
#pragma once

#include <vector>

#include "qelect/graph/graph.hpp"

namespace qelect::iso {

/// Every connected simple graph on exactly n nodes, up to isomorphism
/// (n <= 6; the subset count is 2^(n(n-1)/2) = 32768 at n = 6).  Each
/// class is its smallest edge mask over the node pairs (0,1), (0,2), ...,
/// with ports in that pair order; classes are in certificate order.
std::vector<graph::Graph> all_connected_graphs(std::size_t n);

}  // namespace qelect::iso
