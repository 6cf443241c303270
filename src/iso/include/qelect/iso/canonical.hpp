// Canonical forms of colored digraphs.
//
// Lemma 3.1 needs a deterministic total order on (bi-colored, directed)
// graphs; the paper sketches `min over all n! permutations of the adjacency
// matrix`, noting the protocol is allowed to be computationally expensive.
// We implement the standard practical equivalent: individualization-
// refinement search with discovered-automorphism pruning (a miniature
// nauty).  The output `Certificate` is a flat word with the property
//
//     certificate(G1) == certificate(G2)  <=>  G1 iso G2,
//
// and lexicographic comparison of certificates is the total order ELECT's
// COMPUTE&ORDER step uses.  Correctness does not depend on the pruning:
// pruned branches are images of explored ones under verified automorphisms.
#pragma once

#include <cstdint>
#include <vector>

#include "qelect/iso/colored_digraph.hpp"
#include "qelect/iso/refinement.hpp"

namespace qelect::iso {

/// Flat, lexicographically comparable encoding of a digraph-up-to-iso.
using Certificate = std::vector<std::uint64_t>;

/// The canonical form: the minimal certificate over all relabelings plus a
/// permutation realizing it and the automorphisms discovered on the way.
struct CanonicalForm {
  Certificate certificate;
  /// labeling[old_node] = canonical position.
  std::vector<NodeId> labeling;
  /// Color/label-preserving automorphisms found as equal-certificate leaves.
  /// Sound but not guaranteed to generate Aut(G); use all_automorphisms()
  /// when the full group is required.
  std::vector<std::vector<NodeId>> discovered_automorphisms;
  /// Number of search-tree leaves evaluated (bench instrumentation).
  std::size_t leaves_evaluated = 0;
};

/// Tuning knobs for the search; the defaults are what the library uses.
/// `automorphism_pruning` exists for the ablation bench: turning it off
/// makes the search explore every equal-certificate branch (factorial blow
/// up on symmetric graphs) while producing the identical certificate.
struct CanonicalOptions {
  bool automorphism_pruning = true;
  std::size_t max_stored_automorphisms = 4096;
};

/// Runs the canonical-labeling search.
///
/// The search keeps its buffers per thread, across searches: one coloring,
/// target cell and tried list for every search depth the thread has
/// reached, plus the leaf buffers.  So it is safe to call from any thread,
/// and a warm sequential search allocates little beyond what it returns,
/// but each thread holds O(n * depth) words of its deepest search until it
/// exits.  A star's surrounding is about n levels deep: about 64 MiB per
/// thread at n = 4096.
CanonicalForm canonical_form(const ColoredDigraph& g);
CanonicalForm canonical_form(const ColoredDigraph& g,
                             const CanonicalOptions& options);

/// Just the certificate.
Certificate canonical_certificate(const ColoredDigraph& g);

/// Serializes `g` relabeled by `sigma` (sigma[old] = new position); the
/// canonical certificate is the minimum of this over all permutations.
Certificate certificate_under(const ColoredDigraph& g,
                              const std::vector<NodeId>& sigma);

/// Isomorphism test via certificates.
bool are_isomorphic(const ColoredDigraph& a, const ColoredDigraph& b);

/// True iff sigma is a color- and label-preserving automorphism of g.
bool is_automorphism(const ColoredDigraph& g,
                     const std::vector<NodeId>& sigma);

}  // namespace qelect::iso
