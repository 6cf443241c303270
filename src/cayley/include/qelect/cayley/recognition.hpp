// Cayley-graph recognition: the "test whether G is a Cayley graph
// (time-consuming, but decidable)" step of Section 4.
//
// By Sabidussi's theorem, G is a Cayley graph iff Aut(G) contains a
// *regular* subgroup: one acting sharply transitively on the nodes
// (equivalently: transitive, with every non-identity element fixed-point
// free).  We enumerate Aut(G) explicitly and search for regular subgroups
// by incremental closure with semiregularity pruning.
//
// A single graph can be a Cayley graph of several non-isomorphic groups
// (C_4 realizes both Z_4 and Z_2 x Z_2), and the distinction matters:
// the effectual election test must consider *every* regular subgroup, not
// one canonical choice -- see translation.hpp for why (a documented gap in
// the paper's Theorem 4.1 as literally stated).
//
// The result depends on G alone, and it is costly (K_6 takes a few ms).
// Callers that test many placements of one graph go through
// core::recognize_cayley_shared, which memoizes this function on the
// graph's port structure; recognize_cayley itself never caches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/group/cayley_graph.hpp"
#include "qelect/group/group.hpp"
#include "qelect/iso/colored_digraph.hpp"

namespace qelect::cayley {

using graph::NodeId;
using Permutation = std::vector<NodeId>;

/// A regular subgroup of Aut(G), stored with its elements indexed by the
/// image of node 0: element(v) is the unique member mapping node 0 to v.
/// element(0) is the identity.
class RegularSubgroup {
 public:
  explicit RegularSubgroup(std::vector<Permutation> by_image);

  std::size_t order() const { return by_image_.size(); }
  const Permutation& element(NodeId v) const { return by_image_[v]; }
  const std::vector<Permutation>& elements() const { return by_image_; }

  /// Stable identity for dedup: the sorted list of member permutations.
  std::vector<Permutation> sorted_members() const;

 private:
  std::vector<Permutation> by_image_;  // by_image_[v](0) == v
};

/// Outcome of recognition.
struct RecognitionResult {
  bool is_cayley = false;
  std::size_t aut_order = 0;          // |Aut(G)| (0 if enumeration aborted)
  bool aut_enumeration_complete = true;
  std::vector<RegularSubgroup> regular_subgroups;  // deduplicated, all found
};

/// Finds regular subgroups of Aut(G).  `max_subgroups` bounds the list
/// (recognition only needs one; the effectual test wants all); `aut_limit`
/// bounds the automorphism enumeration.  If the automorphism group is
/// larger than `aut_limit` the result reports an incomplete enumeration and
/// is_cayley=false conservatively.
RecognitionResult recognize_cayley(const graph::Graph& g,
                                   std::size_t max_subgroups = 1u << 12,
                                   std::size_t aut_limit = 1u << 18);

/// Sabidussi reconstruction: abstract group plus generating set realizing
/// `g` as Cay(Gamma, S) (node v <-> the element mapping 0 to v; generators
/// are the elements whose image of 0 neighbors 0).  The reconstructed
/// Cayley graph is isomorphic to `g` (tests verify this round trip).
struct ReconstructedCayley {
  group::Group gamma;
  std::vector<group::Elem> generators;
};
ReconstructedCayley reconstruct_group(const graph::Graph& g,
                                      const RegularSubgroup& r);

/// Groups regular subgroups into conjugacy classes under the full
/// automorphism group: R1 ~ R2 iff phi R1 phi^-1 = R2 for some phi in
/// `automorphisms`.  Conjugate subgroups are "the same group structure
/// seen through a symmetry" -- the effectual test's obstruction values
/// |R_p| can still differ across a class because p breaks the symmetry,
/// which is why the test quantifies over subgroups rather than classes.
/// Returns indices into `subgroups`, grouped.
std::vector<std::vector<std::size_t>> conjugacy_classes_of_subgroups(
    const std::vector<RegularSubgroup>& subgroups,
    const std::vector<Permutation>& automorphisms);

}  // namespace qelect::cayley
