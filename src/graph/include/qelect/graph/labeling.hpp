// Explicit edge labelings of anonymous networks.
//
// The paper distinguishes the *port numbering* (an incidental, per-node
// labeling that merely makes incident edges distinguishable) from an
// *edge labeling* l_x(e): an assignment of symbols to half-edges that is
// locally distinct at every node but whose symbols are globally meaningful
// (two half-edges at different nodes may carry the same symbol, and
// label-preserving automorphisms -- Definition 2.2 -- compare them).
// Theorem 2.1 quantifies over all such labelings, and the Theorem 4.1
// impossibility construction builds one explicitly, so labelings are a
// first-class value type here.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "qelect/graph/graph.hpp"

namespace qelect::graph {

using Symbol = std::uint32_t;

/// Assignment of a symbol to every (node, port) pair of a fixed graph.
class EdgeLabeling {
 public:
  EdgeLabeling() = default;

  /// Labeling with symbol(x, p) = p: the canonical "ports as labels" map.
  static EdgeLabeling from_ports(const Graph& g);

  /// Uninitialized labeling shaped like `g` (all symbols 0); callers fill it
  /// in and should verify with locally_distinct().
  static EdgeLabeling zeros(const Graph& g);

  Symbol at(NodeId x, PortId p) const;
  void set(NodeId x, PortId p, Symbol s);

  std::size_t node_count() const { return labels_.size(); }
  std::size_t degree(NodeId x) const { return labels_[x].size(); }

  /// True iff the labeling is shaped like `g` and symbols are pairwise
  /// distinct at every node -- the model's only requirement.
  bool locally_distinct(const Graph& g) const;

  /// Number of distinct symbols used across the whole labeling.
  std::size_t alphabet_size() const;

  bool operator==(const EdgeLabeling&) const = default;

 private:
  std::vector<std::vector<Symbol>> labels_;
};

/// Visits every locally-distinct labeling of `g` over an alphabet of
/// `alphabet` symbols, depth first over the (node, port) slots in order,
/// and stops at the first labeling for which `visit` returns true.  The
/// labeling passed to `visit` is reused between calls; copy it to keep it.
/// Returns true iff `visit` stopped the enumeration.  Exponential: the
/// count is prod_x P(alphabet, deg(x)), so callers must keep sizes tiny.
/// Throws CheckError when `alphabet` is smaller than the max degree.
bool for_each_labeling(const Graph& g, std::size_t alphabet,
                       const std::function<bool(const EdgeLabeling&)>& visit);

/// All labelings for_each_labeling visits, in its order.  Intended for the
/// small graphs of the symmetricity experiments (TH21); searches that can
/// stop early should stream through for_each_labeling instead.
std::vector<EdgeLabeling> enumerate_labelings(const Graph& g,
                                              std::size_t alphabet);

}  // namespace qelect::graph
