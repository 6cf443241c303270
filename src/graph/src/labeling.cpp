#include "qelect/graph/labeling.hpp"

#include <algorithm>
#include <set>

#include "qelect/util/assert.hpp"

namespace qelect::graph {

EdgeLabeling EdgeLabeling::from_ports(const Graph& g) {
  EdgeLabeling l;
  l.labels_.resize(g.node_count());
  for (NodeId x = 0; x < g.node_count(); ++x) {
    l.labels_[x].resize(g.degree(x));
    for (PortId p = 0; p < g.degree(x); ++p) l.labels_[x][p] = p;
  }
  return l;
}

EdgeLabeling EdgeLabeling::zeros(const Graph& g) {
  EdgeLabeling l;
  l.labels_.resize(g.node_count());
  for (NodeId x = 0; x < g.node_count(); ++x) {
    l.labels_[x].assign(g.degree(x), 0);
  }
  return l;
}

Symbol EdgeLabeling::at(NodeId x, PortId p) const {
  QELECT_CHECK(x < labels_.size() && p < labels_[x].size(),
               "EdgeLabeling::at out of range");
  return labels_[x][p];
}

void EdgeLabeling::set(NodeId x, PortId p, Symbol s) {
  QELECT_CHECK(x < labels_.size() && p < labels_[x].size(),
               "EdgeLabeling::set out of range");
  labels_[x][p] = s;
}

bool EdgeLabeling::locally_distinct(const Graph& g) const {
  if (labels_.size() != g.node_count()) return false;
  for (NodeId x = 0; x < g.node_count(); ++x) {
    const std::vector<Symbol>& row = labels_[x];
    if (row.size() != g.degree(x)) return false;
    // Pairwise: degrees are small, and the exhaustive searches call this
    // once per visited labeling.
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (std::find(row.begin(), row.begin() + i, row[i]) != row.begin() + i) {
        return false;
      }
    }
  }
  return true;
}

std::size_t EdgeLabeling::alphabet_size() const {
  std::set<Symbol> seen;
  for (const auto& row : labels_) seen.insert(row.begin(), row.end());
  return seen.size();
}

namespace {

// Depth-first assignment over the flattened (node, port) slots; true once
// `visit` has asked to stop.
bool for_each_rec(const Graph& g, std::size_t alphabet, NodeId x, PortId p,
                  EdgeLabeling& current,
                  const std::function<bool(const EdgeLabeling&)>& visit) {
  if (x == g.node_count()) return visit(current);
  if (p == g.degree(x)) {
    return for_each_rec(g, alphabet, x + 1, 0, current, visit);
  }
  for (Symbol s = 0; s < alphabet; ++s) {
    bool clash = false;
    for (PortId q = 0; q < p; ++q) {
      if (current.at(x, q) == s) {
        clash = true;
        break;
      }
    }
    if (clash) continue;
    current.set(x, p, s);
    if (for_each_rec(g, alphabet, x, p + 1, current, visit)) return true;
  }
  current.set(x, p, 0);
  return false;
}

}  // namespace

bool for_each_labeling(const Graph& g, std::size_t alphabet,
                       const std::function<bool(const EdgeLabeling&)>& visit) {
  for (NodeId x = 0; x < g.node_count(); ++x) {
    QELECT_CHECK(g.degree(x) <= alphabet,
                 "for_each_labeling: alphabet smaller than max degree");
  }
  EdgeLabeling current = EdgeLabeling::zeros(g);
  return for_each_rec(g, alphabet, 0, 0, current, visit);
}

std::vector<EdgeLabeling> enumerate_labelings(const Graph& g,
                                              std::size_t alphabet) {
  std::vector<EdgeLabeling> out;
  for_each_labeling(g, alphabet, [&](const EdgeLabeling& l) {
    out.push_back(l);
    return false;
  });
  return out;
}

}  // namespace qelect::graph
