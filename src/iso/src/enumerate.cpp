#include "qelect/iso/enumerate.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>

#include "qelect/graph/placement.hpp"
#include "qelect/iso/canonical.hpp"
#include "qelect/iso/colored_digraph.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::iso {

namespace {

constexpr std::size_t kMaxNodes = 6;
using Mask = std::uint32_t;  // bit i = node pair i; 15 pairs at n = 6
using Pairs = std::vector<std::pair<graph::NodeId, graph::NodeId>>;

bool mask_connected(std::size_t n, const Pairs& pairs, Mask mask) {
  Mask adjacent[kMaxNodes] = {};
  for (Mask rest = mask; rest != 0; rest &= rest - 1) {
    const auto [u, v] = pairs[std::countr_zero(rest)];
    adjacent[u] |= Mask{1} << v;
    adjacent[v] |= Mask{1} << u;
  }
  Mask seen = 1;
  for (Mask frontier = 1; frontier != 0;) {
    Mask reached = 0;
    for (; frontier != 0; frontier &= frontier - 1) {
      reached |= adjacent[std::countr_zero(frontier)];
    }
    frontier = reached & ~seen;
    seen |= reached;
  }
  return seen == (Mask{1} << n) - 1;
}

/// `pair_maps` holds one row of `pair_count` entries per relabeling of the
/// nodes: the index of the image of each pair.
bool smallest_relabeling(Mask mask, const std::vector<std::uint8_t>& pair_maps,
                         std::size_t pair_count) {
  for (std::size_t row = 0; row < pair_maps.size(); row += pair_count) {
    Mask image = 0;
    for (Mask rest = mask; rest != 0; rest &= rest - 1) {
      image |= Mask{1} << pair_maps[row + std::countr_zero(rest)];
    }
    if (image < mask) return false;
  }
  return true;
}

}  // namespace

std::vector<graph::Graph> all_connected_graphs(std::size_t n) {
  QELECT_CHECK(n >= 1 && n <= kMaxNodes,
               "all_connected_graphs supports n in [1, 6]");
  // All node pairs, in a fixed order; each subset of pairs is a candidate.
  Pairs pairs;
  std::uint8_t pair_index[kMaxNodes][kMaxNodes] = {};
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      pair_index[u][v] = pair_index[v][u] =
          static_cast<std::uint8_t>(pairs.size());
      pairs.emplace_back(u, v);
    }
  }
  std::vector<std::uint8_t> pair_maps;  // at most 720 rows of 15
  std::vector<graph::NodeId> sigma(n);
  std::iota(sigma.begin(), sigma.end(), graph::NodeId{0});
  do {
    for (const auto& [u, v] : pairs) {
      pair_maps.push_back(pair_index[sigma[u]][sigma[v]]);
    }
  } while (std::next_permutation(sigma.begin(), sigma.end()));

  // The smallest mask of each isomorphism class is its representative;
  // certificates only put the representatives in a canonical order.
  std::vector<std::pair<Certificate, graph::Graph>> found;
  const Mask subsets = Mask{1} << pairs.size();
  for (Mask mask = 0; mask < subsets; ++mask) {
    if (!mask_connected(n, pairs, mask) ||
        !smallest_relabeling(mask, pair_maps, pairs.size())) {
      continue;
    }
    Pairs edges;
    for (Mask rest = mask; rest != 0; rest &= rest - 1) {
      edges.push_back(pairs[std::countr_zero(rest)]);
    }
    graph::Graph g = graph::Graph::from_edges(n, edges);
    Certificate cert = canonical_certificate(
        from_bicolored_graph(g, graph::Placement::empty(n)));
    found.emplace_back(std::move(cert), std::move(g));
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<graph::Graph> out;
  out.reserve(found.size());
  for (auto& [cert, g] : found) out.push_back(std::move(g));
  return out;
}

}  // namespace qelect::iso
