#include "qelect/iso/colored_digraph.hpp"

#include <algorithm>
#include <limits>

#include "qelect/util/assert.hpp"

namespace qelect::iso {

namespace {

// Places `from` into `to` bucketed by key(arc), keeping `from`'s order
// within a bucket.  bucket_end[k] holds bucket k's end on entry (an
// inclusive prefix sum of the bucket sizes) and its start on return:
// walking `from` backwards, each arc goes to the last free slot of its
// bucket.
template <typename Key>
void scatter(const std::vector<Arc>& from, std::vector<Arc>& to,
             std::uint32_t* bucket_end, Key key) {
  for (auto a = from.rbegin(); a != from.rend(); ++a) {
    to[--bucket_end[key(*a)]] = *a;
  }
}

}  // namespace

ColoredDigraph::ColoredDigraph(std::size_t n,
                               std::vector<std::uint32_t> node_colors,
                               std::vector<Arc> arcs)
    : colors_(std::move(node_colors)) {
  QELECT_CHECK(colors_.size() == n, "ColoredDigraph: one color per node");
  QELECT_CHECK(arcs.size() < std::numeric_limits<std::uint32_t>::max(),
               "ColoredDigraph: too many arcs");
  offsets_.assign(2 * (n + 1), 0);
  std::uint32_t* const out_end = offsets_.data();
  std::uint32_t* const in_end = offsets_.data() + n + 1;
  for (const Arc& a : arcs) {
    QELECT_CHECK(a.from < n && a.to < n, "ColoredDigraph: arc out of range");
    ++out_end[a.from];
    ++in_end[a.to];
  }
  for (std::size_t x = 1; x <= n; ++x) {
    out_end[x] += out_end[x - 1];
    in_end[x] += in_end[x - 1];
  }
  // By source, then each source's few arcs by (to, label): the (from, to,
  // label) order.  Bucketing that order by target keeps it within each
  // bucket, which is the (to, from, label) order; it reuses the input's
  // storage.
  arcs_.resize(arcs.size());
  scatter(arcs, arcs_, out_end, [](const Arc& a) { return a.from; });
  for (std::size_t x = 0; x < n; ++x) {
    std::sort(arcs_.begin() + out_end[x], arcs_.begin() + out_end[x + 1]);
  }
  scatter(arcs_, arcs, in_end, [](const Arc& a) { return a.to; });
  in_arcs_ = std::move(arcs);
}

ColoredDigraph ColoredDigraph::relabel(
    const std::vector<NodeId>& sigma) const {
  QELECT_CHECK(sigma.size() == colors_.size(),
               "ColoredDigraph::relabel size mismatch");
  std::vector<std::uint32_t> colors(colors_.size());
  for (NodeId x = 0; x < colors_.size(); ++x) colors[sigma[x]] = colors_[x];
  std::vector<Arc> arcs;
  arcs.reserve(arcs_.size());
  for (const Arc& a : arcs_) {
    arcs.push_back(Arc{sigma[a.from], sigma[a.to], a.label});
  }
  return ColoredDigraph(colors_.size(), std::move(colors), std::move(arcs));
}

ColoredDigraph ColoredDigraph::individualize(NodeId x) const {
  QELECT_CHECK(x < colors_.size(), "individualize: node out of range");
  ColoredDigraph out = *this;
  out.colors_[x] = 1 + *std::max_element(colors_.begin(), colors_.end());
  return out;
}

std::uint64_t pack_edge_labels(std::uint32_t out_label,
                               std::uint32_t in_label) {
  return (static_cast<std::uint64_t>(out_label) << 32) | in_label;
}

namespace {

// Both arc directions of every edge, labels 0.
ColoredDigraph bidirected(const graph::Graph& g,
                          std::vector<std::uint32_t> colors) {
  QELECT_CHECK(colors.size() == g.node_count(),
               "from_colored_graph: color count mismatch");
  std::vector<Arc> arcs;
  arcs.reserve(2 * g.edge_count());
  for (const graph::Edge& e : g.edges()) {
    arcs.push_back(Arc{e.u, e.v, 0});
    arcs.push_back(Arc{e.v, e.u, 0});
  }
  return ColoredDigraph(g.node_count(), std::move(colors), std::move(arcs));
}

}  // namespace

ColoredDigraph from_bicolored_graph(const graph::Graph& g,
                                    const graph::Placement& p) {
  return bidirected(g, p.node_colors());
}

ColoredDigraph from_colored_graph(const graph::Graph& g,
                                  const std::vector<std::uint32_t>& colors) {
  return bidirected(g, colors);
}

ColoredDigraph from_labeled_graph(const graph::Graph& g,
                                  const graph::Placement& p,
                                  const graph::EdgeLabeling& l) {
  QELECT_CHECK(l.locally_distinct(g),
               "from_labeled_graph: labeling must fit the graph");
  std::vector<Arc> arcs;
  arcs.reserve(2 * g.edge_count());
  for (const graph::Edge& e : g.edges()) {
    const std::uint32_t lu = l.at(e.u, e.u_port);
    const std::uint32_t lv = l.at(e.v, e.v_port);
    arcs.push_back(Arc{e.u, e.v, pack_edge_labels(lu, lv)});
    arcs.push_back(Arc{e.v, e.u, pack_edge_labels(lv, lu)});
  }
  return ColoredDigraph(g.node_count(), p.node_colors(), std::move(arcs));
}

}  // namespace qelect::iso
