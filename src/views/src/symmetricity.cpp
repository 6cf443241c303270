#include "qelect/views/symmetricity.hpp"

#include <algorithm>
#include <optional>

#include "qelect/iso/equivalence.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/views/views.hpp"

namespace qelect::views {

namespace {

/// One label walk at a time over a fixed labeled bi-colored graph, with the
/// node maps kept between walks so that each reset costs only the nodes
/// the previous walk touched.
class LabelWalk {
 public:
  LabelWalk(const graph::Graph& g, const graph::Placement& p,
            const graph::EdgeLabeling& l)
      : g_(g),
        p_(p),
        l_(l),
        image_(g.node_count(), graph::kInvalidNode),
        preimage_(g.node_count(), graph::kInvalidNode) {}

  /// Follows equal labels out of x and y in step.  Locally distinct labels
  /// force the port matching at every mapped pair, so the walk builds the
  /// only candidate for a color- and label-preserving isomorphism from x's
  /// component onto y's that sends x to y; true iff it is one.
  bool run(graph::NodeId x, graph::NodeId y) {
    for (const graph::NodeId u : domain_) {
      preimage_[image_[u]] = graph::kInvalidNode;
      image_[u] = graph::kInvalidNode;
    }
    domain_.clear();
    if (!bind(x, y)) return false;
    for (std::size_t head = 0; head < domain_.size(); ++head) {
      const graph::NodeId u = domain_[head];
      const graph::NodeId v = image_[u];
      for (graph::PortId a = 0; a < g_.degree(u); ++a) {
        const graph::PortId b = port_labeled(v, l_.at(u, a));
        if (b == kNoPort) return false;
        const graph::HalfEdge& hu = g_.peer(u, a);
        const graph::HalfEdge& hv = g_.peer(v, b);
        if (l_.at(hu.to, hu.to_port) != l_.at(hv.to, hv.to_port) ||
            !bind(hu.to, hv.to)) {
          return false;
        }
      }
    }
    return true;
  }

  /// The nodes the last walk mapped: all of x's component after a success.
  const std::vector<graph::NodeId>& domain() const { return domain_; }
  graph::NodeId image(graph::NodeId u) const { return image_[u]; }

 private:
  static constexpr graph::PortId kNoPort = static_cast<graph::PortId>(-1);

  graph::PortId port_labeled(graph::NodeId v, graph::Symbol s) const {
    for (graph::PortId b = 0; b < g_.degree(v); ++b) {
      if (l_.at(v, b) == s) return b;
    }
    return kNoPort;
  }

  /// Extends the map by u -> v; false if that breaks injectivity, an
  /// earlier binding of u, the coloring or the degree.
  bool bind(graph::NodeId u, graph::NodeId v) {
    if (image_[u] != graph::kInvalidNode) return image_[u] == v;
    if (preimage_[v] != graph::kInvalidNode ||
        p_.is_home_base(u) != p_.is_home_base(v) ||
        g_.degree(u) != g_.degree(v)) {
      return false;
    }
    image_[u] = v;
    preimage_[v] = u;
    domain_.push_back(u);
    return true;
  }

  const graph::Graph& g_;
  const graph::Placement& p_;
  const graph::EdgeLabeling& l_;
  std::vector<graph::NodeId> image_;
  std::vector<graph::NodeId> preimage_;
  std::vector<graph::NodeId> domain_;
};

}  // namespace

std::size_t symmetricity_of_labeling(const graph::Graph& g,
                                     const graph::Placement& p,
                                     const graph::EdgeLabeling& l) {
  const auto classes = view_classes(g, p, l);
  QELECT_CHECK(!classes.empty(), "symmetricity of an empty graph undefined");
  const std::size_t size = classes.front().size();
  for (const auto& c : classes) {
    // Yamashita-Kameda: all ~view classes of a connected graph have equal
    // cardinality.  A violation would mean a bug in the view machinery.
    QELECT_CHECK(c.size() == size,
                 "view classes of unequal size: YK invariant violated");
  }
  return size;
}

std::vector<std::vector<graph::NodeId>> label_equivalence_classes(
    const graph::Graph& g, const graph::Placement& p,
    const graph::EdgeLabeling& l) {
  const iso::ColoredDigraph d = iso::from_labeled_graph(g, p, l);
  return iso::equivalence_classes(d).classes;
}

std::vector<std::uint64_t> label_class_sizes(const graph::Graph& g,
                                             const graph::Placement& p,
                                             const graph::EdgeLabeling& l) {
  std::vector<std::uint64_t> sizes;
  for (const auto& c : label_equivalence_classes(g, p, l)) {
    sizes.push_back(c.size());
  }
  return sizes;
}

bool label_classes_all_nontrivial(const graph::Graph& g,
                                  const graph::Placement& p,
                                  const graph::EdgeLabeling& l) {
  QELECT_CHECK(l.locally_distinct(g) && p.node_count() == g.node_count(),
               "label_classes_all_nontrivial: labeling and placement must "
               "fit the graph");
  const std::size_t n = g.node_count();
  LabelWalk walk(g, p, l);
  // A walk x -> y != x is fixed-point free on x's component (a fixed point
  // would force the identity), so one success shows that every node of
  // both components has a partner.
  std::vector<bool> nontrivial(n, false);
  for (graph::NodeId x = 0; x < n; ++x) {
    if (nontrivial[x]) continue;
    bool found = false;
    for (graph::NodeId y = 0; y < n && !found; ++y) {
      found = y != x && walk.run(x, y);
    }
    if (!found) return false;
    for (const graph::NodeId u : walk.domain()) {
      nontrivial[u] = true;
      nontrivial[walk.image(u)] = true;
    }
  }
  return true;
}

std::optional<graph::NodeId> yk_quantitative_leader(
    const graph::Graph& g, const graph::Placement& p,
    const graph::EdgeLabeling& l) {
  const auto classes = view_classes(g, p, l);
  if (classes.size() != g.node_count()) return std::nullopt;  // sigma > 1
  // Every node has a distinct view.  Views at the distinguishing depth are
  // already pairwise non-isomorphic (Norris caps the depth at n-1; the
  // measured depth is usually near the diameter, keeping the explicit
  // trees small), and their integer encodings give the total order the
  // quantitative world is allowed to fix a priori.
  const std::size_t depth = std::max<std::size_t>(
      1, view_depth_needed(g, p, l));
  std::optional<graph::NodeId> best;
  std::vector<std::uint64_t> best_word;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    auto word = encode_view(build_view(g, p, l, v, depth));
    if (!best.has_value() || word < best_word) {
      best = v;
      best_word = std::move(word);
    }
  }
  return best;
}

std::size_t max_symmetricity_exhaustive(const graph::Graph& g,
                                        const graph::Placement& p,
                                        std::size_t alphabet) {
  std::size_t best = 0;
  graph::for_each_labeling(g, alphabet, [&](const graph::EdgeLabeling& l) {
    best = std::max(best, symmetricity_of_labeling(g, p, l));
    return false;
  });
  QELECT_CHECK(best > 0, "no labelings enumerated");
  return best;
}

bool exists_labeling_with_all_classes_nontrivial(const graph::Graph& g,
                                                 const graph::Placement& p,
                                                 std::size_t alphabet) {
  return graph::for_each_labeling(
      g, alphabet, [&](const graph::EdgeLabeling& l) {
        return label_classes_all_nontrivial(g, p, l);
      });
}

}  // namespace qelect::views
