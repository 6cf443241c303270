#include "qelect/iso/canonical.hpp"

#include <algorithm>
#include <utility>

#include "qelect/util/assert.hpp"
#include "refine_in_place.hpp"

namespace qelect::iso {

namespace {

// The search's buffers: one set per thread, reused across searches (as
// refinement's scratch is), so a thread stops allocating for them once
// they fit the largest digraph it searched.
struct SearchScratch {
  // depth[d] is the coloring at search depth d, rewritten for each sibling
  // there; cell[d] and tried[d] are that depth's target cell and the
  // candidates it explored.
  std::vector<Coloring> depth;
  std::vector<std::vector<NodeId>> cell;
  std::vector<std::vector<NodeId>> tried;
  std::vector<std::uint32_t> class_size;
  std::vector<NodeId> prefix;  // individualized nodes, root first
  std::vector<NodeId> inverse;
  std::vector<NodeId> best_inverse;
  std::vector<Arc> arcs;
  Certificate cert;
};

SearchScratch& thread_search_scratch() {
  thread_local SearchScratch s;
  return s;
}

// The target cell of a coloring that is not discrete: the first (lowest
// class index) non-singleton cell, nodes ascending, written to `cell`.
// The class index order is iso-invariant, so this choice is too.  Returns
// the class count, a color that no class has.
std::uint32_t target_cell(const Coloring& c,
                          std::vector<std::uint32_t>& class_size,
                          std::vector<NodeId>& cell) {
  const std::uint32_t classes = 1 + *std::max_element(c.begin(), c.end());
  class_size.assign(classes, 0);
  for (std::uint32_t v : c) ++class_size[v];
  const std::uint32_t target = static_cast<std::uint32_t>(
      std::find_if(class_size.begin(), class_size.end(),
                   [](std::uint32_t size) { return size > 1; }) -
      class_size.begin());
  QELECT_ASSERT(target < classes);
  cell.clear();
  for (NodeId x = 0; x < c.size(); ++x) {
    if (c[x] == target) cell.push_back(x);
  }
  return classes;
}

class Searcher {
 public:
  Searcher(const ColoredDigraph& g, const CanonicalOptions& options)
      : g_(g), options_(options), s_(thread_search_scratch()) {}

  CanonicalForm run() {
    const std::size_t n = g_.node_count();
    if (n == 0) {
      return CanonicalForm{{0}, {}, {}, 1};
    }
    // A search is at most n deep: each level adds a class.
    if (s_.depth.size() < n + 1) {
      s_.depth.resize(n + 1);
      s_.cell.resize(n + 1);
      s_.tried.resize(n + 1);
    }
    s_.prefix.clear();
    Coloring& root = s_.depth[0];
    root = g_.colors();
    refine_to_fixed_point(root);
    descend(0);
    CanonicalForm out;
    out.certificate = std::move(best_cert_);
    out.labeling = std::move(best_sigma_);
    out.discovered_automorphisms = std::move(autos_);
    out.leaves_evaluated = leaves_;
    return out;
  }

 private:
  void refine_to_fixed_point(Coloring& c) const {
    detail::refine_in_place(g_, c, g_.node_count() + 1);
  }

  void descend(std::size_t d) {
    const Coloring& c = s_.depth[d];
    if (is_discrete(c)) {
      leaf(c);
      return;
    }
    const std::uint32_t fresh = target_cell(c, s_.class_size, s_.cell[d]);
    std::vector<NodeId>& tried = s_.tried[d];
    tried.clear();
    Coloring& child = s_.depth[d + 1];
    for (NodeId y : s_.cell[d]) {
      if (pruned_by_automorphism(tried, y)) continue;
      tried.push_back(y);
      child = c;
      child[y] = fresh;
      refine_to_fixed_point(child);
      s_.prefix.push_back(y);
      descend(d + 1);
      s_.prefix.pop_back();
    }
  }

  // A discrete coloring is a permutation: node x sits at position c[x].
  void leaf(const std::vector<NodeId>& sigma) {
    ++leaves_;
    build_certificate(sigma);
    if (!have_best_ || s_.cert < best_cert_) {
      best_cert_.assign(s_.cert.begin(), s_.cert.end());
      best_sigma_.assign(sigma.begin(), sigma.end());
      have_best_ = true;
    } else if (s_.cert == best_cert_) {
      record_automorphism(sigma);
    }
  }

  // Fills s_.cert with certificate_under(g_, sigma), byte for byte, but
  // through reused scratch buffers and without the global arc sort: walking
  // sources in position order and sorting each source's few arcs by
  // (to, label) yields exactly the (from, to, label) order.
  void build_certificate(const std::vector<NodeId>& sigma) {
    const std::size_t n = g_.node_count();
    s_.inverse.resize(n);
    for (NodeId x = 0; x < n; ++x) s_.inverse[sigma[x]] = x;
    Certificate& cert = s_.cert;
    cert.clear();
    cert.reserve(1 + n + 1 + 3 * g_.arcs().size());
    cert.push_back(n);
    for (NodeId pos = 0; pos < n; ++pos) {
      cert.push_back(g_.color(s_.inverse[pos]));
    }
    cert.push_back(g_.arcs().size());
    for (NodeId pos = 0; pos < n; ++pos) {
      s_.arcs.clear();
      for (const Arc& a : g_.out_arcs(s_.inverse[pos])) {
        s_.arcs.push_back(Arc{pos, sigma[a.to], a.label});
      }
      std::sort(s_.arcs.begin(), s_.arcs.end());
      for (const Arc& a : s_.arcs) {
        cert.push_back(a.from);
        cert.push_back(a.to);
        cert.push_back(a.label);
      }
    }
  }

  // gamma = best_sigma^{-1} o sigma maps this leaf's relabeling onto the
  // best leaf's; equal certificates make it an automorphism.
  void record_automorphism(const std::vector<NodeId>& sigma) {
    // Pruning degrades gracefully (fewer skips, same answers) once the
    // storage cap is hit or when pruning is disabled for ablation.
    if (!options_.automorphism_pruning) return;
    if (autos_.size() >= options_.max_stored_automorphisms) return;
    s_.best_inverse.resize(best_sigma_.size());
    for (NodeId x = 0; x < best_sigma_.size(); ++x) {
      s_.best_inverse[best_sigma_[x]] = x;
    }
    std::vector<NodeId> gamma(sigma.size());
    for (NodeId x = 0; x < sigma.size(); ++x) {
      gamma[x] = s_.best_inverse[sigma[x]];
    }
    QELECT_ASSERT(is_automorphism(g_, gamma));
    autos_.push_back(std::move(gamma));
  }

  // Candidate y is redundant if a discovered automorphism fixes every
  // individualized ancestor and maps an already-tried sibling onto y: the
  // subtree below y is then the automorphic image of an explored subtree
  // and contributes no new certificates.
  bool pruned_by_automorphism(const std::vector<NodeId>& tried,
                              NodeId y) const {
    for (const auto& gamma : autos_) {
      bool fixes_prefix = true;
      for (NodeId p : s_.prefix) {
        if (gamma[p] != p) {
          fixes_prefix = false;
          break;
        }
      }
      if (!fixes_prefix) continue;
      for (NodeId x : tried) {
        if (gamma[x] == y) return true;
      }
    }
    return false;
  }

  const ColoredDigraph& g_;
  CanonicalOptions options_;
  SearchScratch& s_;
  Certificate best_cert_;
  std::vector<NodeId> best_sigma_;
  bool have_best_ = false;
  std::vector<std::vector<NodeId>> autos_;
  std::size_t leaves_ = 0;
};

}  // namespace

Certificate certificate_under(const ColoredDigraph& g,
                              const std::vector<NodeId>& sigma) {
  const std::size_t n = g.node_count();
  QELECT_CHECK(sigma.size() == n, "certificate_under: sigma size mismatch");
  Certificate cert;
  cert.reserve(1 + n + 1 + 3 * g.arcs().size());
  cert.push_back(n);
  std::vector<NodeId> inverse(n);
  for (NodeId x = 0; x < n; ++x) inverse[sigma[x]] = x;
  for (NodeId pos = 0; pos < n; ++pos) {
    cert.push_back(g.color(inverse[pos]));
  }
  std::vector<Arc> arcs;
  arcs.reserve(g.arcs().size());
  for (const Arc& a : g.arcs()) {
    arcs.push_back(Arc{sigma[a.from], sigma[a.to], a.label});
  }
  std::sort(arcs.begin(), arcs.end());
  cert.push_back(arcs.size());
  for (const Arc& a : arcs) {
    cert.push_back(a.from);
    cert.push_back(a.to);
    cert.push_back(a.label);
  }
  return cert;
}

CanonicalForm canonical_form(const ColoredDigraph& g) {
  return canonical_form(g, CanonicalOptions{});
}

CanonicalForm canonical_form(const ColoredDigraph& g,
                             const CanonicalOptions& options) {
  return Searcher(g, options).run();
}

Certificate canonical_certificate(const ColoredDigraph& g) {
  return canonical_form(g).certificate;
}

bool are_isomorphic(const ColoredDigraph& a, const ColoredDigraph& b) {
  if (a.node_count() != b.node_count()) return false;
  if (a.arcs().size() != b.arcs().size()) return false;
  return canonical_certificate(a) == canonical_certificate(b);
}

bool is_automorphism(const ColoredDigraph& g,
                     const std::vector<NodeId>& sigma) {
  const std::size_t n = g.node_count();
  if (sigma.size() != n) return false;
  std::vector<bool> used(n, false);
  for (NodeId t : sigma) {
    if (t >= n || used[t]) return false;
    used[t] = true;
  }
  for (NodeId x = 0; x < n; ++x) {
    if (g.color(sigma[x]) != g.color(x)) return false;
  }
  std::vector<Arc> mapped;
  mapped.reserve(g.arcs().size());
  for (const Arc& a : g.arcs()) {
    mapped.push_back(Arc{sigma[a.from], sigma[a.to], a.label});
  }
  std::sort(mapped.begin(), mapped.end());
  return mapped == g.arcs();
}

}  // namespace qelect::iso
