#include "qelect/views/views.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "qelect/iso/colored_digraph.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::views {

namespace {

// (node, remaining depth) -> already-built subtree.  The subtree below a
// tree node depends only on that pair, so memoizing turns the deg^depth
// tree into a DAG with at most n * (depth + 1) distinct subtrees; the
// shared_ptr children of ViewTree make the sharing invisible to callers
// (same unrolled tree, exponentially less churn).
using BuildMemo =
    std::unordered_map<std::uint64_t, std::shared_ptr<const ViewTree>>;

std::shared_ptr<const ViewTree> build_view_rec(const graph::Graph& g,
                                               const graph::Placement& p,
                                               const graph::EdgeLabeling& l,
                                               NodeId x, std::size_t depth,
                                               BuildMemo& memo) {
  const std::uint64_t key = (static_cast<std::uint64_t>(x) << 32) | depth;
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  auto tree = std::make_shared<ViewTree>();
  tree->root_color = p.is_home_base(x) ? 1 : 0;
  if (depth > 0) {
    tree->children.reserve(g.degree(x));
    for (PortId port = 0; port < g.degree(x); ++port) {
      const graph::HalfEdge& h = g.peer(x, port);
      ViewTree::Child child;
      child.near_label = l.at(x, port);
      child.far_label = l.at(h.to, h.to_port);
      child.subtree = build_view_rec(g, p, l, h.to, depth - 1, memo);
      tree->children.push_back(std::move(child));
    }
  }
  memo.emplace(key, tree);
  return tree;
}

// Encodes a view with children sorted by their own encodings, making the
// result independent of port order (view isomorphism ignores port
// numbering; only labels matter).  Memoized by subtree identity: a shared
// subtree (every tree build_view returns is maximally shared) is encoded
// once, not once per occurrence.
using EncodeMemo =
    std::unordered_map<const ViewTree*, std::vector<std::uint64_t>>;

const std::vector<std::uint64_t>& encode_rec(const ViewTree& view,
                                             EncodeMemo& memo) {
  if (auto it = memo.find(&view); it != memo.end()) return it->second;
  std::vector<std::uint64_t> out;
  out.push_back(0xFEED0000ULL + view.root_color);
  std::vector<std::vector<std::uint64_t>> child_words;
  child_words.reserve(view.children.size());
  for (const auto& child : view.children) {
    std::vector<std::uint64_t> w;
    const std::vector<std::uint64_t>& sub = encode_rec(*child.subtree, memo);
    w.reserve(1 + sub.size());
    w.push_back((static_cast<std::uint64_t>(child.near_label) << 32) |
                child.far_label);
    w.insert(w.end(), sub.begin(), sub.end());
    child_words.push_back(std::move(w));
  }
  std::sort(child_words.begin(), child_words.end());
  out.push_back(0xFEED1000ULL + child_words.size());
  for (const auto& w : child_words) {
    out.push_back(0xFEED2000ULL);  // child separator keeps encoding prefix-free
    out.insert(out.end(), w.begin(), w.end());
  }
  out.push_back(0xFEED3000ULL);
  return memo.emplace(&view, std::move(out)).first->second;
}

}  // namespace

ViewTree build_view(const graph::Graph& g, const graph::Placement& p,
                    const graph::EdgeLabeling& l, NodeId root,
                    std::size_t depth) {
  QELECT_CHECK(root < g.node_count(), "build_view: root out of range");
  QELECT_CHECK(l.locally_distinct(g), "build_view: labeling must fit graph");
  QELECT_CHECK(p.node_count() == g.node_count(),
               "build_view: placement size mismatch");
  BuildMemo memo;
  return *build_view_rec(g, p, l, root, depth, memo);
}

std::vector<std::uint64_t> encode_view(const ViewTree& view) {
  EncodeMemo memo;
  return encode_rec(view, memo);
}

namespace {

// Symbol collection and renaming are memoized by subtree identity for the
// same reason encoding is: the trees build_view hands out are maximally
// shared DAGs, and the qualitative minimization walks them 8! times.
void collect_symbols(const ViewTree& view, std::vector<std::uint32_t>& out,
                     std::unordered_set<const ViewTree*>& seen) {
  if (!seen.insert(&view).second) return;
  for (const auto& child : view.children) {
    out.push_back(child.near_label);
    out.push_back(child.far_label);
    collect_symbols(*child.subtree, out, seen);
  }
}

using RenameMemo =
    std::unordered_map<const ViewTree*, std::shared_ptr<const ViewTree>>;

std::shared_ptr<const ViewTree> rename_tree(
    const ViewTree& view, const std::map<std::uint32_t, std::uint32_t>& map,
    RenameMemo& memo) {
  if (auto it = memo.find(&view); it != memo.end()) return it->second;
  auto out = std::make_shared<ViewTree>();
  out->root_color = view.root_color;
  out->children.reserve(view.children.size());
  for (const auto& child : view.children) {
    ViewTree::Child c;
    c.near_label = map.at(child.near_label);
    c.far_label = map.at(child.far_label);
    c.subtree = rename_tree(*child.subtree, map, memo);
    out->children.push_back(std::move(c));
  }
  memo.emplace(&view, out);
  return out;
}

}  // namespace

std::vector<std::uint64_t> encode_view_qualitative(const ViewTree& view) {
  // In the qualitative model symbols can be tested for equality only, so a
  // view is meaningful only up to a bijective renaming of its symbols.  The
  // canonical qualitative encoding is the minimum exact encoding over all
  // renamings -- exactly what an agent that can "produce its own encoding
  // of the colors" (Section 1.2) is able to compute about its own view.
  std::vector<std::uint32_t> symbols;
  std::unordered_set<const ViewTree*> seen;
  collect_symbols(view, symbols, seen);
  std::sort(symbols.begin(), symbols.end());
  symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
  QELECT_CHECK(symbols.size() <= 8,
               "encode_view_qualitative supports at most 8 distinct symbols");
  std::vector<std::uint32_t> target(symbols.size());
  for (std::uint32_t i = 0; i < target.size(); ++i) target[i] = i + 1;

  std::vector<std::uint64_t> best;
  std::vector<std::uint32_t> perm = target;
  do {
    std::map<std::uint32_t, std::uint32_t> renaming;
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      renaming[symbols[i]] = perm[i];
    }
    RenameMemo rename_memo;
    auto renamed = rename_tree(view, renaming, rename_memo);
    auto word = encode_view(*renamed);
    if (best.empty() || word < best) best = std::move(word);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

std::vector<std::uint32_t> first_seen_code(
    const std::vector<std::uint32_t>& symbols) {
  std::map<std::uint32_t, std::uint32_t> rename;
  std::vector<std::uint32_t> out;
  out.reserve(symbols.size());
  for (std::uint32_t s : symbols) {
    const auto [it, inserted] =
        rename.emplace(s, static_cast<std::uint32_t>(rename.size() + 1));
    (void)inserted;
    out.push_back(it->second);
  }
  return out;
}

iso::Coloring view_coloring(const graph::Graph& g, const graph::Placement& p,
                            const graph::EdgeLabeling& l) {
  const iso::ColoredDigraph d = iso::from_labeled_graph(g, p, l);
  // Norris: depth n-1 suffices; refinement to a fixed point reaches it in
  // at most n-1 rounds anyway, so run to the fixed point.
  return iso::refine(d);
}

std::vector<std::vector<NodeId>> view_classes(const graph::Graph& g,
                                              const graph::Placement& p,
                                              const graph::EdgeLabeling& l) {
  return iso::color_classes(view_coloring(g, p, l));
}

ViewQuotient view_quotient(const graph::Graph& g, const graph::Placement& p,
                           const graph::EdgeLabeling& l) {
  const iso::Coloring coloring = view_coloring(g, p, l);
  const auto classes = iso::color_classes(coloring);
  ViewQuotient out;
  out.projection.assign(g.node_count(), 0);
  for (NodeId x = 0; x < g.node_count(); ++x) {
    out.projection[x] = coloring[x];
  }
  out.fiber_size = classes.front().size();
  // Edges of the quotient: every node of a class carries the same number
  // of ports into each target class (views agree), so project one
  // representative's port multiset.  k ports into a different class B give
  // k parallel quotient edges (B's representative contributes the mirror
  // k, skipped by the target > c guard); j ports back into the own class
  // give j/2 loops.  Odd j means the quotient needs a half-edge and is not
  // realizable as a plain graph (e.g. K_2 with equal labels); we round
  // down and record it via `realizable` on the result.
  graph::Graph q(classes.size());
  bool realizable = true;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const NodeId rep = classes[c].front();
    std::size_t self_ports = 0;
    for (graph::PortId port = 0; port < g.degree(rep); ++port) {
      const graph::HalfEdge& h = g.peer(rep, port);
      const std::size_t target = coloring[h.to];
      if (target > c) {
        q.add_edge(static_cast<NodeId>(c), static_cast<NodeId>(target));
      } else if (target == c) {
        ++self_ports;
      }
    }
    for (std::size_t loop = 0; loop < self_ports / 2; ++loop) {
      q.add_edge(static_cast<NodeId>(c), static_cast<NodeId>(c));
    }
    if (self_ports % 2 != 0) realizable = false;
  }
  out.graph = std::move(q);
  out.realizable = realizable;
  return out;
}

std::size_t view_depth_needed(const graph::Graph& g,
                              const graph::Placement& p,
                              const graph::EdgeLabeling& l) {
  const iso::ColoredDigraph d = iso::from_labeled_graph(g, p, l);
  const iso::Coloring fixed = iso::refine(d);
  const std::size_t n = g.node_count();
  for (std::size_t k = 0; k < n; ++k) {
    if (iso::refine_rounds(d, d.colors(), k) == fixed) return k;
  }
  return n;  // unreachable by Norris; kept as a defensive ceiling
}

}  // namespace qelect::views
