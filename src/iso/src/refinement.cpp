// Worklist-driven (sparse) color refinement.
//
// The seed implementation recomputed every node's signature and resorted
// the whole node set on every round -- O(n log n) signature sorts times
// O(n) rounds even when a round only moves a two-node frontier (long rings
// and tori are exactly that shape).  This implementation keeps the seed's
// observable semantics *bit for bit* (same class partition, same canonical
// class numbering, same round boundaries for refine_rounds) while doing
// work proportional to the classes a round can actually split:
//
//   * a class is examined in round k only if round k-1 split one of its
//     in- or out-neighbor classes (round 1 examines everything);
//   * within a split parent, the new sub-classes are ordered by the exact
//     sorted (label, neighbor-class) signature, which restricted to one
//     parent is precisely the seed's global signature order -- so the
//     renumbering walks the old class order and splices each split class's
//     ordered children in place, reproducing the seed numbering;
//   * the worklist for the next round marks neighbors of every child
//     *except one largest child* of each split parent (Hopcroft's
//     process-smaller-half argument: per arc label, counts into the
//     skipped child are determined by the fixed total into the parent and
//     the counts into the marked children, so no split can hide there).
//
// Signatures are still compared exactly -- by sorting, never by hash -- so
// the engine keeps the no-collision soundness guarantee the header
// documents.  tests/test_golden.cpp asserts byte-identical output against
// the retained seed implementation (iso::reference) on randomized graph
// families; the complexity is O((n + m) log n)-ish per converged instance
// instead of O(n (n + m) log n).
#include "qelect/iso/refinement.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "qelect/util/assert.hpp"
#include "refine_in_place.hpp"

namespace qelect::iso {

namespace {

using LabeledClass = std::pair<std::uint64_t, std::uint32_t>;

// All per-round scratch.  One per thread (thread_scratch), reused across
// rounds and calls, so a thread stops allocating once its scratch has the
// capacity of the largest digraph it refined.
struct Scratch {
  // Members of examined classes, grouped by class (ascending node order
  // within a class), plus the per-class offsets into `members`.
  std::vector<NodeId> members;
  std::vector<std::uint32_t> class_offset;
  std::vector<std::uint32_t> class_fill;
  std::vector<std::uint32_t> examined;  // class ids examined this round
  // Sorted (label, neighbor class) spans per examined node, both
  // directions, all living in two shared buffers.
  std::vector<LabeledClass> out_buf;
  std::vector<LabeledClass> in_buf;
  std::vector<std::uint32_t> out_begin, out_len, in_begin, in_len;
  std::vector<std::uint32_t> order;      // per-class sort permutation
  std::vector<std::uint32_t> group_of;   // node -> child index in its parent
  std::vector<std::uint32_t> extra;      // class -> (#children - 1)
  std::vector<std::uint32_t> shift;      // class -> id shift after splicing
  std::vector<std::uint8_t> examine;     // class -> examine this round?
  std::vector<std::uint8_t> examine_next;
  std::vector<std::uint32_t> child_size;  // split parent's child -> size
  std::vector<std::uint32_t> values;      // normalize_in_place's scratch
};

Scratch& thread_scratch() {
  thread_local Scratch s;
  return s;
}

// Renumbers c in place to dense indices ordered by original value (sort-
// unique + binary search over `values`, the same output as the seed's
// std::map walk).
void normalize_in_place(Coloring& c, std::vector<std::uint32_t>& values) {
  values.assign(c.begin(), c.end());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  for (std::uint32_t& v : c) {
    v = static_cast<std::uint32_t>(
        std::lower_bound(values.begin(), values.end(), v) - values.begin());
  }
}

// Appends node x's sorted signature spans (w.r.t. coloring c) to the
// shared buffers; `slot` is x's index within this round's member list.
void build_spans(const ColoredDigraph& g, const Coloring& c, NodeId x,
                 std::uint32_t slot, Scratch& s) {
  s.out_begin[slot] = static_cast<std::uint32_t>(s.out_buf.size());
  for (const Arc& a : g.out_arcs(x)) s.out_buf.emplace_back(a.label, c[a.to]);
  s.out_len[slot] =
      static_cast<std::uint32_t>(s.out_buf.size()) - s.out_begin[slot];
  std::sort(s.out_buf.begin() + s.out_begin[slot], s.out_buf.end());
  s.in_begin[slot] = static_cast<std::uint32_t>(s.in_buf.size());
  for (const Arc& a : g.in_arcs(x)) s.in_buf.emplace_back(a.label, c[a.from]);
  s.in_len[slot] =
      static_cast<std::uint32_t>(s.in_buf.size()) - s.in_begin[slot];
  std::sort(s.in_buf.begin() + s.in_begin[slot], s.in_buf.end());
}

// Exact lexicographic comparison of two examined nodes' signatures (their
// shared class id ties, so only the out then in spans decide) -- the
// seed's Signature::operator<=> restricted to one class.
int compare_slots(const Scratch& s, std::uint32_t a, std::uint32_t b) {
  const auto cmp_span = [&](const std::vector<LabeledClass>& buf,
                            std::uint32_t ba, std::uint32_t la,
                            std::uint32_t bb, std::uint32_t lb) {
    const std::size_t common = std::min(la, lb);
    for (std::size_t i = 0; i < common; ++i) {
      if (buf[ba + i] < buf[bb + i]) return -1;
      if (buf[bb + i] < buf[ba + i]) return 1;
    }
    if (la != lb) return la < lb ? -1 : 1;
    return 0;
  };
  if (const int c = cmp_span(s.out_buf, s.out_begin[a], s.out_len[a],
                             s.out_begin[b], s.out_len[b])) {
    return c;
  }
  return cmp_span(s.in_buf, s.in_begin[a], s.in_len[a], s.in_begin[b],
                  s.in_len[b]);
}

// One refinement round over the examined classes.  Returns true iff some
// class split (== the seed's "class count changed" signal).  On a split
// round the coloring is renumbered to the seed's canonical ids and
// s.examine is replaced with the next round's worklist.
bool refine_round(const ColoredDigraph& g, Coloring& c,
                  std::size_t& class_count, Scratch& s) {
  const std::size_t n = g.node_count();

  // Gather members of examined multi-member classes, ascending node order.
  s.class_offset.assign(class_count + 1, 0);
  for (NodeId x = 0; x < n; ++x) {
    if (s.examine[c[x]]) ++s.class_offset[c[x] + 1];
  }
  for (std::size_t k = 0; k < class_count; ++k) {
    s.class_offset[k + 1] += s.class_offset[k];
  }
  s.members.resize(s.class_offset[class_count]);
  s.class_fill.assign(s.class_offset.begin(), s.class_offset.end() - 1);
  for (NodeId x = 0; x < n; ++x) {
    if (s.examine[c[x]]) s.members[s.class_fill[c[x]]++] = x;
  }
  s.examined.clear();
  for (std::size_t k = 0; k < class_count; ++k) {
    if (s.class_offset[k + 1] - s.class_offset[k] >= 2) {
      s.examined.push_back(static_cast<std::uint32_t>(k));
    }
  }
  if (s.examined.empty()) return false;

  // Signatures for every member of an examined class.
  const std::uint32_t slots = s.class_offset[class_count];
  s.out_buf.clear();
  s.in_buf.clear();
  s.out_begin.resize(slots);
  s.out_len.resize(slots);
  s.in_begin.resize(slots);
  s.in_len.resize(slots);
  for (std::uint32_t k : s.examined) {
    for (std::uint32_t i = s.class_offset[k]; i < s.class_offset[k + 1]; ++i) {
      build_spans(g, c, s.members[i], i, s);
    }
  }

  // Split each examined class: sort members by exact signature, group.
  s.group_of.assign(n, 0);
  s.extra.assign(class_count, 0);
  bool any_split = false;
  for (std::uint32_t k : s.examined) {
    const std::uint32_t begin = s.class_offset[k];
    const std::uint32_t end = s.class_offset[k + 1];
    s.order.resize(end - begin);
    for (std::uint32_t i = begin; i < end; ++i) s.order[i - begin] = i;
    std::sort(s.order.begin(), s.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return compare_slots(s, a, b) < 0;
              });
    std::uint32_t groups = 0;
    for (std::size_t i = 0; i < s.order.size(); ++i) {
      if (i > 0 && compare_slots(s, s.order[i - 1], s.order[i]) != 0) {
        ++groups;
      }
      s.group_of[s.members[s.order[i]]] = groups;
    }
    if (groups > 0) {
      s.extra[k] = groups;
      any_split = true;
    }
  }
  if (!any_split) return false;

  // Canonical renumbering: walk old classes in order, splicing each split
  // class's signature-ordered children in place (exactly the order the
  // seed's global sort produces, since the old class id is the sort's
  // primary key).
  s.shift.assign(class_count, 0);
  std::uint32_t running = 0;
  for (std::size_t k = 0; k < class_count; ++k) {
    s.shift[k] = running;
    running += s.extra[k];
  }
  const std::size_t new_class_count = class_count + running;
  for (NodeId x = 0; x < n; ++x) {
    c[x] = c[x] + s.shift[c[x]] + s.group_of[x];
  }

  // Next round's worklist: neighbors of every child except one largest
  // child per split parent.  Skipping one child is sound: any class with
  // an arc into a non-skipped child gets marked here, so an *unmarked*
  // class sees the split parent only through the one skipped child --
  // its per-label counts there equal the old counts into the whole
  // parent, which were equal across the class already, so no split can
  // hide behind the skipped child.  Skipping the largest child is
  // Hopcroft's process-the-smaller-half strategy.
  s.examine_next.assign(new_class_count, 0);
  for (std::uint32_t k : s.examined) {
    if (s.extra[k] == 0) continue;
    const std::uint32_t begin = s.class_offset[k];
    const std::uint32_t end = s.class_offset[k + 1];
    // Child sizes; the first largest is the skipped one.
    s.child_size.assign(s.extra[k] + 1, 0);
    for (std::uint32_t i = begin; i < end; ++i) {
      ++s.child_size[s.group_of[s.members[i]]];
    }
    const std::uint32_t skip = static_cast<std::uint32_t>(
        std::max_element(s.child_size.begin(), s.child_size.end()) -
        s.child_size.begin());
    for (std::uint32_t i = begin; i < end; ++i) {
      const NodeId x = s.members[i];
      if (s.group_of[x] == skip) continue;
      for (const Arc& a : g.out_arcs(x)) s.examine_next[c[a.to]] = 1;
      for (const Arc& a : g.in_arcs(x)) s.examine_next[c[a.from]] = 1;
    }
  }
  s.examine.swap(s.examine_next);
  class_count = new_class_count;
  return true;
}

std::size_t run_rounds(const ColoredDigraph& g, Coloring& c,
                       std::size_t max_rounds, Scratch& s) {
  if (g.node_count() == 0 || max_rounds == 0) return 0;
  std::size_t class_count =
      static_cast<std::size_t>(*std::max_element(c.begin(), c.end())) + 1;
  s.examine.assign(class_count, 1);  // round 1 examines everything
  std::size_t rounds = 0;
  while (rounds < max_rounds && refine_round(g, c, class_count, s)) {
    ++rounds;
  }
  return rounds;
}

}  // namespace

namespace detail {

void refine_in_place(const ColoredDigraph& g, Coloring& c,
                     std::size_t max_rounds) {
  QELECT_CHECK(c.size() == g.node_count(), "refine: coloring size mismatch");
  Scratch& s = thread_scratch();
  normalize_in_place(c, s.values);
  run_rounds(g, c, max_rounds, s);
}

}  // namespace detail

Coloring normalize_coloring(const Coloring& coloring) {
  Coloring out = coloring;
  normalize_in_place(out, thread_scratch().values);
  return out;
}

Coloring refine(const ColoredDigraph& g, const Coloring& initial) {
  Coloring c = initial;
  detail::refine_in_place(g, c, g.node_count() + 1);  // fixed point in < n
  return c;
}

Coloring refine(const ColoredDigraph& g) { return refine(g, g.colors()); }

Coloring refine_rounds(const ColoredDigraph& g, const Coloring& initial,
                       std::size_t rounds) {
  Coloring c = initial;
  detail::refine_in_place(g, c, rounds);
  return c;
}

bool is_discrete(const Coloring& coloring) {
  if (coloring.empty()) return true;
  const std::uint32_t max = *std::max_element(coloring.begin(), coloring.end());
  return static_cast<std::size_t>(max) + 1 == coloring.size();
}

std::vector<std::vector<NodeId>> color_classes(const Coloring& coloring) {
  std::uint32_t max = 0;
  for (std::uint32_t c : coloring) max = std::max(max, c);
  std::vector<std::vector<NodeId>> classes(coloring.empty() ? 0 : max + 1);
  for (NodeId x = 0; x < coloring.size(); ++x) {
    classes[coloring[x]].push_back(x);
  }
  return classes;
}

}  // namespace qelect::iso
