#include "qelect/core/analysis.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "qelect/cayley/translation.hpp"
#include "qelect/core/surrounding.hpp"
#include "qelect/iso/refinement.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/math.hpp"
#include "qelect/views/symmetricity.hpp"
#include "structure_cache.hpp"

namespace qelect::core {

std::size_t ProtocolClassPlan::phases_executed() const {
  // Phase index i consumes classes[i+1]; ELECT stops as soon as the active
  // set has a single member (the while-loops' |D| > 1 guard), including
  // before the first phase when |C_1| == 1.
  if (!sizes.empty() && sizes.front() == 1) return 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] == 1) return i + 1;
  }
  return d.size();
}

namespace {

ProtocolClassPlan protocol_plan_uncached(const graph::Graph& g,
                                         const graph::Placement& p) {
  QELECT_CHECK(p.agent_count() > 0, "protocol_plan: no agents placed");
  const iso::OrderedClasses ordered = surrounding_classes(g, p);

  ProtocolClassPlan plan;
  // Black classes first (prec order), then white classes (prec order);
  // class membership is color-pure because automorphisms preserve the
  // bi-coloring.
  for (const auto& cls : ordered.classes) {
    if (p.is_home_base(cls.front())) plan.classes.push_back(cls);
  }
  plan.ell = plan.classes.size();
  for (const auto& cls : ordered.classes) {
    if (!p.is_home_base(cls.front())) plan.classes.push_back(cls);
  }
  for (const auto& cls : plan.classes) {
    for ([[maybe_unused]] NodeId x : cls) {
      QELECT_ASSERT(p.is_home_base(x) == p.is_home_base(cls.front()));
    }
    plan.sizes.push_back(cls.size());
  }
  std::uint64_t running = plan.sizes.front();
  for (std::size_t i = 1; i < plan.sizes.size(); ++i) {
    running = std::gcd(running, plan.sizes[i]);
    plan.d.push_back(running);
  }
  plan.final_gcd = gcd_all(plan.sizes);
  QELECT_ASSERT(plan.d.empty() || plan.d.back() == plan.final_gcd);
  return plan;
}

}  // namespace

std::shared_ptr<const ProtocolClassPlan> protocol_plan_shared(
    const graph::Graph& g, const graph::Placement& p) {
  // Memoized: the plan is a pure function of (port structure, home bases),
  // and the dominant caller -- an ELECT agent deriving the plan from its
  // map, every run -- re-submits identical structures millions of times in
  // a campaign.  The surrounding-certificate cascade this skips is the
  // single most expensive part of an elect run.
  static util::LruCache<detail::StructureKey, ProtocolClassPlan,
                        util::WordsHash>
      cache(4096);
  return cache.get(detail::structure_key(g, p),
                   [&] { return protocol_plan_uncached(g, p); });
}

ProtocolClassPlan protocol_plan(const graph::Graph& g,
                                const graph::Placement& p) {
  return *protocol_plan_shared(g, p);
}

namespace {

/// What one memo entry costs: its key plus one word per permutation entry.
/// The bound is in words, not entries: one served complete(8) holds 2,760
/// regular subgroups, while a non-Cayley graph holds none.
std::size_t recognition_words(const std::vector<std::uint64_t>& key,
                              const cayley::RecognitionResult& result) {
  std::size_t words = key.size();
  for (const cayley::RegularSubgroup& r : result.regular_subgroups) {
    words += r.order() * r.order();
  }
  return words;
}

}  // namespace

RecognitionMemo::RecognitionMemo(std::size_t budget_words)
    : LruCache(budget_words, &recognition_words) {}

std::shared_ptr<const cayley::RecognitionResult> RecognitionMemo::recognize(
    const graph::Graph& g) {
  return get(detail::structure_key(g),
             [&] { return cayley::recognize_cayley(g); });
}

std::shared_ptr<const cayley::RecognitionResult> recognize_cayley_shared(
    const graph::Graph& g) {
  static RecognitionMemo memo(kRecognitionMemoWords);
  return memo.recognize(g);
}

std::uint64_t final_gcd(const graph::Graph& g, const graph::Placement& p) {
  QELECT_CHECK(p.agent_count() > 0, "final_gcd: no agents placed");
  QELECT_CHECK(p.node_count() == g.node_count(),
               "final_gcd: placement mismatch");
  if (g.is_connected()) {
    const iso::Coloring cells = iso::refine(iso::from_bicolored_graph(g, p));
    std::vector<std::uint64_t> sizes(
        *std::max_element(cells.begin(), cells.end()) + 1, 0);
    for (const std::uint32_t c : cells) ++sizes[c];
    if (gcd_all(sizes) == 1) return 1;
  }
  return protocol_plan_shared(g, p)->final_gcd;
}

std::string FeasibilityReport::verdict_string() const {
  switch (verdict) {
    case Verdict::Possible:
      return "possible";
    case Verdict::Impossible:
      return "impossible";
    case Verdict::Unknown:
      return "unknown";
  }
  return "?";
}

FeasibilityReport analyze(const graph::Graph& g, const graph::Placement& p,
                          bool check_cayley, std::size_t exhaustive_alphabet) {
  FeasibilityReport report;
  report.plan = protocol_plan(g, p);
  report.elect_succeeds = report.plan.final_gcd == 1;
  if (report.elect_succeeds) {
    report.verdict = Verdict::Possible;
  }
  if (check_cayley) {
    report.cayley_checked = true;
    const auto rec = recognize_cayley_shared(g);
    report.is_cayley = rec->is_cayley;
    report.cayley_enumeration_complete = rec->aut_enumeration_complete;
    report.aut_order = rec->aut_order;
    report.regular_subgroup_count = rec->regular_subgroups.size();
    if (rec->is_cayley) {
      report.translation_obstruction =
          cayley::max_translation_obstruction(rec->regular_subgroups, p);
      if (report.translation_obstruction > 1) {
        // Theorem 4.1's construction turns this subgroup into a labeling
        // with all ~lab classes of size > 1; Theorem 2.1 then applies.  A
        // simultaneous gcd == 1 would contradict the two theorems.
        QELECT_CHECK(!report.elect_succeeds,
                     "theory violation: translation obstruction with gcd 1");
        report.verdict = Verdict::Impossible;
      }
    }
  }
  if (report.verdict == Verdict::Unknown && exhaustive_alphabet > 0 &&
      impossibility_by_exhaustive_labelings(g, p, exhaustive_alphabet)) {
    QELECT_CHECK(!report.elect_succeeds,
                 "theory violation: labeling obstruction with gcd 1");
    report.verdict = Verdict::Impossible;
  }
  return report;
}

bool impossibility_by_exhaustive_labelings(const graph::Graph& g,
                                           const graph::Placement& p,
                                           std::size_t alphabet) {
  return views::exists_labeling_with_all_classes_nontrivial(g, p, alphabet);
}

std::uint64_t theorem31_move_budget(const graph::Graph& g,
                                    const graph::Placement& p) {
  return static_cast<std::uint64_t>(p.agent_count()) * g.edge_count();
}

}  // namespace qelect::core
