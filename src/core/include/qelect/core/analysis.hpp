// Offline feasibility analytics: the oracle side of every protocol.
//
// Everything protocol ELECT computes from an agent's map is reproduced here
// as pure functions of (G, p): the ordered class plan (COMPUTE&ORDER), the
// gcd reduction schedule (the d_i invariants of Theorem 3.1), and the
// solvability verdict combining Theorem 3.1 (gcd = 1 => ELECT succeeds),
// the corrected Theorem 4.1 test (a regular subgroup with a nontrivial
// color-preserving translation => impossible), and Theorem 2.1's exhaustive
// labeling check for tiny instances.  Tests drive the live protocols and
// require their observable outcomes to match these oracles on every
// instance, scheduler, and seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qelect/cayley/recognition.hpp"
#include "qelect/graph/graph.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/equivalence.hpp"
#include "qelect/util/hash.hpp"
#include "qelect/util/lru_cache.hpp"

namespace qelect::core {

using graph::NodeId;

/// The deterministic class schedule every agent derives from its map:
/// home-base classes first (in prec order), then node-only classes (in prec
/// order), plus the gcd cascade the reduction phases will realize.
struct ProtocolClassPlan {
  /// classes[0..ell-1] are black (home-base) classes; the rest are white.
  std::vector<std::vector<NodeId>> classes;
  std::size_t ell = 0;  // number of home-base classes
  std::vector<std::uint64_t> sizes;  // |C_1| .. |C_k|
  /// d[i] = gcd(|C_1|, ..., |C_{i+1}|): the active-agent count after phase
  /// i+1 (d.front() corresponds to the first reduction phase; empty when
  /// k == 1).
  std::vector<std::uint64_t> d;
  std::uint64_t final_gcd = 0;  // gcd of all class sizes

  /// Index (into `classes`) of the phases actually executed by ELECT:
  /// phases stop early once the running gcd hits 1.
  std::size_t phases_executed() const;
};

/// Computes the plan from the global graph (the oracle view).
ProtocolClassPlan protocol_plan(const graph::Graph& g,
                                const graph::Placement& p);

/// Same plan without the copy: hands back the memoized cache entry itself.
/// Hot callers (an ELECT agent deriving the plan from its map every run)
/// read the plan but never mutate it.
std::shared_ptr<const ProtocolClassPlan> protocol_plan_shared(
    const graph::Graph& g, const graph::Placement& p);

/// protocol_plan(g, p).final_gcd, with the same input checks, for callers
/// that read nothing else.  Orbits refine the stable coloring of (G, p),
/// so every refinement cell is a union of classes and the class gcd
/// divides each cell size: on a connected G a cell gcd of 1 answers 1
/// with no certificate.  Any other cell gcd computes the plan, because
/// the converse fails (the Frucht graph with every node a home base is
/// one cell of 12 singleton orbits).
std::uint64_t final_gcd(const graph::Graph& g, const graph::Placement& p);

/// The word budget of the memo behind recognize_cayley_shared.
inline constexpr std::size_t kRecognitionMemoWords = std::size_t{1} << 22;

/// cayley::recognize_cayley(g) with its default limits, memoized on the
/// exact port structure of g.  By Sabidussi the answer depends on G
/// alone, while callers ask once per placement (the landscape makes 465
/// calls on 45 graphs).  One process-wide RecognitionMemo with a budget of
/// kRecognitionMemoWords.
std::shared_ptr<const cayley::RecognitionResult> recognize_cayley_shared(
    const graph::Graph& g);

/// The memo behind recognize_cayley_shared; tests build their own to reach
/// the budget paths.  A util::LruCache whose capacity is counted in words:
/// each entry costs its key plus one word per permutation entry of its
/// regular subgroups, least-recently-used entries are evicted until a new
/// one fits, and a result larger than the whole budget is returned without
/// being stored.  Recognition runs outside the lock and an insert race
/// keeps the incumbent.
class RecognitionMemo
    : public util::LruCache<std::vector<std::uint64_t>,
                            cayley::RecognitionResult, util::WordsHash> {
 public:
  explicit RecognitionMemo(std::size_t budget_words);

  std::shared_ptr<const cayley::RecognitionResult> recognize(
      const graph::Graph& g);
};

/// Solvability verdicts for an election instance.
enum class Verdict {
  Possible,    // ELECT elects (gcd of class sizes == 1, Theorem 3.1)
  Impossible,  // proven impossible (Theorem 2.1 route)
  Unknown,     // neither proof applies (e.g. Petersen-like instances)
};

/// Full analysis of one instance.
struct FeasibilityReport {
  ProtocolClassPlan plan;
  bool elect_succeeds = false;  // plan.final_gcd == 1

  bool cayley_checked = false;
  bool is_cayley = false;
  bool cayley_enumeration_complete = false;
  std::size_t aut_order = 0;
  std::size_t regular_subgroup_count = 0;
  /// max |R_p| over all regular subgroups; > 1 proves impossibility.
  std::size_t translation_obstruction = 0;

  Verdict verdict = Verdict::Unknown;

  std::string verdict_string() const;
};

/// Analyzes (G, p).  When `check_cayley` is set the Cayley machinery runs
/// (exponential in the worst case; intended for the moderate sizes of the
/// experiments), with recognition through recognize_cayley_shared.  When
/// `exhaustive_alphabet` > 0 and the verdict is still open, the Theorem
/// 2.1 labeling search runs over that alphabet (only feasible for tiny
/// graphs: the labeling count is prod_x P(a, deg x)); finding an
/// all-nontrivial labeling upgrades the verdict to Impossible.
FeasibilityReport analyze(const graph::Graph& g, const graph::Placement& p,
                          bool check_cayley = true,
                          std::size_t exhaustive_alphabet = 0);

/// One election instance for batch analysis.
struct InstanceSpec {
  graph::Graph g;
  graph::Placement p;
};

/// Analyzes many instances, distributing them over `threads` hardware
/// threads (0 = all).  Results are in input order and identical to calling
/// analyze() sequentially (the analytics are pure).
std::vector<FeasibilityReport> analyze_batch(
    const std::vector<InstanceSpec>& instances, bool check_cayley = true,
    unsigned threads = 0);

/// Theorem 2.1 exhaustive check for tiny instances: returns true if some
/// locally-distinct labeling over `alphabet` symbols has every ~lab class
/// of size > 1 (a proof of impossibility).
bool impossibility_by_exhaustive_labelings(const graph::Graph& g,
                                           const graph::Placement& p,
                                           std::size_t alphabet);

/// The r * |E| unit of Theorem 3.1's O(r|E|) move bound for the instance.
/// Trace invariant checkers and benches express measured move counts as a
/// multiple of this budget (the paper's constant is small; ELECT measures
/// at ~2-4 budgets end to end).
std::uint64_t theorem31_move_budget(const graph::Graph& g,
                                    const graph::Placement& p);

}  // namespace qelect::core
