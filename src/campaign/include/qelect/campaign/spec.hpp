// CampaignSpec: the declarative description of one experiment sweep.
//
// A campaign is (workload) x (graph axes) x (placement axis) x (seeds) x
// (scheduler/options).  The spec is deliberately small and fully
// serializable: its canonical JSON form is embedded in the result store's
// header line, so a store alone is enough to resume, audit, or re-expand
// the campaign that produced it, and the spec hash guards against
// appending results from a different sweep into the wrong store.
//
// Specs come from three places: JSON files handed to `qelect run`, the
// built-in catalog (builtin.hpp) that regenerates the paper artifacts, and
// tests building them programmatically.  Expansion into concrete tasks is
// task.hpp's job and is deterministic: same spec => same task list, same
// keys, same order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qelect/fault/plan.hpp"
#include "qelect/graph/graph.hpp"

namespace qelect::campaign {

/// Default Theorem 2.1 search budget (labelings); ELECTABLE uses it too.
inline constexpr double kDefaultLabelingBudget = 250000.0;

/// One family x size-range axis, e.g. rings n in [3, 8].  `params` carries
/// the family-specific extras (torus side lengths, circulant offsets,
/// random-graph edge probability in percent).  Families with a size range
/// expand to one graph per n; fixed families ("petersen", "torus", ...)
/// ignore the range; "all-connected" expands further to every isomorphism
/// class of connected graphs on n nodes.
struct GraphAxis {
  std::string family;
  std::size_t n_min = 0;
  std::size_t n_max = 0;
  std::vector<std::size_t> params;

  bool operator==(const GraphAxis&) const = default;
};

/// How agents are placed on each expanded graph.
struct PlacementAxis {
  enum class Mode {
    Enumerate,  // every placement of r agents, r in [agents_min, agents_max]
    Random,     // `seeds` random placements per agent count
    Fixed,      // exactly the home-bases in `fixed`
  };

  Mode mode = Mode::Enumerate;
  std::size_t agents_min = 1;
  /// agents_max == 0 means "up to the node count" (the landscape sweep).
  std::size_t agents_max = 1;
  std::uint64_t seeds = 1;  // Random mode: placement seeds 0..seeds-1
  std::vector<graph::NodeId> fixed;

  bool operator==(const PlacementAxis&) const = default;
};

/// Deterministic fault injection for the resilience tests and CI smoke:
/// a task whose key contains `match` throws on its first `fail_attempts`
/// attempts.  Empty `match` disables injection.
struct FailInjection {
  std::string match;
  int fail_attempts = 0;

  bool operator==(const FailInjection&) const = default;
};

/// One point of the fault axis: a labeled FaultPlan.  A campaign with a
/// non-empty `faults` axis runs every task grid point once per fault
/// point; the label appears in task keys ("/f=<label>") and is the group
/// key for the degradation report's survival matrix.  A point whose plan
/// has every rate zero is the fault-free control row.
struct FaultPoint {
  std::string label;
  fault::FaultPlan plan;

  bool operator==(const FaultPoint&) const = default;
};

struct CampaignSpec {
  std::string name;
  /// Workload executed per task: "analyze" (feasibility classification),
  /// "elect" (live ELECT vs the gcd oracle), "quantitative" (universal
  /// baseline), "moves" (Theorem 3.1 move-budget measurement), or "table1"
  /// (the fixed cell suite reproducing the paper's feasibility matrix).
  std::string workload;
  std::vector<GraphAxis> graphs;
  PlacementAxis placements;
  std::vector<std::uint64_t> color_seeds = {1};
  std::string scheduler = "random";  // random | round-robin | lockstep | counter
  std::size_t max_steps = 0;         // 0 = simulator default
  int retries = 1;                   // re-attempts after a failed attempt
  double timeout_seconds = 0;        // cooperative per-attempt deadline; 0 = off
  double labeling_budget = kDefaultLabelingBudget;
  FailInjection inject;
  /// Fault-injection axis (src/fault).  Empty (the default, and the only
  /// value the pre-fault schema could express) is serialized as nothing at
  /// all, so existing spec JSON -- and the spec hashes gating store resume
  /// -- are byte-identical.
  std::vector<FaultPoint> faults;

  bool operator==(const CampaignSpec&) const = default;

  /// Canonical single-line JSON: fixed field order, no whitespace.  Equal
  /// specs serialize to equal bytes (the store-header determinism the
  /// resume tests rely on).
  std::string to_json() const;

  /// FNV-1a of to_json(); the store's spec-compatibility check.
  std::uint64_t spec_hash() const;

  /// Parses a spec from JSON text (any field order; unknown keys rejected
  /// except the retired "backend", which is ignored).
  static CampaignSpec from_json_text(const std::string& text);
};

/// FNV-1a of spec JSON text; spec_hash() is spec_json_hash(to_json()).  A
/// store header's integrity is this hash of the JSON it was written with.
std::uint64_t spec_json_hash(const std::string& json);

}  // namespace qelect::campaign
