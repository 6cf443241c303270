// Task expansion: a CampaignSpec becomes a deterministic, keyed task list.
//
// Each task is one unit of fault isolation: a concrete (workload, graph,
// placement, seeds) tuple with a stable human-readable key like
//
//   analyze/all-connected(5,12)/p=0.3/s=1
//
// Keys are the join points of the whole subsystem: the result store maps
// key -> outcome, resume skips keys already present, fault injection
// matches on key substrings, and reports group by key prefixes.  Expansion
// is pure -- same spec, same task vector, same order -- which is what
// makes a killed-and-resumed campaign's store byte-identical to an
// uninterrupted one.
//
// GraphRef rebuilds the instance graph from (family, params) on demand, so
// tasks stay tiny; the "all-connected" family (every isomorphism class on
// n nodes, the landscape sweep) indexes one immutable table of
// iso::all_connected_graphs for n = 1..6, built on first use, because
// re-enumerating 2^15 edge subsets per task would dwarf the task itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qelect/campaign/spec.hpp"
#include "qelect/graph/graph.hpp"

namespace qelect::campaign {

/// A rebuildable reference to one instance graph.
struct GraphRef {
  std::string family;
  std::vector<std::size_t> params;

  /// Constructs the graph.  Throws CheckError for an unknown family or
  /// malformed params (a failed build is an ordinary task failure).
  graph::Graph build() const;

  /// "ring(6)", "torus(3,3)", "all-connected(5,12)", ...
  std::string label() const;

  bool operator==(const GraphRef&) const = default;
};

/// One executable unit.  `workload` here is always concrete (the "table1"
/// campaign workload expands into per-cell workloads).
struct TaskSpec {
  std::string key;
  std::string workload;
  GraphRef graph;
  std::vector<graph::NodeId> home_bases;
  std::uint64_t color_seed = 1;
  std::string scheduler = "random";
  std::size_t max_steps = 0;
  double labeling_budget = 250000.0;
  /// Fault axis (campaigns with a non-empty `faults:` axis only): the
  /// point's label (the "/f=<label>" key segment and report group key) and
  /// its plan.  The executed plan derives a per-task fault seed from
  /// (plan.fault_seed, key) so tasks draw independent Philox streams; see
  /// workloads.cpp.
  std::string fault_label;
  fault::FaultPlan faults;
};

/// Expands a spec into its full task list.  Deterministic; throws
/// CheckError if the expansion would produce duplicate keys or the spec
/// names an unknown workload/family.
std::vector<TaskSpec> expand_tasks(const CampaignSpec& spec);

/// The fixed instance suite behind the "table1" workload (name, graph,
/// home bases) -- shared with reports so the matrix can count cells.
struct Table1Instance {
  std::string name;
  GraphRef graph;
  std::vector<graph::NodeId> home_bases;
};
const std::vector<Table1Instance>& table1_instances();

}  // namespace qelect::campaign
