// Task expansion: a CampaignSpec becomes a deterministic, keyed task space.
//
// Each task is one unit of fault isolation: a concrete (workload, graph,
// placement, seeds) tuple with a stable human-readable key like
//
//   analyze/all-connected(5,12)/p=0.3/s=1
//
// A key is a pure function of (spec, task index), and only this file
// knows its format: the result store keeps one record per key, resume
// matches each record to its task by task_index (and refuses a record
// whose key is not that task's), fault injection matches on key
// substrings, and reports read each record's task from the TaskSpace by
// its task_index, not from its key.  Expansion is pure -- same spec, same
// tasks, same keys, same order -- which is what makes a killed-and-resumed
// campaign's store byte-identical to an uninterrupted one.
//
// The tasks are an index space (TaskSpace), not a list: the space holds
// the instances (graph x placement, or table1's 30 cells) with each key's
// head formatted once, plus the color-seed and fault axes, and task i is
// instance i / (tasks per instance), then color seed, then fault point.
// A task's key and TaskSpec are made on demand, into buffers the caller
// reuses, so a campaign of a million seeds per instance holds its
// instances, not a million TaskSpecs.
//
// GraphRef rebuilds the instance graph from (family, params); the
// "all-connected" family (every isomorphism class on n nodes, the
// landscape sweep) indexes one immutable table of iso::all_connected_graphs
// for n = 1..6, built on first use, because re-enumerating 2^15 edge
// subsets per task would dwarf the task itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/store.hpp"
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
  double labeling_budget = kDefaultLabelingBudget;
  /// Fault axis (campaigns with a non-empty `faults:` axis only): the
  /// point's label (the "/f=<label>" key segment and report group key) and
  /// its plan.  The executed plan derives a per-task fault seed from
  /// (plan.fault_seed, key) so tasks draw independent Philox streams; see
  /// workloads.cpp.
  std::string fault_label;
  fault::FaultPlan faults;
};

/// A spec's tasks, by index.  Immutable once built, so worker threads fill
/// tasks from one shared space without a lock.
class TaskSpace {
 public:
  /// Expands the instance axes.  Throws CheckError if the spec names an
  /// unknown workload or family, or if two tasks would share a key.  Keys
  /// are unique exactly when the instance heads, the color seeds and the
  /// fault labels each are (a head ends at its one "/s=", and no head
  /// holds "/f="), so each axis is checked on its own.
  explicit TaskSpace(const CampaignSpec& spec);

  std::size_t size() const { return instances_.size() * per_instance_; }
  /// Tasks that share an instance (graph, home bases): adjacent indices
  /// that differ only in color seed and fault point.
  std::size_t instance_of(std::size_t i) const { return i / per_instance_; }

  std::string key(std::size_t i) const;
  /// Overwrites every field of `task` with task i, reusing its buffers.
  void fill(std::size_t i, TaskSpec& task) const;

 private:
  struct Instance {
    std::string workload;
    std::string head;  // the key up to and including "/s="
    GraphRef graph;
    std::vector<graph::NodeId> home_bases;
    std::uint64_t cell_seed = 0;  // table1 cells: their one color seed
  };

  /// Task i's place on the axes.
  struct Point {
    const Instance& instance;
    std::uint64_t color_seed;
    const FaultPoint* fault;  // null without a faults axis
  };

  void add_instance(std::string workload, const std::string& key_prefix,
                    GraphRef graph, std::vector<graph::NodeId> home_bases,
                    std::uint64_t cell_seed = 0);
  Point at(std::size_t i) const;
  static void append_key(const Point& p, std::string& out);
  void check_unique() const;

  std::vector<Instance> instances_;
  bool cells_ = false;  // table1: one task per instance, its cell_seed
  std::vector<std::uint64_t> seeds_;
  std::vector<FaultPoint> faults_;
  std::size_t per_instance_ = 1;
  std::string scheduler_;
  std::size_t max_steps_ = 0;
  double labeling_budget_ = 0;
};

/// Every task of the spec, filled at every index of its TaskSpace.
std::vector<TaskSpec> expand_tasks(const CampaignSpec& spec);

/// Throws CheckError, naming the store, the record's key and its index,
/// unless every record of `store` is the task of `space` that its
/// task_index names.  Keys are a pure function of (spec, index), so any
/// other record is forged or corrupt; every command that reads a store
/// refuses it before acting on the store.
void check_store_records(const TaskSpace& space, const LoadedStore& store,
                         const std::string& store_path);

/// The fixed instance suite behind the "table1" workload (name, graph,
/// home bases); bench_table1 times it, and tests count the matrix's
/// cells by it.
struct Table1Instance {
  std::string name;
  GraphRef graph;
  std::vector<graph::NodeId> home_bases;
};
const std::vector<Table1Instance>& table1_instances();

}  // namespace qelect::campaign
