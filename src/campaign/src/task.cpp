#include "qelect/campaign/task.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <numeric>
#include <set>
#include <string_view>
#include <unordered_set>

#include "qelect/graph/families.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/enumerate.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::campaign {

namespace {

/// iso::all_connected_graphs(n): every n in [1, 6] is enumerated once per
/// process on first use (about 20 ms) into a table that is read-only from
/// then on, so the landscape expansion and every all-connected task share
/// it without a lock.
const std::vector<graph::Graph>& connected_graphs(std::size_t n) {
  static const std::vector<std::vector<graph::Graph>> table = [] {
    std::vector<std::vector<graph::Graph>> by_n;
    for (std::size_t k = 1; k <= 6; ++k) {
      by_n.push_back(iso::all_connected_graphs(k));
    }
    return by_n;
  }();
  if (n == 0 || n > table.size()) {
    (void)iso::all_connected_graphs(n);  // throws its range CheckError
  }
  return table[n - 1];
}

std::size_t param_at(const std::vector<std::size_t>& params, std::size_t i,
                     const std::string& family) {
  QELECT_CHECK(i < params.size(),
               "graph family '" + family + "' needs parameter " +
                   std::to_string(i + 1));
  return params[i];
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[std::numeric_limits<std::uint64_t>::digits10 + 1];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;  // the buffer holds every uint64
  out.append(buf, end);
}

void append_label(std::string& out, const GraphRef& ref) {
  out += ref.family;
  out += '(';
  for (std::size_t i = 0; i < ref.params.size(); ++i) {
    if (i > 0) out += ',';
    append_uint(out, ref.params[i]);
  }
  out += ')';
}

/// C(n, r), or the largest std::uint64_t when C(n, r) exceeds it.
std::uint64_t binomial_saturating(std::uint64_t n, std::uint64_t r) {
  if (r > n) return 0;
  r = std::min(r, n - r);
  std::uint64_t c = 1;  // C(n, k)
  for (std::uint64_t k = 0; k < r; ++k) {
    // C(n, k + 1) = C(n, k) * (n - k) / (k + 1), dividing first: g takes
    // every factor c shares with k + 1, and the rest of k + 1 divides
    // n - k exactly.
    const std::uint64_t g = std::gcd(c, k + 1);
    const std::uint64_t factor = (n - k) / ((k + 1) / g);
    if (c / g > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    c = c / g * factor;
  }
  return c;
}

}  // namespace

graph::Graph GraphRef::build() const {
  const auto p = [&](std::size_t i) { return param_at(params, i, family); };
  if (family == "ring") return graph::ring(p(0));
  if (family == "path") return graph::path(p(0));
  if (family == "complete") return graph::complete(p(0));
  if (family == "star") return graph::star(p(0));
  if (family == "hypercube") return graph::hypercube(static_cast<unsigned>(p(0)));
  if (family == "torus") return graph::torus(params);
  if (family == "circulant") {
    QELECT_CHECK(params.size() >= 2, "circulant needs n plus offsets");
    return graph::circulant(
        params[0], std::vector<std::size_t>(params.begin() + 1, params.end()));
  }
  if (family == "complete-bipartite") return graph::complete_bipartite(p(0), p(1));
  if (family == "ccc") return graph::cube_connected_cycles(static_cast<unsigned>(p(0)));
  if (family == "wrapped-butterfly") return graph::wrapped_butterfly(static_cast<unsigned>(p(0)));
  if (family == "petersen") return graph::petersen();
  if (family == "generalized-petersen") return graph::generalized_petersen(p(0), p(1));
  if (family == "random") {
    // params: n, seed, edge probability in percent (default 30).
    const double prob =
        params.size() >= 3 ? static_cast<double>(params[2]) / 100.0 : 0.3;
    return graph::random_connected(p(0), prob, p(1));
  }
  if (family == "all-connected") {
    const std::size_t n = p(0);
    const std::size_t idx = p(1);
    const auto& graphs = connected_graphs(n);
    QELECT_CHECK(idx < graphs.size(),
                 "all-connected(" + std::to_string(n) + ") has only " +
                     std::to_string(graphs.size()) + " classes");
    return graphs[idx];
  }
  throw CheckError("unknown graph family '" + family + "'");
}

std::string GraphRef::label() const {
  std::string out;
  append_label(out, *this);
  return out;
}

const std::vector<Table1Instance>& table1_instances() {
  // The exact sweep suite of bench_table1: the named instances backing the
  // qualitative and quantitative rows of the reproduced matrix.
  static const std::vector<Table1Instance> instances = {
      {"C5{0,1}", {"ring", {5}}, {0, 1}},
      {"C6{0,2}", {"ring", {6}}, {0, 2}},
      {"C6{0,3}", {"ring", {6}}, {0, 3}},
      {"C4{0,1}", {"ring", {4}}, {0, 1}},
      {"K2{0,1}", {"complete", {2}}, {0, 1}},
      {"Q3{0,3,5}", {"hypercube", {3}}, {0, 3, 5}},
      {"Q3{0,7}", {"hypercube", {3}}, {0, 7}},
      {"T33{0,4}", {"torus", {3, 3}}, {0, 4}},
      {"K5{0,1}", {"complete", {5}}, {0, 1}},
  };
  return instances;
}

namespace {

/// Expands one graph axis into concrete GraphRefs.
std::vector<GraphRef> expand_axis(const GraphAxis& axis) {
  std::vector<GraphRef> out;
  const bool ranged = axis.n_max >= axis.n_min && axis.n_max > 0;
  if (axis.family == "all-connected") {
    QELECT_CHECK(ranged, "all-connected axis needs an n range");
    for (std::size_t n = axis.n_min; n <= axis.n_max; ++n) {
      const std::size_t count = connected_graphs(n).size();
      for (std::size_t idx = 0; idx < count; ++idx) {
        out.push_back({axis.family, {n, idx}});
      }
    }
    return out;
  }
  if (axis.family == "random") {
    QELECT_CHECK(ranged, "random axis needs an n range");
    // params: [seed_count, edge probability percent]
    const std::size_t seed_count =
        axis.params.empty() ? 1 : axis.params[0];
    for (std::size_t n = axis.n_min; n <= axis.n_max; ++n) {
      for (std::size_t s = 0; s < seed_count; ++s) {
        GraphRef ref{axis.family, {n, s}};
        if (axis.params.size() >= 2) ref.params.push_back(axis.params[1]);
        out.push_back(std::move(ref));
      }
    }
    return out;
  }
  if (!ranged) {
    // Fixed family: params pass through (petersen, torus(3,3), ...).
    out.push_back({axis.family, axis.params});
    return out;
  }
  for (std::size_t n = axis.n_min; n <= axis.n_max; ++n) {
    GraphRef ref{axis.family, {n}};
    ref.params.insert(ref.params.end(), axis.params.begin(),
                      axis.params.end());
    out.push_back(std::move(ref));
  }
  return out;
}

/// Expands the placement axis for one already-built graph.
std::vector<std::vector<graph::NodeId>> expand_placements(
    const PlacementAxis& axis, const graph::Graph& g) {
  std::vector<std::vector<graph::NodeId>> out;
  const std::size_t n = g.node_count();
  switch (axis.mode) {
    case PlacementAxis::Mode::Fixed:
      out.push_back(axis.fixed);
      return out;
    case PlacementAxis::Mode::Enumerate: {
      const std::size_t hi =
          axis.agents_max == 0 ? n : std::min(axis.agents_max, n);
      for (std::size_t r = axis.agents_min; r <= hi; ++r) {
        for (const auto& p : graph::enumerate_placements(n, r)) {
          out.push_back(p.home_bases());
        }
      }
      return out;
    }
    case PlacementAxis::Mode::Random: {
      const std::size_t hi =
          axis.agents_max == 0 ? n : std::min(axis.agents_max, n);
      for (std::size_t r = axis.agents_min; r <= hi; ++r) {
        // Distinct seeds can sample the same placement (always, once r is
        // close to n); dedupe so keys stay unique.  Once all C(n, r)
        // placements are seen every later draw is a duplicate, so drawing
        // stops there whatever `seeds` asks for.
        const std::uint64_t all = binomial_saturating(n, r);
        std::set<std::vector<graph::NodeId>> seen;
        for (std::uint64_t s = 0; s < axis.seeds && seen.size() < all; ++s) {
          auto bases = graph::random_placement(n, r, s).home_bases();
          if (seen.insert(bases).second) out.push_back(std::move(bases));
        }
      }
      return out;
    }
  }
  return out;
}

}  // namespace

void TaskSpace::add_instance(std::string workload,
                             const std::string& key_prefix, GraphRef graph,
                             std::vector<graph::NodeId> home_bases,
                             std::uint64_t cell_seed) {
  Instance& inst = instances_.emplace_back();
  inst.head = key_prefix;
  inst.head += '/';
  append_label(inst.head, graph);
  inst.head += "/p=";
  for (std::size_t i = 0; i < home_bases.size(); ++i) {
    if (i > 0) inst.head += '.';
    append_uint(inst.head, home_bases[i]);
  }
  inst.head += "/s=";
  inst.workload = std::move(workload);
  inst.graph = std::move(graph);
  inst.home_bases = std::move(home_bases);
  inst.cell_seed = cell_seed;
}

TaskSpace::TaskSpace(const CampaignSpec& spec)
    : scheduler_(spec.scheduler),
      max_steps_(spec.max_steps),
      labeling_budget_(spec.labeling_budget) {
  QELECT_CHECK(!spec.name.empty(), "campaign spec: name must be non-empty");
  QELECT_CHECK(spec.workload == "table1" || spec.workload == "analyze" ||
                   spec.workload == "elect" ||
                   spec.workload == "quantitative" ||
                   spec.workload == "moves" ||
                   spec.workload == "degradation",
               "campaign spec: unknown workload '" + spec.workload + "'");
  // Only the workloads that run the simulator with the plan attached take
  // a faults axis; on any other, every fault point would record its
  // fault-free twin's metrics.
  QELECT_CHECK(spec.faults.empty() || spec.workload == "elect" ||
                   spec.workload == "moves" ||
                   spec.workload == "degradation",
               "campaign spec: the " + spec.workload +
                   " workload has no faults axis");
  if (spec.workload == "table1") {
    cells_ = true;
    // Cell computations that are one task each.  Graph/placement fields
    // name the witness instance so the key stays self-describing.
    add_instance("anon-lockstep", "table1/anonymous", {"ring", {6}}, {0, 3},
                 1);
    add_instance("k2-exhaustive", "table1/k2", {"complete", {2}}, {0, 1}, 1);
    add_instance("petersen-witness", "table1/petersen", {"petersen", {}},
                 {0, 5}, 3);
    // Per-instance cells: the Cayley dichotomy, live ELECT (color seed 7
    // as in bench_table1), and the quantitative baseline (color seed 11).
    for (const Table1Instance& inst : table1_instances()) {
      add_instance("cayley-dichotomy", "table1/cayley/" + inst.name,
                   inst.graph, inst.home_bases, 7);
      add_instance("elect", "table1/elect/" + inst.name, inst.graph,
                   inst.home_bases, 7);
      add_instance("quantitative", "table1/quant/" + inst.name, inst.graph,
                   inst.home_bases, 11);
    }
  } else {
    QELECT_CHECK(spec.workload != "degradation" || !spec.faults.empty(),
                 "campaign spec: the degradation workload needs a non-empty "
                 "faults axis (add a zero-rate point for the control row)");
    QELECT_CHECK(!spec.graphs.empty(),
                 "campaign spec: workload '" + spec.workload +
                     "' needs at least one graph axis");
    for (const GraphAxis& axis : spec.graphs) {
      for (GraphRef& ref : expand_axis(axis)) {
        const graph::Graph g = ref.build();
        for (auto& bases : expand_placements(spec.placements, g)) {
          if (bases.size() > g.node_count()) continue;
          add_instance(spec.workload, spec.workload, ref, std::move(bases));
        }
      }
    }
    seeds_ = spec.color_seeds;
    faults_ = spec.faults;
    per_instance_ = seeds_.size() * std::max<std::size_t>(faults_.size(), 1);
  }
  check_unique();
}

TaskSpace::Point TaskSpace::at(std::size_t i) const {
  const Instance& inst = instances_[instance_of(i)];
  if (cells_) return {inst, inst.cell_seed, nullptr};
  const std::size_t r = i % per_instance_;
  if (faults_.empty()) return {inst, seeds_[r], nullptr};
  return {inst, seeds_[r / faults_.size()], &faults_[r % faults_.size()]};
}

void TaskSpace::append_key(const Point& p, std::string& out) {
  out += p.instance.head;
  append_uint(out, p.color_seed);
  // The fault segment exists only on campaigns with a faults axis, so
  // fault-free campaigns keep their pre-fault keys (store compatibility).
  if (p.fault != nullptr) {
    out += "/f=";
    out += p.fault->label;
  }
}

std::string TaskSpace::key(std::size_t i) const {
  std::string out;
  append_key(at(i), out);
  return out;
}

void TaskSpace::fill(std::size_t i, TaskSpec& task) const {
  const Point p = at(i);
  task.key.clear();
  append_key(p, task.key);
  task.workload = p.instance.workload;
  task.graph = p.instance.graph;
  task.home_bases = p.instance.home_bases;
  task.color_seed = p.color_seed;
  task.scheduler = scheduler_;
  task.max_steps = max_steps_;
  task.labeling_budget = labeling_budget_;
  if (p.fault != nullptr) {
    task.fault_label = p.fault->label;
    task.faults = p.fault->plan;
  } else {
    task.fault_label.clear();
    task.faults = {};
  }
}

void TaskSpace::check_unique() const {
  if (size() == 0) return;  // an empty axis makes every duplicate moot
  const auto refuse = [&](std::size_t i) {
    throw CheckError("campaign expansion produced duplicate key " + key(i));
  };
  std::unordered_set<std::string_view> heads;
  for (std::size_t k = 0; k < instances_.size(); ++k) {
    if (!heads.insert(instances_[k].head).second) refuse(k * per_instance_);
  }
  std::unordered_set<std::uint64_t> seeds;
  for (std::size_t k = 0; k < seeds_.size(); ++k) {
    if (!seeds.insert(seeds_[k]).second) {
      refuse(k * std::max<std::size_t>(faults_.size(), 1));
    }
  }
  std::unordered_set<std::string_view> labels;
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    if (!labels.insert(faults_[k].label).second) refuse(k);
  }
}

std::vector<TaskSpec> expand_tasks(const CampaignSpec& spec) {
  const TaskSpace space(spec);
  std::vector<TaskSpec> tasks(space.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) space.fill(i, tasks[i]);
  return tasks;
}

void check_store_records(const TaskSpace& space, const LoadedStore& store,
                         const std::string& store_path) {
  for (const TaskRecord& r : store.records) {
    const bool owned =
        r.task_index < space.size() && space.key(r.task_index) == r.key;
    QELECT_CHECK(owned, "result store " + store_path + ": record '" + r.key +
                            "' at task index " +
                            std::to_string(r.task_index) +
                            " is not that task of campaign '" +
                            store.header.name + "'");
  }
}

}  // namespace qelect::campaign
