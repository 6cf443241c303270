// Protocol ELECT compiled for the batch backend.
//
// The coroutine elect_agent spends most of a run on schedule-independent
// work: the MAP-DRAWING exploration reads only the agent's own signs, and
// COMPUTE&ORDER is a pure function of the map.  Both are therefore
// *compiled once per instance*: a scratch scalar run extracts each agent's
// exploration tape (the exact move/board action sequence), its map, its
// class plan (via the shared protocol_plan cache), and a full route table.
// What remains schedule-dependent -- the activation waits, AGENT-REDUCE /
// NODE-REDUCE rounds, and the announcement tour -- runs as a stackless
// interpreter (ElectBatchModel): per-(replica, agent) frames hold every
// live variable, and advance() is a switch over a stored program counter
// that transcribes elect_inner() action-for-action.
//
// Faithfulness: a replica's interpreted run issues the same action at the
// same step as the coroutine run under the same schedule, mutates boards
// identically (writer index standing in for the writer color), and adopts
// outcomes identically, so RunResults match field-for-field.  Map-drawing
// kTagVisited signs are the one deliberate omission from batch boards:
// no wait predicate and no later board read scans them (each agent reads
// only its *own* visited marks, already folded into its compiled tape), so
// their absence is unobservable to the protocol.
//
// tests/test_batch.cpp golden-gates batch vs scalar per-replica across
// every scheduler policy; tidy announcements and ElectTrace collection are
// scalar-only features (the campaign/serve batch paths never use them).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qelect/core/agent_map.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/graph/graph.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/batch.hpp"

namespace qelect::core {

/// A squad in batch encoding: member agent indices plus their home-base
/// nodes in the *owning agent's* map numbering.
struct BatchSquad {
  std::vector<std::uint32_t> agents;
  std::vector<std::uint16_t> homes;

  std::size_t size() const { return agents.size(); }
  bool contains(std::uint32_t a) const {
    for (const std::uint32_t m : agents) {
      if (m == a) return true;
    }
    return false;
  }
  void add(std::uint32_t a, std::uint16_t home) {
    agents.push_back(a);
    homes.push_back(home);
  }
  void clear() {
    agents.clear();
    homes.clear();
  }
  /// Removes every member listed in `out` (same backward sweep as the
  /// coroutine Squad, preserving relative order).
  void remove_all(const std::vector<std::uint32_t>& out);
};

/// Everything about one agent that does not depend on the schedule.
struct ElectAgentProgram {
  /// One map-drawing action: a move through `port` or a board access.
  struct TapeEntry {
    bool is_move = false;
    graph::PortId port = 0;
  };
  std::vector<TapeEntry> tape;
  /// `tape` pre-lowered to engine actions: tape_actions[i] holds the kind /
  /// op / port the interpreter would synthesize for tape[i], so the replay
  /// fast path is a cursor bump plus three field stores.  The operand words
  /// a..d of the destination pending are deliberately left unwritten: tape
  /// actions are only moves and MapBoard accesses, and neither reads them.
  struct TapeAction {
    sim::BatchPending::Kind kind = sim::BatchPending::Kind::Move;
    std::uint8_t op = 0;
    graph::PortId port = 0;
  };
  std::vector<TapeAction> tape_actions;

  graph::Graph map;  // the agent's drawn map (node 0 = own home)
  std::vector<graph::NodeId> map_to_real;  // map node -> global node
  std::shared_ptr<const ProtocolClassPlan> plan;
  std::size_t my_class = 0;
  std::int64_t activation_expected = 0;  // distinct activators to wait for
  std::uint64_t initial_d = 0;           // |D| entering the first phase

  /// class_squads[j] for j < ell: the members of black class j.
  std::vector<BatchSquad> class_squads;
  /// class_nodes[j] for all j: plan->classes[j] in u16 map coords.
  std::vector<std::vector<std::uint16_t>> class_nodes;
  /// agent_home[w]: agent w's home-base in this agent's map.
  std::vector<std::uint16_t> agent_home;

  std::size_t map_n = 0;
  /// All-pairs routes, materialized only for small maps (see
  /// kMaterializeRouteNodes); empty otherwise.  [from * map_n + to].
  std::vector<std::vector<graph::PortId>> routes;
  /// Announcement tours, materialized alongside `routes` for small maps:
  /// tours[s] / tour_orders[s] = tour_ports(map, s) from start node s.
  /// Empty for large maps (the interpreter falls back to a per-run DFS).
  std::vector<std::vector<graph::PortId>> tours;
  std::vector<std::vector<graph::NodeId>> tour_orders;

  /// On-demand fallback for large maps (shared BFS trees, cheap to copy).
  RouteFinder finder;

  /// Writes the port route from `from` to `to` into `buf` (reusing its
  /// capacity): a table copy when materialized, a tree walk otherwise.
  void fill_route(std::size_t from, std::size_t to,
                  std::vector<graph::PortId>& buf) const;
};

/// Maps with at most this many nodes get an all-pairs route table (n^2
/// small vectors per agent); larger maps fall back to per-leg RouteFinder
/// queries, exactly what the scalar goto_node pays.
inline constexpr std::size_t kMaterializeRouteNodes = 64;

/// The compiled instance: shared, immutable, reusable across any number of
/// replicas and batch runs.
struct ElectBatchPlan {
  graph::Graph graph;
  graph::Placement placement;
  std::size_t agent_count = 0;
  std::vector<ElectAgentProgram> agents;
  std::uint64_t final_gcd = 0;  // oracle gcd (identical for every agent)
};

/// Compiles (g, p) for batch execution: runs MAP-DRAWING once per agent in
/// a scratch scalar world, extracts tapes/maps, and precomputes plans,
/// squads, and routes.  Throws CheckError on unsupported instances (> 65535
/// nodes, or a disconnected/ill-placed input that World would reject).
std::shared_ptr<const ElectBatchPlan> compile_elect_batch_plan(
    const graph::Graph& g, const graph::Placement& p);

/// The stackless ELECT interpreter driven by sim::BatchWorld.
class ElectBatchModel {
 public:
  ElectBatchModel();
  ~ElectBatchModel();
  ElectBatchModel(ElectBatchModel&&) noexcept;
  ElectBatchModel& operator=(ElectBatchModel&&) noexcept;

  /// Arms `plan`'s programs for `replica_count` replicas, reusing the
  /// frames of whatever plan ran before.  `plan` must outlive the run.
  void reset(const ElectBatchPlan& plan, std::size_t replica_count);

  /// Tape replay is ~90% of all steps on small instances, so it is served
  /// inline: one cursor compare, a struct copy, a pointer bump.  Everything
  /// else (the dispatch switch over the stored pc) is advance_slow().
  bool advance(std::size_t rep, std::size_t agent, sim::BatchPending& out) {
    const std::size_t idx = rep * agent_count_ + agent;
    const ElectAgentProgram::TapeAction* cur = tape_cur_[idx];
    if (cur != tape_end_[idx]) {
      tape_cur_[idx] = cur + 1;
      out.kind = cur->kind;
      out.op = cur->op;
      out.port = cur->port;
      return true;
    }
    return advance_slow(rep, agent, out);
  }

  void apply_board(std::size_t rep, std::size_t agent,
                   const sim::BatchPending& p, sim::BatchBoard& board);
  bool eval_wait(std::size_t rep, const sim::BatchPending& p,
                 const sim::BatchBoard& board) const;
  sim::AgentStatus status(std::size_t rep, std::size_t agent) const;
  std::uint32_t leader_writer(std::size_t rep, std::size_t agent) const;

 private:
  struct Frame;
  Frame& frame(std::size_t rep, std::size_t agent);

  bool advance_slow(std::size_t rep, std::size_t agent,
                    sim::BatchPending& out);

  const ElectBatchPlan* plan_ = nullptr;
  std::size_t agent_count_ = 0;
  std::vector<Frame> frames_;  // [rep * agent_count_ + agent]
  // Tape replay cursors, flat per (rep, agent) like frames_ -- kept outside
  // the opaque Frame so the inline advance() fast path can read them.  Both
  // null until the program's pc-0 dispatch arms them; equal when replay is
  // over (or never started).
  std::vector<const ElectAgentProgram::TapeAction*> tape_cur_;
  std::vector<const ElectAgentProgram::TapeAction*> tape_end_;
};

/// Outcome of one batch invocation.  A replica that failed mid-run (model
/// error) has failed[i] set and an empty RunResult;
/// campaign::run_elect_replicas re-runs it on the scalar engine.
struct ElectBatchOutcome {
  std::vector<sim::RunResult> runs;
  std::vector<std::uint8_t> failed;
  std::vector<std::string> errors;
};

/// The reusable runner: owns a BatchWorld and an interpreter and
/// re-targets both at each call's plan.  Back-to-back calls (campaign slabs, serve
/// bursts, bench iterations) recycle every per-replica buffer --
/// positions, boards, frames, waiter lists -- instead of reallocating
/// them, whether or not the instance changed; a runner holds only the
/// last call's replicas and nodes.  Results are identical to a fresh
/// runner's; reuse is purely a capacity optimization.  Not thread-safe:
/// one runner per thread.
class ElectBatchRunner {
 public:
  /// Advances every replica of `plan` to completion under `config` and
  /// returns per-replica results.
  ElectBatchOutcome run(const ElectBatchPlan& plan,
                        const std::vector<sim::BatchReplicaConfig>& replicas,
                        const sim::BatchConfig& config);

 private:
  sim::BatchWorld world_;
  ElectBatchModel model_;
};

/// One-call driver: advances every replica of the compiled instance to
/// completion under `config` and returns per-replica results.  Each thread
/// keeps one ElectBatchRunner for its whole life and hands it every plan
/// it runs.  Callers outside core use campaign::run_elect_replicas (scalar
/// fallback).
ElectBatchOutcome run_elect_batch(
    const std::shared_ptr<const ElectBatchPlan>& plan,
    const std::vector<sim::BatchReplicaConfig>& replicas,
    const sim::BatchConfig& config);

}  // namespace qelect::core
