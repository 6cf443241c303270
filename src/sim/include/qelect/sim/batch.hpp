// Lockstep many-seed batch execution: the data-oriented simulator backend.
//
// Campaigns and RUN_ELECT bursts overwhelmingly run N seeds of the *same*
// instance -- the scheduler adversary is the only thing that varies.  The
// coroutine World pays frame resumption, InlineFunction dispatch, and
// variant decoding per step per seed.  BatchWorld advances N replicas of
// one instance together with structure-of-arrays state: the graph and the
// protocol's compiled structure (plans, routes, tapes) are shared and
// immutable, while every replica owns flat arrays for agent positions,
// whiteboard signs, the enabled set, and its scheduler state.  No
// coroutine frames exist on the hot path; the protocol is a *model* -- a
// stackless interpreter that the engine drives through the same
// execute / advance / classify / notify cycle as World::run_impl.
//
// Faithfulness contract: for a protocol model that mirrors its coroutine
// counterpart action-for-action, a replica configured (seed, replica_id)
// produces a RunResult identical to the scalar World run with the same
// RunConfig -- same verdicts, same per-agent move/board counts, same step
// totals (tests/test_batch.cpp golden-gates this across every scheduler
// policy).  The engine therefore transcribes World::run_impl exactly:
// same enabled-set maintenance, same waiter-list park/unpark order, same
// lockstep round snapshots, same step-limit edge cases.
//
// Scheduler draws under SchedulerPolicy::Counter come from Philox4x32
// keyed (seed, replica_id) with the draw index as the counter, so any
// replica's schedule is reconstructible statelessly -- this is what lets
// a batch run fall back per-replica to the scalar engine for traced or
// replayed runs.  Random / RoundRobin / Lockstep replicate the scalar
// policies bit-for-bit (same Xoshiro stream, same cursor dynamics).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/color.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::sim {

/// Agent index sentinel ("no agent") for batch sign writers.
inline constexpr std::uint32_t kNoBatchAgent = static_cast<std::uint32_t>(-1);

/// A whiteboard sign in batch representation: the writer is an agent
/// *index* (agent colors are distinct, so index <-> color is a bijection
/// and color equality becomes integer equality), payload is inline.
struct BatchSign {
  std::uint32_t writer = kNoBatchAgent;
  std::uint32_t tag = 0;
  std::uint32_t len = 0;
  std::int64_t payload[4] = {0, 0, 0, 0};
};

/// The sign list of one (replica, node).  Posting order is preserved --
/// first-match reads and distinct-writer counts depend on it.
class BatchBoard {
 public:
  void clear() { signs_.clear(); }
  BatchSign& post() { return signs_.emplace_back(); }
  const std::vector<BatchSign>& signs() const { return signs_; }

 private:
  std::vector<BatchSign> signs_;
};

/// One suspended action of a model agent -- the batch analog of the
/// coroutine engine's PendingAction.  `op` and the operand words are
/// model-defined (board opcodes, wait-predicate parameters); the engine
/// interprets only `kind` and `port`.
struct BatchPending {
  enum class Kind : std::uint8_t { Start, Move, Board, Wait, Yield };
  Kind kind = Kind::Start;
  std::uint8_t op = 0;
  graph::PortId port = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int64_t d = 0;
};

/// Identity of one replica's schedule stream.
struct BatchReplicaConfig {
  std::uint64_t seed = 1;
  std::uint64_t replica = 0;  // Counter policy stream id
};

struct BatchConfig {
  SchedulerPolicy policy = SchedulerPolicy::Random;
  std::size_t max_steps = 20'000'000;
};

/// Steps granted to one replica before the engine rotates to the next;
/// replica results do not depend on this (replicas are independent), it
/// only shapes cache locality.
inline constexpr std::size_t kBatchStride = 256;

/// The engine.  `run(model)` drives a protocol model over every replica;
/// the Model contract is:
///
///   bool advance(rep, agent, BatchPending& out);
///       Resume agent's program past its executed action; fill `out` with
///       the next suspended action and return true, or return false when
///       the program finished (the final action has been performed).
///   void apply_board(rep, agent, const BatchPending&, BatchBoard&);
///       Execute a Kind::Board action: read/mutate the board and record
///       any read results in the model's per-agent state.
///   bool eval_wait(rep, const BatchPending&, const BatchBoard&) const;
///       Evaluate a Kind::Wait predicate: a pure function of the board
///       and the pending's operand words.
///   AgentStatus status(rep, agent) const;
///   std::uint32_t leader_writer(rep, agent) const;  // kNoBatchAgent: none
///   reset(..., replica_count) -- re-arm all programs at their start;
///       the model's owner calls it before run().
class BatchWorld {
 public:
  std::size_t agent_count() const { return agent_count_; }
  std::size_t replica_count() const { return replicas_.size(); }

  /// Targets the engine at (g, p) and re-arms it for `configs.size()`
  /// replicas.  Colors are minted per replica from its seed, exactly as
  /// World(g, p, seed) would.  The world keeps no copy of g or p, only
  /// its adjacency, and every buffer keeps its capacity whatever instance
  /// it held before; it holds the replicas and nodes of the last reset
  /// alone.
  void reset(const graph::Graph& g, const graph::Placement& p,
             const std::vector<BatchReplicaConfig>& configs,
             const BatchConfig& config);

  /// Runs every replica to completion (or failure).  The model must have
  /// been reset to the same replica count.
  template <typename Model>
  void run(Model& model) {
    // One policy dispatch per run: the advance loop is instantiated per
    // policy so the hot path carries no per-step policy switch.
    switch (config_.policy) {
      case SchedulerPolicy::Counter:
        run_impl<Model, SchedulerPolicy::Counter>(model);
        break;
      case SchedulerPolicy::RoundRobin:
        run_impl<Model, SchedulerPolicy::RoundRobin>(model);
        break;
      case SchedulerPolicy::Lockstep:
        run_impl<Model, SchedulerPolicy::Lockstep>(model);
        break;
      default:
        run_impl<Model, SchedulerPolicy::Random>(model);
        break;
    }
  }

  /// Post-run access.  A failed replica (model error mid-run) has no
  /// meaningful result; callers fall back to the scalar engine for it.
  bool failed(std::size_t rep) const { return replicas_[rep].failed; }
  const std::string& error(std::size_t rep) const {
    return replicas_[rep].error;
  }
  const RunResult& result(std::size_t rep) const {
    return replicas_[rep].result;
  }
  const std::vector<Color>& colors(std::size_t rep) const {
    return replicas_[rep].colors;
  }
  const BatchBoard& board(std::size_t rep, graph::NodeId node) const {
    return replicas_[rep].boards[node];
  }

 private:
  /// Counter draws buffered per refill.  Philox blocks at consecutive
  /// counters are independent, so computing a batch back-to-back lets the
  /// CPU overlap their multiply chains -- one block per pick exposes the
  /// full 10-round latency serially.  Values are identical either way
  /// (pure function of (seed, stream, counter)); unconsumed speculative
  /// draws are simply discarded, so schedules are unchanged.
  static constexpr std::size_t kDrawBatch = 32;

  struct Replica {
    // Stream identity + scheduler state (mirrors sim::Scheduler).
    std::uint64_t seed = 1;
    std::uint64_t replica_id = 0;
    Xoshiro256 rng{1};
    Philox4x32 counter_rng{1, 0};
    std::uint64_t counter = 0;
    std::uint64_t draw_buf[kDrawBatch] = {};
    std::uint32_t draw_pos = kDrawBatch;  // == kDrawBatch: buffer empty
    std::size_t rr_cursor = 0;
    std::vector<std::size_t> round;  // Lockstep round snapshot
    std::size_t round_pos = 0;
    bool in_round = false;

    // Flat per-agent state.
    std::vector<graph::NodeId> pos;
    std::vector<std::size_t> moves;
    std::vector<std::size_t> board_accesses;
    std::vector<BatchPending> pending;
    std::vector<std::uint8_t> waiting;
    std::vector<std::uint8_t> wait_sat;
    std::vector<std::size_t> enabled;  // sorted ascending

    // Per-node state.
    std::vector<std::vector<std::uint32_t>> waiters;
    std::vector<BatchBoard> boards;

    std::vector<Color> colors;
    std::size_t live = 0;
    std::size_t steps = 0;
    bool finished = false;
    bool failed = false;
    std::string error;
    RunResult result;
  };

  static void enabled_insert(Replica& r, std::size_t i);
  static void enabled_erase(Replica& r, std::size_t i);
  static void unpark(Replica& r, std::size_t i);

  template <SchedulerPolicy P>
  std::size_t pick(Replica& r) {
    QELECT_ASSERT(!r.enabled.empty());
    if constexpr (P == SchedulerPolicy::Counter) {
      if (r.draw_pos == kDrawBatch) {
        Philox4x32::block_many(r.counter_rng.seed(), r.counter_rng.stream(),
                               r.counter, r.draw_buf, kDrawBatch);
        r.draw_pos = 0;
      }
      const std::uint64_t word = r.draw_buf[r.draw_pos++];
      ++r.counter;
      return r.enabled[bounded_draw(word, r.enabled.size())];
    } else if constexpr (P == SchedulerPolicy::RoundRobin) {
      return pick_round_robin(r);
    } else {
      // Random: the scalar Scheduler's exact Xoshiro + Lemire-rejection
      // draw.
      return r.enabled[r.rng.below(r.enabled.size())];
    }
  }

  std::size_t pick_round_robin(Replica& r);

  template <typename Model>
  void notify_board(Model& model, std::size_t rep, Replica& r,
                    graph::NodeId node) {
    for (const std::uint32_t j : r.waiters[node]) {
      const bool sat = model.eval_wait(rep, r.pending[j], r.boards[node]);
      if (sat != (r.wait_sat[j] != 0)) {
        r.wait_sat[j] = sat ? 1 : 0;
        if (sat) {
          enabled_insert(r, j);
        } else {
          enabled_erase(r, j);
        }
      }
    }
  }

  // Transcription of World::run_impl's execute_step + classify: perform
  // the pending action, advance the program, re-derive scheduling state,
  // then re-poll waiters of a mutated board.
  template <typename Model>
  void step_agent(Model& model, std::size_t rep, Replica& r, std::size_t i) {
    BatchPending& p = r.pending[i];
    bool board_mutated = false;
    bool was_wait = false;
    graph::NodeId mutated_node = 0;
    switch (p.kind) {
      case BatchPending::Kind::Move: {
        const graph::NodeId from = r.pos[i];
        const std::uint32_t off = adj_off_[from];
        QELECT_CHECK(p.port < adj_off_[from + 1] - off,
                     "batch: agent moved through a nonexistent port");
        r.pos[i] = adj_to_[off + p.port];
        ++r.moves[i];
        break;
      }
      case BatchPending::Kind::Board: {
        mutated_node = r.pos[i];
        model.apply_board(rep, i, p, r.boards[mutated_node]);
        board_mutated = true;
        ++r.board_accesses[i];
        break;
      }
      case BatchPending::Kind::Wait:
        unpark(r, i);
        was_wait = true;
        break;
      default:
        break;  // Start / Yield: no effect
    }
    const bool alive = model.advance(rep, i, p);
    ++r.steps;
    if (!alive) {
      --r.live;
      enabled_erase(r, i);
    } else if (p.kind == BatchPending::Kind::Wait) {
      const graph::NodeId node = r.pos[i];
      r.waiting[i] = 1;
      r.waiters[node].push_back(static_cast<std::uint32_t>(i));
      const bool sat = model.eval_wait(rep, p, r.boards[node]);
      r.wait_sat[i] = sat ? 1 : 0;
      if (sat) {
        enabled_insert(r, i);
      } else {
        enabled_erase(r, i);
      }
    } else if (was_wait) {
      // An unparked waiter may have been stepped while *outside* the
      // enabled set (a lockstep round executes its snapshot even after a
      // member lost wait satisfaction mid-round), so re-insert it.
      enabled_insert(r, i);
    }
    // else: a non-waiting live agent was already in the enabled set and
    // still belongs there -- membership is unchanged, no search needed.
    if (board_mutated) notify_board(model, rep, r, mutated_node);
  }

  template <typename Model, SchedulerPolicy P>
  void run_impl(Model& model) {
    for (bool any = true; any;) {
      any = false;
      for (std::size_t rep = 0; rep < replicas_.size(); ++rep) {
        Replica& r = replicas_[rep];
        if (r.finished) continue;
        any = true;
        try {
          advance_replica<Model, P>(model, r, kBatchStride);
        } catch (const std::exception& e) {
          r.finished = true;
          r.failed = true;
          r.error = e.what();
        }
      }
    }
  }

  template <typename Model, SchedulerPolicy P>
  void advance_replica(Model& model, Replica& r, std::size_t budget) {
    const std::size_t rep = static_cast<std::size_t>(&r - replicas_.data());
    const std::size_t max_steps = config_.max_steps;
    while (budget > 0) {
      if (r.in_round) {
        // Continue a lockstep round: execute the snapshot in order, even
        // members that lost enablement mid-round (scalar semantics).
        while (r.round_pos < r.round.size()) {
          if (r.steps >= max_steps) {
            finish(model, rep, r);
            return;
          }
          if (budget == 0) return;
          step_agent(model, rep, r, r.round[r.round_pos++]);
          --budget;
        }
        r.in_round = false;
        continue;
      }
      // Loop head of World::run_impl, in its exact check order.
      if (r.steps >= max_steps) {
        finish(model, rep, r);
        return;
      }
      if (r.live == 0) {
        r.result.completed = true;
        finish(model, rep, r);
        return;
      }
      if (r.enabled.empty()) {
        r.result.deadlock = true;
        finish(model, rep, r);
        return;
      }
      if constexpr (P == SchedulerPolicy::Lockstep) {
        r.round = r.enabled;
        r.round_pos = 0;
        r.in_round = true;
        continue;
      } else {
        step_agent(model, rep, r, pick<P>(r));
        --budget;
      }
    }
  }

  template <typename Model>
  void finish(Model& model, std::size_t rep, Replica& r) {
    if (!r.result.completed && !r.result.deadlock) r.result.step_limit = true;
    r.result.steps = r.steps;
    r.result.agents.reserve(agent_count_);
    for (std::size_t i = 0; i < agent_count_; ++i) {
      AgentReport report;
      report.color = r.colors[i];
      report.status = model.status(rep, i);
      const std::uint32_t leader = model.leader_writer(rep, i);
      if (leader != kNoBatchAgent) report.leader_color = r.colors[leader];
      report.final_position = r.pos[i];
      report.moves = r.moves[i];
      report.board_accesses = r.board_accesses[i];
      r.result.total_moves += report.moves;
      r.result.total_board_accesses += report.board_accesses;
      r.result.agents.push_back(std::move(report));
    }
    r.finished = true;
  }

  std::size_t agent_count_ = 0;
  BatchConfig config_;
  std::vector<Replica> replicas_;

  // Flat CSR copy of the adjacency (destination node per (node, port)),
  // rebuilt by reset: the Move fast path resolves a port with two array
  // loads instead of two out-of-line Graph calls.
  std::vector<std::uint32_t> adj_off_;  // [node_count + 1]
  std::vector<graph::NodeId> adj_to_;   // [adj_off_[n] .. adj_off_[n+1])
};

}  // namespace qelect::sim
