#include "qelect/core/elect_batch.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "qelect/core/agent_map.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/map_drawing.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/math.hpp"

namespace qelect::core {

namespace {

using sim::BatchBoard;
using sim::BatchPending;
using sim::BatchSign;

// Opcodes carried in BatchPending::op.  Board ops execute under the
// whiteboard's atomic access; wait ops are pure predicates of the board
// and the pending's operand words.
enum class BoardOp : std::uint8_t {
  MapBoard,        // map-drawing tape board access (visited marks compiled out)
  PostActivate,    // post kTagActivate {phase}
  ReadActivation,  // -> f.ended, f.activators
  MatchTry,        // try to claim this waiting home -> f.matched
  Completion,      // read matched + post kTagRoundDone -> f.this_matched
  WaitRead,        // -> f.outcome_posted, f.i_was_matched
  PostPassive,     // post kTagPassive {phase, round}
  ReadPassive,     // -> f.ended, f.matched_agents
  PostBarrier,     // post kTagBarrier {phase, round, stage, flag}
  AcquireCase1,    // node-reduce case 1 claim (a=phase,b=round,c=q) -> f.mine
  AcquireCase2,    // node-reduce case 2 claim -> ++f.held
  ReadStay,        // read (c=agent)'s stage-2 flag -> f.stays
  ReadTaken,       // node still acquired? -> f.taken
  ReadOutcome,     // adopt the posted outcome -> f.status / f.leader
  Stamp,           // announcement: post kTagOutcome {a ? leader : failure}
};

enum class WaitOp : std::uint8_t {
  Activation,  // outcome, or >= b distinct kTagActivate{a} writers
  Barrier,     // agent d's kTagBarrier {a, b, c, *} present
  Outcome,     // kTagOutcome present
  RoundDone,   // outcome, or >= c distinct kTagRoundDone{a, b} writers
  Passive,     // outcome, or >= c distinct kTagPassive{a, b} writers
};

BatchPending move_pending(graph::PortId port) {
  BatchPending p;
  p.kind = BatchPending::Kind::Move;
  p.port = port;
  return p;
}

BatchPending yield_pending() {
  BatchPending p;
  p.kind = BatchPending::Kind::Yield;
  return p;
}

BatchPending board_pending(BoardOp op, std::int64_t a, std::int64_t b,
                           std::int64_t c, std::int64_t d) {
  BatchPending p;
  p.kind = BatchPending::Kind::Board;
  p.op = static_cast<std::uint8_t>(op);
  p.a = a;
  p.b = b;
  p.c = c;
  p.d = d;
  return p;
}

BatchPending wait_pending(WaitOp op, std::int64_t a, std::int64_t b,
                          std::int64_t c, std::int64_t d) {
  BatchPending p;
  p.kind = BatchPending::Kind::Wait;
  p.op = static_cast<std::uint8_t>(op);
  p.a = a;
  p.b = b;
  p.c = c;
  p.d = d;
  return p;
}

BatchPending tape_pending(const ElectAgentProgram::TapeEntry& e) {
  return e.is_move ? move_pending(e.port)
                   : board_pending(BoardOp::MapBoard, 0, 0, 0, 0);
}

void post_sign(BatchBoard& board, std::uint32_t writer, std::uint32_t tag,
               std::initializer_list<std::int64_t> payload) {
  BatchSign& s = board.post();
  s.writer = writer;
  s.tag = tag;
  s.len = 0;
  for (const std::int64_t v : payload) s.payload[s.len++] = v;
}

bool has_outcome(const BatchBoard& board) {
  for (const BatchSign& s : board.signs()) {
    if (s.tag == kTagOutcome) return true;
  }
  return false;
}

const BatchSign* first_outcome(const BatchBoard& board) {
  for (const BatchSign& s : board.signs()) {
    if (s.tag == kTagOutcome) return &s;
  }
  return nullptr;
}

/// Exact-size-2 round match (the MatchTry / WaitRead scans of elect.cpp use
/// payload.size() == 2).
bool any_round_sign(const BatchBoard& board, std::uint32_t tag,
                    std::int64_t phase, std::int64_t round) {
  for (const BatchSign& s : board.signs()) {
    if (s.tag == tag && s.len == 2 && s.payload[0] == phase &&
        s.payload[1] == round) {
      return true;
    }
  }
  return false;
}

/// Distinct writers of signs with `tag` whose payload starts (phase, round)
/// -- count_round_signs of elect.cpp (payload.size() >= 2 semantics), with
/// writer indices standing in for colors.
std::size_t count_round_distinct(const BatchBoard& board, std::uint32_t tag,
                                 std::int64_t phase, std::int64_t round) {
  std::size_t count = 0;
  const auto& signs = board.signs();
  for (std::size_t i = 0; i < signs.size(); ++i) {
    const BatchSign& s = signs[i];
    if (s.tag != tag || s.len < 2 || s.payload[0] != phase ||
        s.payload[1] != round) {
      continue;
    }
    bool seen = false;
    for (std::size_t k = 0; k < i && !seen; ++k) {
      const BatchSign& t = signs[k];
      seen = t.writer == s.writer && t.tag == tag && t.len >= 2 &&
             t.payload[0] == phase && t.payload[1] == round;
    }
    if (!seen) ++count;
  }
  return count;
}

/// colors_of_round_signs: distinct writers in posting order.
void writers_of_round(const BatchBoard& board, std::uint32_t tag,
                      std::int64_t phase, std::int64_t round,
                      std::vector<std::uint32_t>& out) {
  out.clear();
  for (const BatchSign& s : board.signs()) {
    if (s.tag != tag || s.len < 2 || s.payload[0] != phase ||
        s.payload[1] != round) {
      continue;
    }
    if (std::find(out.begin(), out.end(), s.writer) == out.end()) {
      out.push_back(s.writer);
    }
  }
}

std::size_t distinct_activators(const BatchBoard& board, std::int64_t phase) {
  std::size_t count = 0;
  const auto& signs = board.signs();
  for (std::size_t i = 0; i < signs.size(); ++i) {
    const BatchSign& s = signs[i];
    if (s.tag != kTagActivate || s.len != 1 || s.payload[0] != phase) continue;
    bool seen = false;
    for (std::size_t k = 0; k < i && !seen; ++k) {
      const BatchSign& t = signs[k];
      seen = t.writer == s.writer && t.tag == kTagActivate && t.len == 1 &&
             t.payload[0] == phase;
    }
    if (!seen) ++count;
  }
  return count;
}

bool barrier_present(const BatchBoard& board, std::uint32_t who,
                     std::int64_t phase, std::int64_t round,
                     std::int64_t stage) {
  for (const BatchSign& s : board.signs()) {
    if (s.writer == who && s.tag == kTagBarrier && s.len == 4 &&
        s.payload[0] == phase && s.payload[1] == round &&
        s.payload[2] == stage) {
      return true;
    }
  }
  return false;
}

sim::Behavior collect_map_agent(sim::AgentCtx& ctx, AgentMap* out) {
  *out = co_await map_drawing(ctx);
}

}  // namespace

void BatchSquad::remove_all(const std::vector<std::uint32_t>& out) {
  for (std::size_t i = agents.size(); i-- > 0;) {
    if (std::find(out.begin(), out.end(), agents[i]) != out.end()) {
      agents.erase(agents.begin() + static_cast<std::ptrdiff_t>(i));
      homes.erase(homes.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

std::shared_ptr<const ElectBatchPlan> compile_elect_batch_plan(
    const graph::Graph& g, const graph::Placement& p) {
  QELECT_CHECK(g.node_count() <= 0xffff,
               "elect-batch: instance too large (> 65535 nodes)");
  auto plan = std::make_shared<ElectBatchPlan>();
  plan->graph = g;
  plan->placement = p;
  const std::size_t r = p.agent_count();
  plan->agent_count = r;
  plan->agents.resize(r);
  if (r == 0) return plan;

  // Scratch scalar run of MAP-DRAWING alone, with a trace sink recording
  // each agent's exact action tape.  The tape is schedule-independent (the
  // exploration reads only the agent's own visited marks and the static
  // home-base signs), so any policy works here.
  sim::World scratch(g, p, /*color_seed=*/1);
  std::vector<AgentMap> maps(r);
  std::size_t next_agent = 0;
  const sim::Protocol proto = [&](sim::AgentCtx& ctx) {
    return collect_map_agent(ctx, &maps[next_agent++]);
  };
  trace::VectorSink sink;
  sim::RunConfig config;
  config.policy = sim::SchedulerPolicy::RoundRobin;
  config.sink = &sink;
  config.trace_label = "elect-batch-compile";
  const sim::RunResult scratch_result = scratch.run(proto, config);
  QELECT_CHECK(scratch_result.completed,
               "elect-batch: map-drawing scratch run did not complete");

  for (const trace::TraceEvent& e : sink.events()) {
    if (e.kind == trace::TraceEvent::Kind::Move) {
      plan->agents[e.agent].tape.push_back({true, e.port});
    } else if (e.kind == trace::TraceEvent::Kind::Board) {
      plan->agents[e.agent].tape.push_back({false, 0});
    }
  }

  const std::vector<sim::Color>& colors = scratch.agent_colors();
  for (std::size_t a = 0; a < r; ++a) {
    ElectAgentProgram& prog = plan->agents[a];
    prog.tape_actions.reserve(prog.tape.size());
    for (const ElectAgentProgram::TapeEntry& e : prog.tape) {
      const BatchPending p = tape_pending(e);
      prog.tape_actions.push_back({p.kind, p.op, p.port});
    }
    AgentMap& map = maps[a];
    const std::size_t n = map.graph.node_count();
    QELECT_CHECK(n == g.node_count(), "elect-batch: partial map drawn");
    prog.map = map.graph;
    prog.map_n = n;

    // The agent's numbering, recovered from its own visited marks.
    prog.map_to_real.assign(n, graph::kInvalidNode);
    for (graph::NodeId x = 0; x < g.node_count(); ++x) {
      const sim::Sign* s = scratch.board_at(x).find(kTagVisited, colors[a]);
      QELECT_CHECK(s != nullptr && !s->payload.empty(),
                   "elect-batch: missing visited mark");
      const auto idx = static_cast<std::size_t>(s->payload.front());
      QELECT_CHECK(idx < n, "elect-batch: visited mark out of range");
      prog.map_to_real[idx] = x;
    }

    prog.plan = protocol_plan_shared(map.graph, map.placement());
    const ProtocolClassPlan& cls = *prog.plan;

    prog.my_class = cls.classes.size();
    for (std::size_t i = 0; i < cls.ell; ++i) {
      const auto& c = cls.classes[i];
      if (std::find(c.begin(), c.end(), graph::NodeId{0}) != c.end()) {
        prog.my_class = i;
        break;
      }
    }
    QELECT_CHECK(prog.my_class < cls.ell,
                 "elect: home-base not in a black class");
    // active_count_before_phase(max(my_class, 1)) of elect.cpp: both the
    // activation quorum and |D| entering the agent's first phase.
    prog.initial_d = prog.my_class <= 1 ? cls.sizes[0]
                                        : cls.d[prog.my_class - 2];
    prog.activation_expected = static_cast<std::int64_t>(prog.initial_d);

    // Who is based where, in this agent's numbering.
    std::vector<std::uint32_t> base_agent(n, sim::kNoBatchAgent);
    prog.agent_home.assign(r, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!map.base_color[v].has_value()) continue;
      std::uint32_t w = sim::kNoBatchAgent;
      for (std::size_t cand = 0; cand < r; ++cand) {
        if (colors[cand] == *map.base_color[v]) {
          w = static_cast<std::uint32_t>(cand);
          break;
        }
      }
      QELECT_CHECK(w != sim::kNoBatchAgent, "elect-batch: unknown base color");
      base_agent[v] = w;
      prog.agent_home[w] = static_cast<std::uint16_t>(v);
    }

    prog.class_nodes.resize(cls.classes.size());
    for (std::size_t j = 0; j < cls.classes.size(); ++j) {
      prog.class_nodes[j].reserve(cls.classes[j].size());
      for (const graph::NodeId v : cls.classes[j]) {
        prog.class_nodes[j].push_back(static_cast<std::uint16_t>(v));
      }
    }
    prog.class_squads.resize(cls.ell);
    for (std::size_t j = 0; j < cls.ell; ++j) {
      for (const graph::NodeId v : cls.classes[j]) {
        QELECT_CHECK(base_agent[v] != sim::kNoBatchAgent,
                     "elect-batch: black class node without a base");
        prog.class_squads[j].add(base_agent[v],
                                 static_cast<std::uint16_t>(v));
      }
    }

    prog.finder = RouteFinder(map.graph);
    if (n <= kMaterializeRouteNodes) {
      prog.routes.resize(n * n);
      for (std::size_t from = 0; from < n; ++from) {
        for (std::size_t to = 0; to < n; ++to) {
          prog.routes[from * n + to] =
              prog.finder.route(static_cast<graph::NodeId>(from),
                                static_cast<graph::NodeId>(to));
        }
      }
      // The announcement tour from any start node is likewise a pure
      // function of the map; materializing it saves the winner a DFS (and
      // its Graph::degree/peer call storm) per replica per run.
      prog.tours.resize(n);
      prog.tour_orders.resize(n);
      for (std::size_t s = 0; s < n; ++s) {
        prog.tours[s] =
            tour_ports(map.graph, static_cast<graph::NodeId>(s),
                       &prog.tour_orders[s]);
      }
    }
  }
  plan->final_gcd = plan->agents[0].plan->final_gcd;
  return plan;
}

void ElectAgentProgram::fill_route(std::size_t from, std::size_t to,
                                   std::vector<graph::PortId>& buf) const {
  if (!routes.empty()) {
    buf = routes[from * map_n + to];
    return;
  }
  buf = finder.route(static_cast<graph::NodeId>(from),
                     static_cast<graph::NodeId>(to));
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

struct ElectBatchModel::Frame {
  std::uint32_t pc = 0;
  std::uint16_t here = 0;
  std::uint16_t target = 0;
  std::uint32_t route_pos = 0;
  std::vector<graph::PortId> route_buf;

  std::size_t j = 0;           // phase index
  std::int64_t round = 0;
  std::uint64_t d_current = 0;
  std::uint64_t alpha = 0, beta = 0, rho = 0, q = 0, held = 0, before = 0;
  std::size_t i = 0, bi = 0, ti = 0;  // loop cursors

  bool i_am_active = true, i_am_d = false, i_search = false, i_passive = false;
  bool matched = false, this_matched = false, mine = false, stays = false;
  bool taken = false, ended = false, outcome_posted = false;
  bool i_was_matched = false, i_acquired_out = false, announce_leader = false;

  BatchSquad actives, searching, waiting, remaining, next_squad;
  std::vector<std::uint32_t> activators, matched_agents;
  std::vector<std::uint16_t> selected, next_selected;
  // Announcement tour: pointers into the plan's materialized tours, or
  // into the fallback vectors below (filled per run for large maps).
  const std::vector<graph::PortId>* tour_p = nullptr;
  const std::vector<graph::NodeId>* tour_order_p = nullptr;
  std::vector<graph::PortId> tour;
  std::vector<graph::NodeId> tour_order;

  sim::AgentStatus status = sim::AgentStatus::Running;
  std::uint32_t leader = sim::kNoBatchAgent;
};

namespace {
/// pc value of a finished program (real labels are all >= 8, see EB_STEP).
constexpr std::uint32_t kPcDone = 1;
/// pc value while replaying the map-drawing tape: advance() serves this
/// state from a fast path above the dispatch switch (it is ~90% of all
/// steps on small instances).
constexpr std::uint32_t kPcTape = 2;
}  // namespace

ElectBatchModel::ElectBatchModel() = default;
ElectBatchModel::~ElectBatchModel() = default;
ElectBatchModel::ElectBatchModel(ElectBatchModel&&) noexcept = default;
ElectBatchModel& ElectBatchModel::operator=(ElectBatchModel&&) noexcept =
    default;

void ElectBatchModel::reset(const ElectBatchPlan& plan,
                            std::size_t replica_count) {
  plan_ = &plan;
  agent_count_ = plan.agent_count;
  frames_.assign(replica_count * agent_count_, Frame{});
  tape_cur_.assign(replica_count * agent_count_, nullptr);
  tape_end_.assign(replica_count * agent_count_, nullptr);
}

ElectBatchModel::Frame& ElectBatchModel::frame(std::size_t rep,
                                               std::size_t agent) {
  return frames_[rep * agent_count_ + agent];
}

sim::AgentStatus ElectBatchModel::status(std::size_t rep,
                                         std::size_t agent) const {
  return frames_[rep * agent_count_ + agent].status;
}

std::uint32_t ElectBatchModel::leader_writer(std::size_t rep,
                                             std::size_t agent) const {
  return frames_[rep * agent_count_ + agent].leader;
}

// The stackless transcription of elect_inner(): a switch over the stored
// program counter.  Every co_await of the coroutine becomes one EB_STEP
// (suspend: fill `out`, remember the resume label, return) and every live
// local becomes a Frame field -- C++ forbids jumping over initialized
// locals, and the frame must survive suspension anyway.  Labels are dense
// sequential __COUNTER__ values (offset past the Start/kPcDone reserved
// ids), so the dispatch switch compiles to a jump table: advance() runs
// once per simulator step, and the sparse __LINE__-derived labels this
// replaced cost a compare-tree walk on every one of those calls.  The
// EB_STEP_AT indirection pins a single __COUNTER__ expansion per EB_STEP
// use (the macro argument would otherwise re-expand with a fresh value at
// its second mention).
#define EB_STEP_AT(id, ...) \
  do {                      \
    out = (__VA_ARGS__);    \
    f.pc = (id);            \
    return true;            \
    case (id):;             \
  } while (0)
#define EB_STEP(k, ...) EB_STEP_AT(__COUNTER__ + 8u, __VA_ARGS__)
// goto_node(): emit one Move per route leg.  f.here stays the route's
// source until the leg loop completes (fill_route is keyed on it).
#define EB_GOTO(k, target_)                                       \
  do {                                                            \
    f.target = static_cast<std::uint16_t>(target_);               \
    P.fill_route(f.here, f.target, f.route_buf);                  \
    f.route_pos = 0;                                              \
    while (f.route_pos < f.route_buf.size()) {                    \
      EB_STEP(k, move_pending(f.route_buf[f.route_pos++]));       \
    }                                                             \
    f.here = f.target;                                            \
  } while (0)
// barrier(): post at own home, then await every member's sign at theirs.
#define EB_BARRIER(squad_, phase_, round_, stage_, flag_)                     \
  do {                                                                        \
    EB_GOTO(0, 0);                                                            \
    EB_STEP(1, board_pending(BoardOp::PostBarrier, (phase_), (round_),        \
                             (stage_), (flag_)));                             \
    for (f.bi = 0; f.bi < (squad_).size(); ++f.bi) {                          \
      EB_GOTO(2, (squad_).homes[f.bi]);                                       \
      EB_STEP(3, wait_pending(WaitOp::Barrier, (phase_), (round_), (stage_),  \
                              static_cast<std::int64_t>(                      \
                                  (squad_).agents[f.bi])));                   \
    }                                                                         \
  } while (0)
// await_outcome(): sit at home until an outcome sign appears, adopt it
// (ReadOutcome sets f.status / f.leader), then finish the program.
#define EB_AWAIT_OUTCOME()                                        \
  do {                                                            \
    EB_GOTO(0, 0);                                                \
    EB_STEP(1, wait_pending(WaitOp::Outcome, 0, 0, 0, 0));        \
    EB_STEP(2, board_pending(BoardOp::ReadOutcome, 0, 0, 0, 0));  \
    f.pc = kPcDone;                                               \
    return false;                                                 \
  } while (0)

bool ElectBatchModel::advance_slow(std::size_t rep, std::size_t agent,
                                   sim::BatchPending& out) {
  Frame& f = frame(rep, agent);
  const ElectAgentProgram& P = plan_->agents[agent];
  const std::uint32_t self = static_cast<std::uint32_t>(agent);

  switch (f.pc) {
    case 0: {
      // ---- MAP-DRAWING (precompiled tape) ----
      // Arm the inline fast path's cursors; it serves the rest of the tape
      // without re-entering this switch.  The pc parks at kPcTape so the
      // post-replay call resumes below.
      const std::size_t idx = rep * agent_count_ + agent;
      if (!P.tape_actions.empty()) {
        const ElectAgentProgram::TapeAction& first = P.tape_actions.front();
        out.kind = first.kind;
        out.op = first.op;
        out.port = first.port;
        tape_cur_[idx] = P.tape_actions.data() + 1;
        tape_end_[idx] = P.tape_actions.data() + P.tape_actions.size();
        f.pc = kPcTape;
        return true;
      }
      [[fallthrough]];
    }
    case kPcTape:  // resumed after the final tape action executed
      f.here = 0;  // the exploration returns home

      // ---- COMPUTE&ORDER is compiled; wait for activation if not in C_1 --
      if (P.my_class != 0) {
        EB_STEP(0, wait_pending(WaitOp::Activation,
                                static_cast<std::int64_t>(P.my_class),
                                P.activation_expected, 0, 0));
        EB_STEP(1, board_pending(BoardOp::ReadActivation,
                                 static_cast<std::int64_t>(P.my_class), 0, 0,
                                 0));
        if (f.ended) EB_AWAIT_OUTCOME();
        f.actives.clear();
        for (f.i = 0; f.i < f.activators.size(); ++f.i) {
          f.actives.add(f.activators[f.i], P.agent_home[f.activators[f.i]]);
        }
      } else {
        f.actives = P.class_squads[0];
      }
      f.d_current = P.initial_d;
      f.i_am_active = true;

      // ---- Reduction phases ----
      for (f.j = (P.my_class == 0 ? 1 : P.my_class);
           f.j < P.plan->classes.size() && f.i_am_active; ++f.j) {
        if (f.d_current == 1) break;
        if (f.j < P.plan->ell) {
          // ---- AGENT-REDUCE phase ----
          f.i_am_d = f.actives.contains(self);
          if (f.i_am_d) {
            // Wake the members of C_j.
            for (f.i = 0; f.i < P.class_nodes[f.j].size(); ++f.i) {
              EB_GOTO(0, P.class_nodes[f.j][f.i]);
              EB_STEP(1, board_pending(BoardOp::PostActivate,
                                       static_cast<std::int64_t>(f.j), 0, 0,
                                       0));
            }
          }
          // Tie rule: S = D when |D| <= |C|; otherwise S = C.
          if (f.actives.size() <= P.class_squads[f.j].size()) {
            f.searching = f.actives;
            f.waiting = P.class_squads[f.j];
          } else {
            f.searching = P.class_squads[f.j];
            f.waiting = f.actives;
          }
          f.i_passive = false;
          f.round = 0;
          while (f.searching.size() < f.waiting.size() && !f.i_passive) {
            f.i_search = f.searching.contains(self);
            f.matched_agents.clear();
            if (f.i_search) {
              // searcher_round(): match pass ...
              f.matched = false;
              for (f.i = 0; f.i < f.waiting.size() && !f.matched; ++f.i) {
                EB_GOTO(0, f.waiting.homes[f.i]);
                EB_STEP(1, board_pending(BoardOp::MatchTry,
                                         static_cast<std::int64_t>(f.j),
                                         f.round, 0, 0));
              }
              QELECT_CHECK(f.matched,
                           "agent-reduce: searcher finished its pass "
                           "unmatched; |S| <= |W| should make this "
                           "impossible");
              // ... finalization barrier ...
              EB_BARRIER(f.searching, static_cast<std::int64_t>(f.j), f.round, 0, 0);
              // ... completion pass.
              for (f.i = 0; f.i < f.waiting.size(); ++f.i) {
                EB_GOTO(0, f.waiting.homes[f.i]);
                EB_STEP(1, board_pending(BoardOp::Completion,
                                         static_cast<std::int64_t>(f.j),
                                         f.round, 0, 0));
                if (f.this_matched) {
                  f.matched_agents.push_back(f.waiting.agents[f.i]);
                }
              }
            } else {
              // waiting_round().
              EB_GOTO(0, 0);
              EB_STEP(1, wait_pending(WaitOp::RoundDone,
                                      static_cast<std::int64_t>(f.j), f.round,
                                      static_cast<std::int64_t>(
                                          f.searching.size()),
                                      0));
              EB_STEP(2, board_pending(BoardOp::WaitRead,
                                       static_cast<std::int64_t>(f.j), f.round,
                                       0, 0));
              if (f.outcome_posted) EB_AWAIT_OUTCOME();
              if (f.i_was_matched) {
                f.i_passive = true;
                // Announce passivity at home, then on every waiting
                // home-base.
                EB_STEP(0, board_pending(BoardOp::PostPassive,
                                         static_cast<std::int64_t>(f.j),
                                         f.round, 0, 0));
                for (f.i = 0; f.i < f.waiting.size(); ++f.i) {
                  EB_GOTO(0, f.waiting.homes[f.i]);
                  EB_STEP(1, board_pending(BoardOp::PostPassive,
                                           static_cast<std::int64_t>(f.j),
                                           f.round, 0, 0));
                }
                break;
              }
              EB_STEP(0, wait_pending(WaitOp::Passive,
                                      static_cast<std::int64_t>(f.j), f.round,
                                      static_cast<std::int64_t>(
                                          f.searching.size()),
                                      0));
              EB_STEP(1, board_pending(BoardOp::ReadPassive,
                                       static_cast<std::int64_t>(f.j), f.round,
                                       0, 0));
              if (f.ended) EB_AWAIT_OUTCOME();
            }
            QELECT_CHECK(f.matched_agents.size() == f.searching.size(),
                         "agent-reduce: matched set size must equal |S|");
            // Update rule of Section 3.3.1.
            f.remaining = f.waiting;
            f.remaining.remove_all(f.matched_agents);
            if (f.waiting.size() - f.searching.size() >= f.searching.size()) {
              f.waiting = f.remaining;
            } else {
              std::swap(f.searching, f.remaining);
              f.waiting = f.remaining;  // old searchers now wait
            }
            ++f.round;
          }
          if (f.i_passive || !f.searching.contains(self)) {
            f.i_am_active = f.searching.contains(self) && !f.i_passive;
          }
          if (!f.i_am_active) EB_AWAIT_OUTCOME();
          f.actives = f.searching;
          f.d_current = std::gcd(f.d_current, P.plan->sizes[f.j]);
        } else {
          // ---- NODE-REDUCE phase ----
          f.selected = P.class_nodes[f.j];
          f.alpha = f.actives.size();
          f.beta = f.selected.size();
          f.round = 0;
          f.i_acquired_out = false;
          while (f.alpha != f.beta && !f.i_acquired_out) {
            if (f.alpha > f.beta) {
              // Case 1: each node takes q acquirers; rho agents stay.
              f.rho = remainder_in_range(f.alpha, f.beta);
              f.q = (f.alpha - f.rho) / f.beta;
              f.mine = false;
              for (f.i = 0; f.i < f.selected.size(); ++f.i) {
                if (f.mine) break;
                EB_GOTO(0, f.selected[f.i]);
                EB_STEP(1, board_pending(BoardOp::AcquireCase1,
                                         static_cast<std::int64_t>(f.j),
                                         f.round,
                                         static_cast<std::int64_t>(f.q), 0));
              }
              EB_BARRIER(f.actives, static_cast<std::int64_t>(f.j), f.round, 2, f.mine ? 0 : 1);
              f.next_squad.clear();
              for (f.i = 0; f.i < f.actives.size(); ++f.i) {
                EB_GOTO(0, f.actives.homes[f.i]);
                EB_STEP(1, board_pending(BoardOp::ReadStay,
                                         static_cast<std::int64_t>(f.j),
                                         f.round,
                                         static_cast<std::int64_t>(
                                             f.actives.agents[f.i]),
                                         0));
                if (f.stays) {
                  f.next_squad.add(f.actives.agents[f.i], f.actives.homes[f.i]);
                }
              }
              QELECT_CHECK(f.next_squad.size() == f.rho,
                           "node-reduce: continuing agent count mismatch");
              if (f.mine) {
                f.i_acquired_out = true;
                f.i_am_active = false;
              } else {
                f.actives = f.next_squad;
              }
              f.alpha = f.rho;
            } else {
              // Case 2: each agent acquires q nodes; rho nodes stay.
              f.rho = remainder_in_range(f.beta, f.alpha);
              f.q = (f.beta - f.rho) / f.alpha;
              f.held = 0;
              while (f.held < f.q) {
                f.before = f.held;
                for (f.i = 0; f.i < f.selected.size(); ++f.i) {
                  if (f.held == f.q) break;
                  EB_GOTO(0, f.selected[f.i]);
                  EB_STEP(1, board_pending(BoardOp::AcquireCase2,
                                           static_cast<std::int64_t>(f.j),
                                           f.round, 0, 0));
                }
                if (f.held == f.before) {
                  // Full pass without progress: yield, rescan.
                  EB_STEP(0, yield_pending());
                }
              }
              EB_BARRIER(f.actives, static_cast<std::int64_t>(f.j), f.round, 4, 0);
              f.next_selected.clear();
              for (f.i = 0; f.i < f.selected.size(); ++f.i) {
                EB_GOTO(0, f.selected[f.i]);
                EB_STEP(1, board_pending(BoardOp::ReadTaken,
                                         static_cast<std::int64_t>(f.j),
                                         f.round, 0, 0));
                if (!f.taken) f.next_selected.push_back(f.selected[f.i]);
              }
              QELECT_CHECK(f.next_selected.size() == f.rho,
                           "node-reduce: surviving node count mismatch");
              f.selected = f.next_selected;
              f.beta = f.rho;
            }
            ++f.round;
          }
          if (!f.i_am_active) EB_AWAIT_OUTCOME();
          f.d_current = std::gcd(f.d_current, P.plan->sizes[f.j]);
        }
      }

      // ---- Announcement ----
      f.announce_leader = (f.d_current == 1);
      if (!P.tours.empty()) {
        f.tour_p = &P.tours[f.here];
        f.tour_order_p = &P.tour_orders[f.here];
      } else {
        f.tour_order.clear();
        f.tour = tour_ports(P.map, f.here, &f.tour_order);
        f.tour_p = &f.tour;
        f.tour_order_p = &f.tour_order;
      }
      EB_STEP(0, board_pending(BoardOp::Stamp, f.announce_leader ? 1 : 0, 0, 0, 0));
      for (f.ti = 0; f.ti < f.tour_p->size(); ++f.ti) {
        EB_STEP(1, move_pending((*f.tour_p)[f.ti]));
        f.here = static_cast<std::uint16_t>((*f.tour_order_p)[f.ti]);
        EB_STEP(2, board_pending(BoardOp::Stamp, f.announce_leader ? 1 : 0, 0, 0, 0));
      }
      f.status = f.announce_leader ? sim::AgentStatus::Leader
                                   : sim::AgentStatus::FailureDetected;
      f.pc = kPcDone;
      return false;
  }
  QELECT_CHECK(false, "elect-batch: resumed an invalid interpreter state");
  return false;
}

#undef EB_STEP_AT
#undef EB_STEP
#undef EB_GOTO
#undef EB_BARRIER
#undef EB_AWAIT_OUTCOME

void ElectBatchModel::apply_board(std::size_t rep, std::size_t agent,
                                  const sim::BatchPending& p,
                                  sim::BatchBoard& board) {
  Frame& f = frame(rep, agent);
  const std::uint32_t self = static_cast<std::uint32_t>(agent);
  switch (static_cast<BoardOp>(p.op)) {
    case BoardOp::MapBoard:
      // The tape's board accesses read/write only the agent's own visited
      // marks, already folded into the compiled tape; no batch-visible
      // state changes.
      break;
    case BoardOp::PostActivate:
      post_sign(board, self, kTagActivate, {p.a});
      break;
    case BoardOp::ReadActivation: {
      f.ended = has_outcome(board);
      f.activators.clear();
      if (!f.ended) {
        for (const BatchSign& s : board.signs()) {
          if (s.tag == kTagActivate && s.len == 1 && s.payload[0] == p.a &&
              std::find(f.activators.begin(), f.activators.end(), s.writer) ==
                  f.activators.end()) {
            f.activators.push_back(s.writer);
          }
        }
      }
      break;
    }
    case BoardOp::MatchTry:
      if (!any_round_sign(board, kTagMatched, p.a, p.b)) {
        post_sign(board, self, kTagMatched, {p.a, p.b});
        f.matched = true;
      }
      break;
    case BoardOp::Completion:
      f.this_matched = any_round_sign(board, kTagMatched, p.a, p.b);
      post_sign(board, self, kTagRoundDone, {p.a, p.b});
      break;
    case BoardOp::WaitRead:
      f.outcome_posted = has_outcome(board);
      f.i_was_matched =
          !f.outcome_posted && any_round_sign(board, kTagMatched, p.a, p.b);
      break;
    case BoardOp::PostPassive:
      post_sign(board, self, kTagPassive, {p.a, p.b});
      break;
    case BoardOp::ReadPassive:
      f.ended = has_outcome(board);
      writers_of_round(board, kTagPassive, p.a, p.b, f.matched_agents);
      break;
    case BoardOp::PostBarrier:
      post_sign(board, self, kTagBarrier, {p.a, p.b, p.c, p.d});
      break;
    case BoardOp::AcquireCase1:
      if (count_round_distinct(board, kTagAcquire, p.a, p.b) <
          static_cast<std::size_t>(p.c)) {
        post_sign(board, self, kTagAcquire, {p.a, p.b});
        f.mine = true;
      }
      break;
    case BoardOp::AcquireCase2:
      if (count_round_distinct(board, kTagAcquire, p.a, p.b) == 0) {
        post_sign(board, self, kTagAcquire, {p.a, p.b});
        ++f.held;
      }
      break;
    case BoardOp::ReadStay:
      f.stays = false;
      for (const BatchSign& s : board.signs()) {
        if (s.writer == static_cast<std::uint32_t>(p.c) &&
            s.tag == kTagBarrier && s.len == 4 && s.payload[0] == p.a &&
            s.payload[1] == p.b && s.payload[2] == 2 && s.payload[3] == 1) {
          f.stays = true;
        }
      }
      break;
    case BoardOp::ReadTaken:
      f.taken = count_round_distinct(board, kTagAcquire, p.a, p.b) > 0;
      break;
    case BoardOp::ReadOutcome: {
      const BatchSign* s = first_outcome(board);
      QELECT_CHECK(s != nullptr, "elect-batch: outcome sign vanished");
      if (s->payload[0] == kOutcomeLeader) {
        if (s->writer == self) {
          f.status = sim::AgentStatus::Leader;  // kept safe, as in elect.cpp
        } else {
          f.status = sim::AgentStatus::Defeated;
          f.leader = s->writer;
        }
      } else {
        f.status = sim::AgentStatus::FailureDetected;
      }
      break;
    }
    case BoardOp::Stamp:
      post_sign(board, self, kTagOutcome,
                {p.a != 0 ? kOutcomeLeader : kOutcomeFailure});
      break;
  }
}

bool ElectBatchModel::eval_wait(std::size_t rep, const sim::BatchPending& p,
                                const sim::BatchBoard& board) const {
  (void)rep;
  switch (static_cast<WaitOp>(p.op)) {
    case WaitOp::Activation:
      return has_outcome(board) ||
             distinct_activators(board, p.a) >=
                 static_cast<std::size_t>(p.b);
    case WaitOp::Barrier:
      return barrier_present(board, static_cast<std::uint32_t>(p.d), p.a, p.b,
                             p.c);
    case WaitOp::Outcome:
      return has_outcome(board);
    case WaitOp::RoundDone:
      return has_outcome(board) ||
             count_round_distinct(board, kTagRoundDone, p.a, p.b) >=
                 static_cast<std::size_t>(p.c);
    case WaitOp::Passive:
      return has_outcome(board) ||
             count_round_distinct(board, kTagPassive, p.a, p.b) >=
                 static_cast<std::size_t>(p.c);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

ElectBatchOutcome ElectBatchRunner::run(
    const ElectBatchPlan& plan,
    const std::vector<sim::BatchReplicaConfig>& replicas,
    const sim::BatchConfig& config) {
  world_.reset(plan.graph, plan.placement, replicas, config);
  model_.reset(plan, replicas.size());
  world_.run(model_);

  ElectBatchOutcome outcome;
  outcome.runs.resize(replicas.size());
  outcome.failed.assign(replicas.size(), 0);
  outcome.errors.resize(replicas.size());
  for (std::size_t rep = 0; rep < replicas.size(); ++rep) {
    if (world_.failed(rep)) {
      outcome.failed[rep] = 1;
      outcome.errors[rep] = world_.error(rep);
    } else {
      outcome.runs[rep] = world_.result(rep);
    }
  }
  return outcome;
}

ElectBatchOutcome run_elect_batch(
    const std::shared_ptr<const ElectBatchPlan>& plan,
    const std::vector<sim::BatchReplicaConfig>& replicas,
    const sim::BatchConfig& config) {
  // Runner reuse is the batch analog of campaign::WorldPool: a fresh
  // runner allocates every replica-side buffer.  Each thread keeps one
  // runner for its whole life and re-targets it at every plan; run()
  // fully resets replica state, so results are identical to a fresh
  // runner's (the batch-vs-scalar parity tests pin this through this very
  // path).
  thread_local ElectBatchRunner runner;
  return runner.run(*plan, replicas, config);
}

}  // namespace qelect::core
