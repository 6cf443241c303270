#include "qelect/sim/world.hpp"

#include <algorithm>
#include <type_traits>

#include "qelect/sim/scheduler.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::sim {

const char* policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::Random:
      return "random";
    case SchedulerPolicy::RoundRobin:
      return "round-robin";
    case SchedulerPolicy::Lockstep:
      return "lockstep";
    case SchedulerPolicy::Replay:
      return "replay";
    case SchedulerPolicy::Counter:
      return "counter";
  }
  return "?";
}

namespace {

/// Stand-in injector for the non-faulted run_impl instantiations: every
/// reference to it sits under `if constexpr (kFaulted)`, so the discarded
/// branches are never instantiated and the fault-free path constructs
/// nothing at all (the real injector's plan copy + log vector are small
/// but measurable on microsecond-scale runs).
struct NoInjector {};

template <bool kFaulted>
auto make_injector(const fault::FaultPlan* plan) {
  if constexpr (kFaulted) {
    return fault::FaultInjector(plan);
  } else {
    return NoInjector{};
  }
}

trace::RunMetadata make_run_metadata(const RunConfig& config,
                                     const graph::Graph& graph,
                                     const graph::Placement& placement,
                                     bool quantitative) {
  trace::RunMetadata meta;
  meta.label = config.trace_label;
  meta.node_count = graph.node_count();
  meta.edge_count = graph.edge_count();
  meta.agent_count = placement.agent_count();
  meta.home_bases = placement.home_bases();
  meta.policy = policy_name(config.policy);
  meta.seed = config.seed;
  meta.max_steps = config.max_steps;
  meta.quantitative = quantitative;
  meta.message_passing = config.message_passing;
  if (config.faults != nullptr && config.faults->enabled()) {
    meta.fault_seed = config.faults->fault_seed;
    for (const fault::RateField& r : fault::kRateFields) {
      const double rate = config.faults->*r.rate;
      if (rate > 0) meta.fault_rates.emplace_back(r.key, rate);
    }
  }
  return meta;
}

trace::RunSummary make_run_summary(const RunResult& result) {
  trace::RunSummary summary;
  summary.steps = result.steps;
  summary.total_moves = result.total_moves;
  summary.total_board_accesses = result.total_board_accesses;
  summary.completed = result.completed;
  summary.deadlock = result.deadlock;
  summary.step_limit = result.step_limit;
  return summary;
}

}  // namespace

std::size_t AgentCtx::degree() const {
  QELECT_ASSERT(graph_ != nullptr);
  return graph_->degree(position_);
}

ActionAwaiter AgentCtx::move(graph::PortId port) {
  return ActionAwaiter{ActionMove{port}};
}

ActionAwaiter AgentCtx::yield() { return ActionAwaiter{ActionYield{}}; }

void AgentCtx::declare_leader() { status_ = AgentStatus::Leader; }

void AgentCtx::declare_defeated(const Color& leader) {
  status_ = AgentStatus::Defeated;
  leader_color_ = leader;
}

void AgentCtx::declare_failure_detected() {
  status_ = AgentStatus::FailureDetected;
}

std::size_t RunResult::leader_count() const {
  std::size_t count = 0;
  for (const AgentReport& a : agents) {
    if (a.status == AgentStatus::Leader) ++count;
  }
  return count;
}

std::size_t RunResult::crashed_count() const {
  std::size_t count = 0;
  for (const AgentReport& a : agents) {
    if (a.status == AgentStatus::Crashed) ++count;
  }
  return count;
}

bool RunResult::clean_election() const {
  if (!completed || leader_count() != 1) return false;
  Color leader;
  for (const AgentReport& a : agents) {
    if (a.status == AgentStatus::Leader) leader = a.color;
  }
  for (const AgentReport& a : agents) {
    if (a.status == AgentStatus::Leader) continue;
    if (a.status != AgentStatus::Defeated) return false;
    if (!(a.leader_color == leader)) return false;
  }
  return true;
}

bool RunResult::clean_failure() const {
  if (!completed) return false;
  return std::all_of(agents.begin(), agents.end(), [](const AgentReport& a) {
    return a.status == AgentStatus::FailureDetected;
  });
}

bool RunResult::surviving_election() const {
  if (!completed) return false;
  std::size_t survivors = 0;
  std::size_t leaders = 0;
  Color leader;
  for (const AgentReport& a : agents) {
    if (a.status == AgentStatus::Crashed) continue;
    ++survivors;
    if (a.status == AgentStatus::Leader) {
      ++leaders;
      leader = a.color;
    }
  }
  if (survivors == 0 || leaders != 1) return false;
  for (const AgentReport& a : agents) {
    if (a.status == AgentStatus::Crashed || a.status == AgentStatus::Leader) {
      continue;
    }
    if (a.status != AgentStatus::Defeated) return false;
    if (!(a.leader_color == leader)) return false;
  }
  return true;
}

World::World(graph::Graph g, graph::Placement p, std::uint64_t color_seed)
    : World(std::move(g), std::move(p), color_seed, false) {}

World World::quantitative(graph::Graph g, graph::Placement p,
                          std::uint64_t color_seed) {
  return World(std::move(g), std::move(p), color_seed, true);
}

World::World(graph::Graph g, graph::Placement p, std::uint64_t color_seed,
             bool quantitative)
    : graph_(std::move(g)),
      placement_(std::move(p)),
      quantitative_(quantitative),
      color_seed_(color_seed) {
  QELECT_CHECK(placement_.node_count() == graph_.node_count(),
               "World: placement does not fit graph");
  QELECT_CHECK(graph_.is_connected(), "World: graph must be connected");
  mint_labels();
}

void World::mint_labels() {
  ColorUniverse::mint_many(color_seed_, placement_.agent_count(), colors_);
  if (quantitative_) {
    // Distinct comparable labels; randomized so protocols cannot rely on
    // them being 0..r-1.
    Xoshiro256 rng(color_seed_ ^ 0x51a7eb71d3c2a9f0ULL);
    std::vector<std::int64_t> ids;
    while (ids.size() < placement_.agent_count()) {
      const std::int64_t candidate =
          static_cast<std::int64_t>(rng.next() >> 16);
      if (std::find(ids.begin(), ids.end(), candidate) == ids.end()) {
        ids.push_back(candidate);
      }
    }
    quant_ids_ = std::move(ids);
  }
}

void World::reset(std::uint64_t color_seed) {
  // Coroutine frames hold references into contexts; drop them first.
  scratch_.behaviors.clear();
  scratch_.contexts.clear();
  for (Whiteboard& b : boards_) b.clear();
  if (color_seed != color_seed_) {
    color_seed_ = color_seed;
    mint_labels();
  }
}

const Whiteboard& World::board_at(graph::NodeId node) const {
  QELECT_CHECK(node < boards_.size(), "board_at: node out of range");
  return boards_[node];
}

RunResult World::run(const Protocol& protocol, const RunConfig& config) {
  // The untraced mobile path is the campaign hot loop: compiling each
  // (reading, sink, faults) combination separately removes every
  // message, sink and fault branch from the per-step code it does not
  // need.  Only a plan with a live axis selects a hooked instantiation,
  // so a null or all-zero plan runs byte-identical fault-free code.
  const bool faulted = config.faults != nullptr && config.faults->enabled();
  QELECT_CHECK(!faulted || config.message_passing ||
                   !config.faults->message_enabled(),
               "World::run: a message-axis fault plan needs "
               "RunConfig::message_passing (the mobile reading has no "
               "links to fault)");
  const auto dispatch = [&](auto messages) {
    constexpr bool kMessages = decltype(messages)::value;
    if (config.sink != nullptr) {
      return faulted ? run_impl<kMessages, true, true>(protocol, config)
                     : run_impl<kMessages, true, false>(protocol, config);
    }
    return faulted ? run_impl<kMessages, false, true>(protocol, config)
                   : run_impl<kMessages, false, false>(protocol, config);
  };
  return config.message_passing ? dispatch(std::true_type{})
                                : dispatch(std::false_type{});
}

template <bool kMessages, bool kTraced, bool kFaulted>
RunResult World::run_impl(const Protocol& protocol, const RunConfig& config) {
  const std::size_t r = placement_.agent_count();
  const std::size_t n = graph_.node_count();

  // Per-run state, reusing every buffer from the previous run.
  scratch_.behaviors.clear();  // frames reference contexts; drop first
  boards_.resize(n);
  for (Whiteboard& b : boards_) b.clear();

  trace::TraceSink* const sink = config.sink;
  if constexpr (kTraced) {
    sink->begin_run(
        make_run_metadata(config, graph_, placement_, quantitative_));
  }

  // Mark every home-base with its owner's colored sign (Section 1.2); in
  // quantitative worlds the sign also carries the integer label so any
  // traversing agent can read it.
  std::vector<AgentCtx>& contexts = scratch_.contexts;
  contexts.assign(r, AgentCtx{});
  for (std::size_t i = 0; i < r; ++i) {
    const graph::NodeId home = placement_.home_bases()[i];
    AgentCtx& ctx = contexts[i];
    ctx.color_ = colors_[i];
    ctx.position_ = home;
    ctx.graph_ = &graph_;
    if (quantitative_) ctx.quant_id_ = quant_ids_[i];
    Sign mark;
    mark.color = colors_[i];
    mark.tag = kTagHomeBase;
    if (quantitative_) mark.payload.push_back(quant_ids_[i]);
    boards_[home].post(std::move(mark));
  }

  std::vector<Behavior>& behaviors = scratch_.behaviors;
  behaviors.reserve(r);
  for (std::size_t i = 0; i < r; ++i) {
    behaviors.push_back(protocol(contexts[i]));
    QELECT_CHECK(behaviors.back().handle(),
                 "protocol returned an empty Behavior");
  }

  // Message runs: the transit state per agent, the half-edge the message
  // is traversing or none.  An in-transit agent's only enabled step is
  // its delivery.
  std::vector<std::uint8_t>& in_flight = scratch_.in_flight;
  std::vector<graph::HalfEdge>& arrival = scratch_.arrival;
  std::size_t in_flight_count = 0;
  if constexpr (kMessages) {
    in_flight.assign(r, 0);
    arrival.assign(r, graph::HalfEdge{});
  }

  Scheduler scheduler(config, r);
  RunResult result;

  // Fault machinery: the injector's Philox streams are keyed off the plan
  // alone, so the roll sequence is independent of scheduling and replay.
  auto injector = make_injector<kFaulted>(config.faults);
  if constexpr (kFaulted) scratch_.crashed.assign(r, 0);

  // The enabled set is maintained incrementally instead of being rebuilt
  // by evaluating every agent's wait predicate each step: an agent parked
  // on wait_until sits on its board's waiter list and is re-polled only
  // when that board mutates.  `enabled` stays sorted ascending, so the
  // Random / RoundRobin / Replay pick semantics (and hence recorded
  // schedules) are bit-identical to the scan-based engine as long as
  // predicates are pure functions of the board.
  std::vector<std::size_t>& enabled = scratch_.enabled;
  enabled.clear();
  std::vector<std::uint8_t>& waiting = scratch_.waiting;
  waiting.assign(r, 0);
  std::vector<std::uint8_t>& wait_sat = scratch_.wait_sat;
  wait_sat.assign(r, 0);
  std::vector<std::vector<std::uint32_t>>& waiters = scratch_.waiters;
  waiters.resize(n);
  for (std::vector<std::uint32_t>& w : waiters) w.clear();

  std::size_t live = r;
  for (std::size_t i = 0; i < r; ++i) enabled.push_back(i);

  const auto enabled_insert = [&enabled](std::size_t i) {
    const auto it = std::lower_bound(enabled.begin(), enabled.end(), i);
    if (it == enabled.end() || *it != i) enabled.insert(it, i);
  };
  const auto enabled_erase = [&enabled](std::size_t i) {
    const auto it = std::lower_bound(enabled.begin(), enabled.end(), i);
    if (it != enabled.end() && *it == i) enabled.erase(it);
  };

  // Re-derives agent i's scheduling state after its coroutine advanced.
  const auto classify = [&](std::size_t i) {
    if constexpr (kFaulted) {
      if (scratch_.crashed[i]) {
        enabled_erase(i);
        return;
      }
    }
    if constexpr (kMessages) {
      if (in_flight[i]) {  // a message: delivery always enabled
        enabled_insert(i);
        return;
      }
    }
    if (behaviors[i].done()) {
      --live;
      enabled_erase(i);
      return;
    }
    PendingAction& pending = behaviors[i].handle().promise().pending;
    if (const auto* wait = std::get_if<ActionWait>(&pending)) {
      const graph::NodeId node = contexts[i].position_;
      waiting[i] = 1;
      waiters[node].push_back(static_cast<std::uint32_t>(i));
      const bool sat = wait->pred(boards_[node]);
      wait_sat[i] = sat ? 1 : 0;
      if (sat) {
        enabled_insert(i);
      } else {
        enabled_erase(i);
      }
      return;
    }
    enabled_insert(i);
  };

  const auto unpark = [&](std::size_t i) {
    std::vector<std::uint32_t>& list = waiters[contexts[i].position_];
    for (std::uint32_t& slot : list) {
      if (slot == i) {
        slot = list.back();
        list.pop_back();
        break;
      }
    }
    waiting[i] = 0;
  };

  // Board `node` changed: re-poll exactly the agents parked on it.
  const auto notify_board = [&](graph::NodeId node) {
    for (const std::uint32_t j : waiters[node]) {
      const auto* wait =
          std::get_if<ActionWait>(&behaviors[j].handle().promise().pending);
      QELECT_ASSERT(wait != nullptr);
      const bool sat = wait->pred(boards_[node]);
      if (sat != (wait_sat[j] != 0)) {
        wait_sat[j] = sat ? 1 : 0;
        if (sat) {
          enabled_insert(j);
        } else {
          enabled_erase(j);
        }
      }
    }
  };

  const auto execute_step = [&](std::size_t i) {
    AgentCtx& ctx = contexts[i];
    bool in_transit = false;
    if constexpr (kMessages) in_transit = in_flight[i] != 0;
    // Crash axis: the agent's scheduled step becomes its last.  The step
    // still consumes its scheduler pick and emits exactly one event, so
    // recorded schedules replay the crash at the same position.  Only a
    // computing agent can crash-stop here; an in-flight agent is a
    // message, and its loss is the message axis's business.
    if constexpr (kFaulted) {
      if (!in_transit && injector.roll_crash()) {
        if (waiting[i]) unpark(i);
        scratch_.crashed[i] = 1;
        ctx.status_ = AgentStatus::Crashed;
        --live;
        enabled_erase(i);
        injector.record(result.steps, static_cast<std::uint32_t>(i),
                        fault::FaultKind::AgentCrash, ctx.position_);
        if constexpr (kTraced) {
          sink->on_event(TraceEvent{result.steps,
                                    static_cast<std::uint32_t>(i),
                                    TraceEvent::Kind::Crash, ctx.position_,
                                    trace::kNoPort});
        }
        ++result.steps;
        return;
      }
    }
    Behavior::Handle handle = behaviors[i].handle();
    PendingAction& pending = handle.promise().pending;
    TraceEvent::Kind kind = TraceEvent::Kind::Start;
    graph::PortId port = trace::kNoPort;
    bool board_mutated = false;
    graph::NodeId mutated_node = 0;
    // False while the agent is a message on a link: its coroutine
    // continues only at delivery.
    bool resume = true;
    if (in_transit) {
      if constexpr (kMessages) {
        bool delivered = true;
        if constexpr (kFaulted) {
          if (injector.roll_msg_delay()) {
            // Adversarial reordering: this delivery attempt stalls; the
            // message stays on the link and remains deliverable later.
            delivered = false;
            kind = TraceEvent::Kind::Stall;
            injector.record(result.steps, static_cast<std::uint32_t>(i),
                            fault::FaultKind::MessageDelayed, arrival[i].to);
          }
        }
        if (delivered) {
          // Delivery: the message (P, M) arrives and the processor
          // resumes executing P against its whiteboard.
          in_flight[i] = 0;
          --in_flight_count;
          ctx.position_ = arrival[i].to;
          ctx.entry_port_ = arrival[i].to_port;
          ++ctx.moves_;
          ++result.messages_delivered;
          kind = TraceEvent::Kind::Deliver;
          port = arrival[i].to_port;
          if constexpr (kFaulted) {
            if (injector.roll_msg_dup()) {
              // A second copy of the message arrives and is absorbed by
              // the already-arrived agent: it inflates delivery counts
              // without forking the agent (the model's agents are unique).
              ++result.messages_delivered;
              injector.record(result.steps, static_cast<std::uint32_t>(i),
                              fault::FaultKind::MessageDuplicated,
                              ctx.position_);
            }
          }
        }
        resume = delivered;
      }
    } else if (auto* mv = std::get_if<ActionMove>(&pending)) {
      QELECT_CHECK(mv->port < graph_.degree(ctx.position_),
                   "agent moved through a nonexistent port");
      port = mv->port;
      bool cut = false;
      bool wormhole = false;
      graph::HalfEdge far;
      if constexpr (kFaulted) {
        if (injector.roll_edge_cut()) {
          // The edge is transiently down: the traversal (or send) fails
          // and the agent stays put, unaware -- it sees the same node
          // again.
          cut = true;
          kind = TraceEvent::Kind::MoveCut;
          injector.record(result.steps, static_cast<std::uint32_t>(i),
                          fault::FaultKind::EdgeCut, ctx.position_);
        } else if (injector.roll_edge_wormhole()) {
          // A transient edge not in G: the agent (or message) lands at a
          // uniformly random node through a uniformly random entry port.
          // The event stays a move so the locality checker flags it; the
          // fault log then names the wormhole as the violated assumption.
          wormhole = true;
          far.to = static_cast<graph::NodeId>(bounded_draw(
              injector.word(fault::FaultAxis::Edge), graph_.node_count()));
          far.to_port = static_cast<graph::PortId>(bounded_draw(
              injector.word(fault::FaultAxis::Edge), graph_.degree(far.to)));
          injector.record(result.steps, static_cast<std::uint32_t>(i),
                          fault::FaultKind::EdgeWormhole, far.to);
        }
      }
      if (!cut) {
        if (!wormhole) far = graph_.peer(ctx.position_, mv->port);
        if constexpr (kMessages) {
          // Send: the agent leaves the processor and becomes a message on
          // the link; it will resume only at delivery.
          in_flight[i] = 1;
          ++in_flight_count;
          arrival[i] = far;
          kind = TraceEvent::Kind::Send;
          resume = false;
          if constexpr (kFaulted) {
            if (injector.roll_msg_loss()) {
              // The message vanishes on the link: the agent it carries is
              // gone (a crash in transit).  The Send event still appears;
              // the agent's trace simply ends there.
              in_flight[i] = 0;
              --in_flight_count;
              scratch_.crashed[i] = 1;
              ctx.status_ = AgentStatus::Crashed;
              --live;
              injector.record(result.steps, static_cast<std::uint32_t>(i),
                              fault::FaultKind::MessageLost, ctx.position_);
            }
          }
        } else {
          ctx.position_ = far.to;
          ctx.entry_port_ = far.to_port;
          ++ctx.moves_;
          kind = TraceEvent::Kind::Move;
        }
      }
    } else if (auto* bd = std::get_if<ActionBoard>(&pending)) {
      mutated_node = ctx.position_;
      bd->fn(boards_[mutated_node]);
      board_mutated = true;
      ++ctx.board_accesses_;
      kind = TraceEvent::Kind::Board;
      if constexpr (kFaulted) {
        // Board axis: after the atomic access, a uniformly random sign on
        // this board may be lost / duplicated.  Rolls are taken before the
        // emptiness check so the draw count is a pure function of the
        // access count.
        Whiteboard& b = boards_[mutated_node];
        if (injector.roll_sign_loss() && !b.signs().empty()) {
          b.erase_at(bounded_draw(injector.word(fault::FaultAxis::Board),
                                  b.signs().size()));
          injector.record(result.steps, static_cast<std::uint32_t>(i),
                          fault::FaultKind::SignLost, mutated_node);
        }
        if (injector.roll_sign_dup() && !b.signs().empty()) {
          Sign copy = b.signs()[bounded_draw(
              injector.word(fault::FaultAxis::Board), b.signs().size())];
          b.post(std::move(copy));
          injector.record(result.steps, static_cast<std::uint32_t>(i),
                          fault::FaultKind::SignDuplicated, mutated_node);
        }
      }
    } else if (std::holds_alternative<ActionWait>(pending)) {
      unpark(i);
      kind = TraceEvent::Kind::WaitResume;
    } else if (std::holds_alternative<ActionYield>(pending)) {
      kind = TraceEvent::Kind::Yield;
    }
    // ActionWait (already satisfied), ActionYield, monostate: no effect.
    pending = std::monostate{};
    if (resume) behaviors[i].resume_target().resume();
    // An exception that escaped any of the agent's frames, nested or not,
    // ends the run here, in one throw.
    if (handle.promise().exception) {
      std::rethrow_exception(handle.promise().exception);
    }
    if constexpr (kTraced) {
      // Every event names the agent's node after the step (a Send's is
      // the processor it left), except a stalled delivery's, which names
      // the processor the message is bound for.
      graph::NodeId node = ctx.position_;
      if constexpr (kMessages) {
        if (kind == TraceEvent::Kind::Stall) node = arrival[i].to;
      }
      sink->on_event(TraceEvent{result.steps, static_cast<std::uint32_t>(i),
                                kind, node, port});
    }
    ++result.steps;
    if constexpr (kMessages) {
      result.max_in_transit = std::max(result.max_in_transit, in_flight_count);
    }
    classify(i);
    // Coroutines only *request* actions; a resume can never touch a board
    // directly, so notifying after classify re-polls against the same
    // board state the old per-step scan would have seen.
    if (board_mutated) notify_board(mutated_node);
  };

  while (result.steps < config.max_steps) {
    if (live == 0) {
      result.completed = true;
      break;
    }
    if (enabled.empty()) {
      result.deadlock = true;
      break;
    }
    if (config.policy == SchedulerPolicy::Lockstep) {
      // One synchronous round: every enabled agent performs one step, in
      // home-base order (the paper's Section 1.3 adversary).
      std::vector<std::size_t>& round = scratch_.round;
      round = enabled;
      for (const std::size_t i : round) {
        if (result.steps >= config.max_steps) break;
        if constexpr (kFaulted) {
          // An agent crashed earlier in this round takes no more steps.
          if (scratch_.crashed[i]) continue;
        }
        execute_step(i);
      }
    } else {
      // A recorded schedule that runs out with agents still live ends the
      // run like a step limit (the recording stopped here).
      if (config.policy == SchedulerPolicy::Replay &&
          scheduler.replay_exhausted()) {
        break;
      }
      execute_step(scheduler.pick(enabled));
    }
  }
  if (!result.completed && !result.deadlock) result.step_limit = true;

  for (std::size_t i = 0; i < r; ++i) {
    AgentReport report;
    report.color = contexts[i].color_;
    report.status = contexts[i].status_;
    report.leader_color = contexts[i].leader_color_;
    report.final_position = contexts[i].position_;
    report.moves = contexts[i].moves_;
    report.board_accesses = contexts[i].board_accesses_;
    result.total_moves += report.moves;
    result.total_board_accesses += report.board_accesses;
    result.agents.push_back(std::move(report));
  }
  if constexpr (kFaulted) {
    result.fault_summary = injector.summary();
    result.fault_events = injector.events();
    fault::flush_fault_stats(result.fault_summary);
  }
  if constexpr (kTraced) sink->end_run(make_run_summary(result));
  return result;
}

}  // namespace qelect::sim
