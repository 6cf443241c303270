#include "qelect/sim/message_world.hpp"

#include <algorithm>

#include "qelect/sim/scheduler.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/rng.hpp"
#include "trace_support.hpp"

namespace qelect::sim {

MessageWorld::MessageWorld(graph::Graph g, graph::Placement p,
                           std::uint64_t color_seed)
    : MessageWorld(std::move(g), std::move(p), color_seed, false) {}

MessageWorld MessageWorld::quantitative(graph::Graph g, graph::Placement p,
                                        std::uint64_t color_seed) {
  return MessageWorld(std::move(g), std::move(p), color_seed, true);
}

MessageWorld::MessageWorld(graph::Graph g, graph::Placement p,
                           std::uint64_t color_seed, bool quantitative)
    : graph_(std::move(g)),
      placement_(std::move(p)),
      quantitative_(quantitative),
      color_seed_(color_seed) {
  QELECT_CHECK(placement_.node_count() == graph_.node_count(),
               "MessageWorld: placement does not fit graph");
  QELECT_CHECK(graph_.is_connected(), "MessageWorld: graph must be connected");
  mint_labels();
}

void MessageWorld::mint_labels() {
  ColorUniverse universe(color_seed_);
  colors_ = universe.mint_many(placement_.agent_count());
  if (quantitative_) {
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

void MessageWorld::reset() {
  scratch_.behaviors.clear();
  scratch_.contexts.clear();
  for (Whiteboard& b : boards_) b.clear();
}

void MessageWorld::reset(std::uint64_t color_seed) {
  reset();
  if (color_seed != color_seed_) {
    color_seed_ = color_seed;
    mint_labels();
  }
}

const Whiteboard& MessageWorld::board_at(graph::NodeId node) const {
  QELECT_CHECK(node < boards_.size(), "board_at: node out of range");
  return boards_[node];
}

MessageRunResult MessageWorld::run(const Protocol& protocol,
                                   const RunConfig& config) {
  // Same compile-time split as World::run: sink and fault hooks each cost
  // a dedicated instantiation, never a per-step branch.
  const bool faulted = config.faults != nullptr && config.faults->enabled();
  if (config.sink != nullptr) {
    return faulted ? run_impl<true, true>(protocol, config)
                   : run_impl<true, false>(protocol, config);
  }
  return faulted ? run_impl<false, true>(protocol, config)
                 : run_impl<false, false>(protocol, config);
}

template <bool kTraced, bool kFaulted>
MessageRunResult MessageWorld::run_impl(const Protocol& protocol,
                                        const RunConfig& config) {
  const std::size_t r = placement_.agent_count();
  const std::size_t n = graph_.node_count();

  scratch_.behaviors.clear();
  boards_.resize(n);
  for (Whiteboard& b : boards_) b.clear();

  trace::TraceSink* const sink = config.sink;
  if constexpr (kTraced) {
    sink->begin_run(
        detail::make_run_metadata(config, graph_, placement_, quantitative_));
  }

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

  // Transit state per agent: the half-edge the message is traversing, or
  // none.  An in-transit agent's only enabled step is its delivery.
  std::vector<std::uint8_t>& in_flight = scratch_.in_flight;
  in_flight.assign(r, 0);
  std::vector<graph::HalfEdge>& arrival = scratch_.arrival;
  arrival.assign(r, graph::HalfEdge{});

  Scheduler scheduler(config, r);
  MessageRunResult result;

  auto injector = detail::make_injector<kFaulted>(config.faults);
  if constexpr (kFaulted) scratch_.crashed.assign(r, 0);

  // Same incremental enabled/waiter machinery as World::run_impl; the only
  // extra state transition is Send/Deliver, and an in-flight agent is
  // always enabled (its delivery is always possible).
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
  std::size_t in_flight_count = 0;
  for (std::size_t i = 0; i < r; ++i) enabled.push_back(i);

  const auto enabled_insert = [&enabled](std::size_t i) {
    const auto it = std::lower_bound(enabled.begin(), enabled.end(), i);
    if (it == enabled.end() || *it != i) enabled.insert(it, i);
  };
  const auto enabled_erase = [&enabled](std::size_t i) {
    const auto it = std::lower_bound(enabled.begin(), enabled.end(), i);
    if (it != enabled.end() && *it == i) enabled.erase(it);
  };

  const auto classify = [&](std::size_t i) {
    if constexpr (kFaulted) {
      if (scratch_.crashed[i]) {
        enabled_erase(i);
        return;
      }
    }
    if (in_flight[i]) {  // a message: delivery always enabled
      enabled_insert(i);
      return;
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
    // Crash axis: only a computing agent can crash-stop here; an in-flight
    // agent is a message, and its loss is the message axis's business.
    if constexpr (kFaulted) {
      if (!in_flight[i] && injector.roll_crash()) {
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
        result.max_in_transit =
            std::max(result.max_in_transit, in_flight_count);
        return;
      }
    }
    TraceEvent::Kind kind = TraceEvent::Kind::Start;
    graph::PortId port = trace::kNoPort;
    graph::NodeId event_node = ctx.position_;
    bool board_mutated = false;
    graph::NodeId mutated_node = 0;
    if (in_flight[i]) {
      bool delivered = true;
      if constexpr (kFaulted) {
        if (injector.roll_msg_delay()) {
          // Adversarial reordering: this delivery attempt stalls; the
          // message stays on the link and remains deliverable later.
          delivered = false;
          kind = TraceEvent::Kind::Stall;
          event_node = arrival[i].to;
          injector.record(result.steps, static_cast<std::uint32_t>(i),
                          fault::FaultKind::MessageDelayed, arrival[i].to);
        }
      }
      if (delivered) {
        // Delivery: the message (P, M) arrives and the processor resumes
        // executing P against its whiteboard.
        in_flight[i] = 0;
        --in_flight_count;
        ctx.position_ = arrival[i].to;
        ctx.entry_port_ = arrival[i].to_port;
        ++ctx.moves_;
        ++result.messages_delivered;
        kind = TraceEvent::Kind::Deliver;
        port = arrival[i].to_port;
        event_node = ctx.position_;
        if constexpr (kFaulted) {
          if (injector.roll_msg_dup()) {
            // A second copy of the message arrives and is absorbed by the
            // already-arrived agent: it inflates delivery counts without
            // forking the agent (the model's agents are unique).
            ++result.messages_delivered;
            injector.record(result.steps, static_cast<std::uint32_t>(i),
                            fault::FaultKind::MessageDuplicated,
                            ctx.position_);
          }
        }
        behaviors[i].resume_target().resume();
      }
    } else {
      Behavior::Handle handle = behaviors[i].handle();
      PendingAction& pending = handle.promise().pending;
      if (auto* mv = std::get_if<ActionMove>(&pending)) {
        QELECT_CHECK(mv->port < graph_.degree(ctx.position_),
                     "agent moved through a nonexistent port");
        port = mv->port;
        event_node = ctx.position_;  // the node the message departs from
        bool sent = true;
        if constexpr (kFaulted) {
          if (injector.roll_edge_cut()) {
            // The link is transiently down: the send fails and the agent
            // keeps computing at its node (World's MoveCut, message read).
            sent = false;
            kind = TraceEvent::Kind::MoveCut;
            injector.record(result.steps, static_cast<std::uint32_t>(i),
                            fault::FaultKind::EdgeCut, ctx.position_);
            pending = std::monostate{};
            behaviors[i].resume_target().resume();
          }
        }
        if (sent) {
          // Send: the agent leaves the processor and becomes a message on
          // the link; it will resume only at delivery.
          in_flight[i] = 1;
          ++in_flight_count;
          arrival[i] = graph_.peer(ctx.position_, mv->port);
          kind = TraceEvent::Kind::Send;
          if constexpr (kFaulted) {
            if (injector.roll_edge_wormhole()) {
              // Transient edge not in G: the message is routed to a random
              // entry port of a random processor.
              const auto dest = static_cast<graph::NodeId>(
                  bounded_draw(injector.word(fault::FaultAxis::Edge),
                               graph_.node_count()));
              arrival[i].to = dest;
              arrival[i].to_port = static_cast<graph::PortId>(
                  bounded_draw(injector.word(fault::FaultAxis::Edge),
                               graph_.degree(dest)));
              injector.record(result.steps, static_cast<std::uint32_t>(i),
                              fault::FaultKind::EdgeWormhole, dest);
            }
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
                              fault::FaultKind::MessageLost, event_node);
            }
          }
          pending = std::monostate{};
          // Do NOT resume: the coroutine continues at delivery.
        }
      } else {
        if (auto* bd = std::get_if<ActionBoard>(&pending)) {
          mutated_node = ctx.position_;
          bd->fn(boards_[mutated_node]);
          board_mutated = true;
          ++ctx.board_accesses_;
          kind = TraceEvent::Kind::Board;
          if constexpr (kFaulted) {
            // Board axis: identical semantics to World::run_impl.
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
        event_node = ctx.position_;
        pending = std::monostate{};
        behaviors[i].resume_target().resume();
      }
    }
    // An exception that escaped any of the agent's frames ends the run
    // here, in one throw (see World).
    if (const auto& e = behaviors[i].handle().promise().exception) {
      std::rethrow_exception(e);
    }
    if constexpr (kTraced) {
      sink->on_event(TraceEvent{result.steps, static_cast<std::uint32_t>(i),
                                kind, event_node, port});
    }
    ++result.steps;
    result.max_in_transit = std::max(result.max_in_transit, in_flight_count);
    classify(i);
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
  if constexpr (kTraced) sink->end_run(detail::make_run_summary(result));
  return result;
}

}  // namespace qelect::sim
