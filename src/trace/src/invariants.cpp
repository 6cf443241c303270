#include "qelect/trace/invariants.hpp"

#include <cmath>
#include <utility>

#include "qelect/util/assert.hpp"

namespace qelect::trace {
namespace {

constexpr std::size_t kMaxReportedViolations = 32;

void report_bound_violation(InvariantReport* report, const std::string& what) {
  report->violations.push_back(what);
  report->details.push_back({false, 0, 0, what});
}

}  // namespace

std::string InvariantReport::to_string() const {
  if (ok()) {
    return "OK (" + std::to_string(events_checked) + " events, " +
           std::to_string(total_moves) + " moves)";
  }
  return "VIOLATION: " + violations.front() +
         (violations.size() > 1
              ? " (+" + std::to_string(violations.size() - 1) + " more)"
              : "");
}

InvariantChecker::InvariantChecker(InvariantSpec spec, bool complete_trace)
    : spec_(std::move(spec)), complete_trace_(complete_trace) {
  QELECT_CHECK(spec_.graph != nullptr, "check_trace: spec.graph is required");
  reset();
}

void InvariantChecker::begin_run(const RunMetadata&) { reset(); }

void InvariantChecker::reset() {
  const std::size_t r = spec_.home_bases.size();
  report_ = InvariantReport{};
  report_.per_agent_moves.assign(r, 0);
  // Observer-side position tracking: start every agent at its home base
  // (or, for a partial trace, at its first observed node).
  state_.assign(r, AgentState{});
  if (complete_trace_) {
    for (std::size_t i = 0; i < r; ++i) {
      state_[i].where = Where::AtNode;
      state_[i].pos = spec_.home_bases[i];
    }
  }
  have_prev_step_ = false;
  prev_step_ = 0;
}

void InvariantChecker::violation(const TraceEvent& event,
                                 const std::string& what) {
  if (report_.violations.size() >= kMaxReportedViolations) return;
  report_.violations.push_back("step " + std::to_string(event.step) +
                               " agent " + std::to_string(event.agent) + " (" +
                               kind_name(event.kind) + "): " + what);
  report_.details.push_back({true, event.step, event.agent, what});
}

void InvariantChecker::on_event(const TraceEvent& e) {
  const graph::Graph& g = *spec_.graph;
  ++report_.events_checked;
  if (e.agent >= state_.size()) {
    violation(e, "agent index out of range");
    return;
  }
  if (e.node >= g.node_count()) {
    violation(e, "node id out of range");
    return;
  }
  // Atomicity / whiteboard mutual exclusion: the executed steps form a
  // strict total order, so no two actions -- in particular no two board
  // accesses -- can overlap.
  if (have_prev_step_ && e.step <= prev_step_) {
    violation(e,
              "step order not strictly increasing (atomicity "
              "broken: two actions share an execution slot)");
  }
  have_prev_step_ = true;
  prev_step_ = e.step;

  AgentState& st = state_[e.agent];
  // Crash-stop means *stop*: once an agent crashed, any further action of
  // its is itself a model violation (a faulty world must not resurrect).
  if (st.crashed && e.kind != TraceEvent::Kind::TaskOk &&
      e.kind != TraceEvent::Kind::TaskFail) {
    violation(e, "action after crash-stop");
  }
  switch (e.kind) {
    case TraceEvent::Kind::Move:
      ++report_.total_moves;
      ++report_.per_agent_moves[e.agent];
      if (st.where == Where::AtNode) {
        if (e.port == kNoPort) {
          violation(e, "move event carries no port");
        } else if (e.port >= g.degree(st.pos)) {
          violation(e, "moved through nonexistent port " +
                           std::to_string(e.port) + " of node " +
                           std::to_string(st.pos) + " (degree " +
                           std::to_string(g.degree(st.pos)) + ")");
        } else if (g.peer(st.pos, e.port).to != e.node) {
          violation(e, "move landed at node " + std::to_string(e.node) +
                           " but port " + std::to_string(e.port) +
                           " of node " + std::to_string(st.pos) +
                           " leads to node " +
                           std::to_string(g.peer(st.pos, e.port).to));
        }
      } else if (st.where == Where::InTransit) {
        violation(e, "move while in transit");
      }
      st.where = Where::AtNode;
      st.pos = e.node;
      break;
    case TraceEvent::Kind::Send:
      if (st.where == Where::InTransit) {
        violation(e, "send while already in transit");
      }
      if (st.where == Where::AtNode) {
        if (e.port == kNoPort || e.port >= g.degree(st.pos)) {
          violation(e, "send through nonexistent port of node " +
                           std::to_string(st.pos));
          st.arrival = graph::kInvalidNode;
        } else {
          st.arrival = g.peer(st.pos, e.port).to;
        }
      } else {
        st.arrival = graph::kInvalidNode;
      }
      st.where = Where::InTransit;
      break;
    case TraceEvent::Kind::Deliver:
      ++report_.total_moves;
      ++report_.per_agent_moves[e.agent];
      if (st.where == Where::AtNode) {
        violation(e, "delivery without a matching send");
      } else if (st.where == Where::InTransit &&
                 st.arrival != graph::kInvalidNode && st.arrival != e.node) {
        violation(e, "delivered to node " + std::to_string(e.node) +
                         " but the send was aimed at node " +
                         std::to_string(st.arrival));
      }
      st.where = Where::AtNode;
      st.pos = e.node;
      break;
    case TraceEvent::Kind::Start:
    case TraceEvent::Kind::Board:
    case TraceEvent::Kind::WaitResume:
    case TraceEvent::Kind::Yield:
      if (st.where == Where::InTransit) {
        violation(e, "local action while in transit");
      } else if (st.where == Where::AtNode && st.pos != e.node) {
        violation(e, "acted at node " + std::to_string(e.node) +
                         " but tracked position is node " +
                         std::to_string(st.pos));
      }
      st.where = Where::AtNode;
      st.pos = e.node;
      break;
    case TraceEvent::Kind::TaskOk:
    case TraceEvent::Kind::TaskFail:
      // Campaign progress events are not simulator actions; they carry no
      // position and are ignored by the execution-model checkers.
      break;
    case TraceEvent::Kind::Crash:
      // Crash-stop happens at a node (message-world transit losses never
      // emit an event for the lost agent -- its trace just ends).
      if (st.where == Where::InTransit) {
        violation(e, "crash event while in transit");
      } else if (st.where == Where::AtNode && st.pos != e.node) {
        violation(e, "crashed at node " + std::to_string(e.node) +
                         " but tracked position is node " +
                         std::to_string(st.pos));
      }
      st.where = Where::AtNode;
      st.pos = e.node;
      st.crashed = true;
      break;
    case TraceEvent::Kind::MoveCut:
      // A cut traversal leaves the agent where it was; no move counted.
      if (st.where == Where::InTransit) {
        violation(e, "cut traversal while in transit");
      } else if (st.where == Where::AtNode && st.pos != e.node) {
        violation(e, "traversal cut at node " + std::to_string(e.node) +
                         " but tracked position is node " +
                         std::to_string(st.pos));
      }
      st.where = Where::AtNode;
      st.pos = e.node;
      break;
    case TraceEvent::Kind::Stall:
      // A delayed delivery: the agent must be in transit and stays there.
      if (st.where == Where::AtNode) {
        violation(e, "stall without a matching send");
      }
      if (st.where != Where::Unknown) st.where = Where::InTransit;
      break;
  }
}

InvariantReport InvariantChecker::finish() {
  const std::size_t r = spec_.home_bases.size();
  if (spec_.theorem31_factor > 0.0 && r > 0) {
    const double budget = spec_.theorem31_factor * static_cast<double>(r) *
                          static_cast<double>(spec_.graph->edge_count());
    if (static_cast<double>(report_.total_moves) > budget) {
      report_bound_violation(
          &report_,
          "Theorem 3.1 bound exceeded: " + std::to_string(report_.total_moves) +
              " total moves > " + std::to_string(budget) + " (= " +
              std::to_string(spec_.theorem31_factor) + " * r * |E|)");
    }
    for (std::size_t i = 0; i < r; ++i) {
      if (static_cast<double>(report_.per_agent_moves[i]) > budget) {
        report_bound_violation(
            &report_, "Theorem 3.1 bound exceeded by agent " +
                          std::to_string(i) + ": " +
                          std::to_string(report_.per_agent_moves[i]) +
                          " moves > " + std::to_string(budget));
      }
    }
  }
  InvariantReport report = std::move(report_);
  reset();
  return report;
}

InvariantReport check_trace(const std::vector<TraceEvent>& events,
                            const InvariantSpec& spec, bool complete_trace) {
  InvariantChecker checker(spec, complete_trace);
  for (const TraceEvent& e : events) checker.on_event(e);
  return checker.finish();
}

}  // namespace qelect::trace
