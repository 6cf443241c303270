// Trace-driven invariant checkers: a sink that checks a run as it streams.
//
// Given the events of a run plus the instance it ran on, these checks
// verify model-level guarantees *from the observable execution alone*:
//
//   * atomicity / whiteboard mutual exclusion -- the global step order is a
//     strict total order, so no two actions (in particular no two board
//     accesses) ever interleave;
//   * locality -- replaying agent positions from the home bases, every
//     move leaves through a port that exists at the agent's current node
//     and arrives where the port graph says it must (and in the message
//     world, every delivery lands where the matching send was aimed);
//   * Theorem 3.1's cost bound -- total and per-agent move counts stay
//     within factor * r * |E| when a factor is supplied.
//
// InvariantChecker is a TraceSink: attach it as RunConfig::sink and each
// event is checked as the World emits it, with no buffer, and finish()
// adds the Theorem 3.1 bound checks.  check_trace is the same checker run
// as a post-pass over a recorded vector (a VectorSink's, a RingSink
// window, a loaded JSONL trace).
//
// A trace that passes proves the *run* respected the model; a violation
// pinpoints the first offending step, which is what makes sinks + replay a
// debugging loop rather than just telemetry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/trace/event.hpp"
#include "qelect/trace/sink.hpp"

namespace qelect::trace {

/// What the checker needs to know about the instance.
struct InvariantSpec {
  const graph::Graph* graph = nullptr;          // required
  std::vector<graph::NodeId> home_bases;        // agent i starts at [i]
  /// When > 0, enforce moves <= factor * r * |E| in total and per agent
  /// (Theorem 3.1 is O(r|E|) total; any fixed factor certifies a run).
  double theorem31_factor = 0.0;
};

struct InvariantReport {
  /// One structured entry per violation, parallel to `violations`.  Bound
  /// violations (Theorem 3.1) have `has_event = false`.  The structured
  /// form is what fault::diagnose_first_violation joins against a fault
  /// log to name the first violated assumption.
  struct Violation {
    bool has_event = false;
    std::uint64_t step = 0;
    std::uint32_t agent = 0;
    std::string what;
    bool operator==(const Violation&) const = default;
  };

  std::vector<std::string> violations;
  std::vector<Violation> details;               // parallel to `violations`
  std::uint64_t events_checked = 0;
  std::uint64_t total_moves = 0;                // Move + Deliver events
  std::vector<std::uint64_t> per_agent_moves;   // home-base order

  bool ok() const { return violations.empty(); }
  /// "OK (n events)" or the first violation.
  std::string to_string() const;
  bool operator==(const InvariantReport&) const = default;
};

/// The checks as a sink.  begin_run starts a fresh report, so one checker
/// can be attached to run after run; on_event checks one event; finish()
/// adds the bound checks, returns the report and starts a fresh one.
/// The trace may be a suffix of the run (e.g. a RingSink window); position
/// tracking then starts at the first event seen per agent instead of the
/// home base.  Pass `complete_trace = false` in that case.
class InvariantChecker : public TraceSink {
 public:
  /// `spec.graph` is required and must outlive the checker.
  explicit InvariantChecker(InvariantSpec spec, bool complete_trace = true);

  void begin_run(const RunMetadata& meta) override;
  void on_event(const TraceEvent& event) override;
  InvariantReport finish();

 private:
  enum class Where : std::uint8_t { Unknown, AtNode, InTransit };
  struct AgentState {
    Where where = Where::Unknown;
    bool crashed = false;  // saw a Crash event; no further actions allowed
    graph::NodeId pos = graph::kInvalidNode;
    graph::NodeId arrival = graph::kInvalidNode;  // expected delivery node
  };

  void reset();
  void violation(const TraceEvent& event, const std::string& what);

  InvariantSpec spec_;
  bool complete_trace_;
  InvariantReport report_;
  std::vector<AgentState> state_;
  bool have_prev_step_ = false;
  std::uint64_t prev_step_ = 0;
};

/// Runs every applicable check over `events` (chronological order): an
/// InvariantChecker fed the vector, then finished.
InvariantReport check_trace(const std::vector<TraceEvent>& events,
                            const InvariantSpec& spec,
                            bool complete_trace = true);

}  // namespace qelect::trace
