// TraceSink: the pluggable observability boundary of the simulator.
//
// A sink receives the run's metadata, then one callback per executed step,
// then a summary.  The runtime guarantees the event stream is the exact
// execution order (step numbers strictly increase by one), so a sink can
// reconstruct everything an external observer could know about the run --
// which is precisely what the replay machinery and the invariant checkers
// do.  Attaching no sink costs one pointer test per step and allocates
// nothing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qelect/graph/graph.hpp"
#include "qelect/trace/event.hpp"

namespace qelect::trace {

/// Identifies a run well enough to reproduce it: the instance shape, the
/// reading, the adversary, the fault plan and the seeds.  `label` is free
/// text supplied by the caller (e.g. a graph-family name); everything else
/// is filled by the runtime.
struct RunMetadata {
  std::string label;
  std::size_t node_count = 0;
  std::size_t edge_count = 0;
  std::size_t agent_count = 0;
  std::vector<graph::NodeId> home_bases;
  std::string policy;        // "random", "round-robin", "lockstep", "replay"
  std::uint64_t seed = 0;
  std::size_t max_steps = 0;
  bool quantitative = false;
  bool message_passing = false;  // Figure 1's reading (RunConfig)
  /// The live fault plan, if the run had one: its seed and its nonzero
  /// rates, keyed as in a campaign spec's fault point ("crash", ...).
  /// Empty `fault_rates` means the run was fault-free.
  std::uint64_t fault_seed = 0;
  std::vector<std::pair<std::string, double>> fault_rates;

  /// Stable 64-bit digest of every field above; two runs with equal hashes
  /// were configured identically (label included).
  std::uint64_t config_hash() const;
};

/// End-of-run totals, mirrored from RunResult for sinks that never see it.
struct RunSummary {
  std::uint64_t steps = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t total_board_accesses = 0;
  bool completed = false;
  bool deadlock = false;
  bool step_limit = false;
};

/// The sink interface.  begin_run/end_run bracket every run; on_event fires
/// once per executed step, in order.  Implementations must not throw.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void begin_run(const RunMetadata& meta) { (void)meta; }
  virtual void on_event(const TraceEvent& event) = 0;
  virtual void end_run(const RunSummary& summary) { (void)summary; }
};

/// Buffers every event in memory.  The simplest sink; used by tests and as
/// input to the post-pass invariant checkers.
class VectorSink : public TraceSink {
 public:
  void begin_run(const RunMetadata& meta) override {
    meta_ = meta;
    events_.clear();
  }
  void on_event(const TraceEvent& event) override { events_.push_back(event); }
  void end_run(const RunSummary& summary) override { summary_ = summary; }

  const RunMetadata& metadata() const { return meta_; }
  const RunSummary& summary() const { return summary_; }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  RunMetadata meta_;
  RunSummary summary_;
  std::vector<TraceEvent> events_;
};

/// Fans one event stream out to several sinks (e.g. a JSONL file plus a
/// schedule recorder), in registration order.
class TeeSink : public TraceSink {
 public:
  TeeSink() = default;
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}

  void add(TraceSink* sink) { sinks_.push_back(sink); }

  void begin_run(const RunMetadata& meta) override {
    for (TraceSink* s : sinks_) s->begin_run(meta);
  }
  void on_event(const TraceEvent& event) override {
    for (TraceSink* s : sinks_) s->on_event(event);
  }
  void end_run(const RunSummary& summary) override {
    for (TraceSink* s : sinks_) s->end_run(summary);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace qelect::trace
