// Schedules: recorded adversary decisions, the key to deterministic replay.
//
// The simulator is deterministic except for one thing: which enabled agent
// the scheduler picks at each step.  A Schedule is exactly that pick
// sequence, so (World, protocol, schedule) re-executes any run -- seeded
// random, round-robin, even a lockstep round structure flattened to its
// per-step order -- step-for-step via SchedulerPolicy::Replay.  This is
// the paper's adversary made concrete: an execution IS its schedule, and
// impossibility arguments that pick a bad interleaving are statements
// about which Schedule the adversary hands the runtime.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "qelect/trace/sink.hpp"

namespace qelect::trace {

/// The agent index chosen at each global step, in order.
struct Schedule {
  std::vector<std::uint32_t> picks;

  std::size_t size() const { return picks.size(); }
  bool empty() const { return picks.empty(); }
  bool operator==(const Schedule&) const = default;
};

/// A sink that captures the schedule: the event stream's agent fields in
/// step order (every event is one scheduler decision).
class ScheduleRecorder : public TraceSink {
 public:
  void begin_run(const RunMetadata& meta) override {
    (void)meta;
    schedule_.picks.clear();
  }
  void on_event(const TraceEvent& event) override {
    schedule_.picks.push_back(event.agent);
  }

  const Schedule& schedule() const { return schedule_; }
  Schedule take() { return std::move(schedule_); }

 private:
  Schedule schedule_;
};

/// Extracts the schedule from a JSONL trace stream (the `event` records'
/// `agent` fields, in file order).  Tolerates unknown record types.  An
/// event record whose agent is missing or is not decimal digits within
/// uint32_t is a CheckError naming its 1-based line.
Schedule load_schedule_jsonl(std::istream& in);

/// Convenience overload: opens `path` and parses it.  Throws CheckError if
/// the file cannot be read.
Schedule load_schedule_jsonl_file(const std::string& path);

}  // namespace qelect::trace
