// Record & replay: deterministic re-execution of any run.
//
// The simulator has exactly one source of nondeterminism -- the scheduler's
// pick sequence -- so recording that sequence (a trace::Schedule) pins the
// whole execution.  record_run() captures it alongside the RunResult;
// verify_replay() re-executes under SchedulerPolicy::Replay and checks the
// two results are identical field-for-field (steps, statuses, per-agent
// counters, final positions).  Together they turn "this run misbehaved"
// into a reproducible artifact: save the JSONL trace, load its schedule,
// and step through the exact same interleaving under a debugger.
#pragma once

#include <string>

#include "qelect/sim/world.hpp"
#include "qelect/trace/schedule.hpp"

namespace qelect::sim {

/// A run plus the schedule that reproduces it.
struct RecordedRun {
  RunResult result;
  trace::Schedule schedule;
};

/// Runs `protocol` under `config` while recording the schedule.  Any sink
/// already present in `config` still receives the event stream (the
/// recorder is tee'd in front of it).
RecordedRun record_run(World& world, const Protocol& protocol,
                       RunConfig config);

/// Field-for-field comparison of two run results (flags, totals, fault
/// log, message counters, per-agent reports); returns the empty string
/// when identical, otherwise a description of the first divergence.
std::string compare_run_results(const RunResult& a, const RunResult& b);

/// Outcome of a replay verification.
struct ReplayVerification {
  bool identical = false;
  std::string divergence;  // empty when identical
};

/// Re-executes `protocol` under SchedulerPolicy::Replay with `schedule`
/// and compares against `expected`.  `config` should be the original run's
/// configuration; its policy/replay/sink fields are overridden.
ReplayVerification verify_replay(World& world, const Protocol& protocol,
                                 RunConfig config, const RunResult& expected,
                                 const trace::Schedule& schedule);

}  // namespace qelect::sim
