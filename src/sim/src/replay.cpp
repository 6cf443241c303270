#include "qelect/sim/replay.hpp"

#include "qelect/trace/sink.hpp"

namespace qelect::sim {
namespace {

const char* status_name(AgentStatus status) {
  switch (status) {
    case AgentStatus::Running:
      return "running";
    case AgentStatus::Leader:
      return "leader";
    case AgentStatus::Defeated:
      return "defeated";
    case AgentStatus::FailureDetected:
      return "failure-detected";
    case AgentStatus::Crashed:
      return "crashed";
  }
  return "?";
}

}  // namespace

std::string compare_run_results(const RunResult& a, const RunResult& b) {
  if (a.completed != b.completed) return "completed flag differs";
  if (a.deadlock != b.deadlock) return "deadlock flag differs";
  if (a.step_limit != b.step_limit) return "step_limit flag differs";
  if (a.steps != b.steps) {
    return "steps differ: " + std::to_string(a.steps) + " vs " +
           std::to_string(b.steps);
  }
  if (a.total_moves != b.total_moves) {
    return "total_moves differ: " + std::to_string(a.total_moves) + " vs " +
           std::to_string(b.total_moves);
  }
  if (a.total_board_accesses != b.total_board_accesses) {
    return "total_board_accesses differ: " +
           std::to_string(a.total_board_accesses) + " vs " +
           std::to_string(b.total_board_accesses);
  }
  if (!(a.fault_summary == b.fault_summary)) return "fault summary differs";
  if (a.fault_events != b.fault_events) return "fault event logs differ";
  if (a.messages_delivered != b.messages_delivered) {
    return "messages_delivered differ: " +
           std::to_string(a.messages_delivered) + " vs " +
           std::to_string(b.messages_delivered);
  }
  if (a.max_in_transit != b.max_in_transit) {
    return "max_in_transit differs: " + std::to_string(a.max_in_transit) +
           " vs " + std::to_string(b.max_in_transit);
  }
  if (a.agents.size() != b.agents.size()) return "agent counts differ";
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    const AgentReport& x = a.agents[i];
    const AgentReport& y = b.agents[i];
    const std::string who = "agent " + std::to_string(i) + ": ";
    if (!(x.color == y.color)) return who + "color differs";
    if (x.status != y.status) {
      return who + std::string("status differs: ") + status_name(x.status) +
             " vs " + status_name(y.status);
    }
    if (!(x.leader_color == y.leader_color)) {
      return who + "leader color differs";
    }
    if (x.final_position != y.final_position) {
      return who + "final position differs: " +
             std::to_string(x.final_position) + " vs " +
             std::to_string(y.final_position);
    }
    if (x.moves != y.moves) {
      return who + "move count differs: " + std::to_string(x.moves) + " vs " +
             std::to_string(y.moves);
    }
    if (x.board_accesses != y.board_accesses) {
      return who + "board access count differs: " +
             std::to_string(x.board_accesses) + " vs " +
             std::to_string(y.board_accesses);
    }
  }
  return "";
}

RecordedRun record_run(World& world, const Protocol& protocol,
                       RunConfig config) {
  trace::ScheduleRecorder recorder;
  trace::TeeSink tee;
  if (config.sink != nullptr) {
    tee.add(config.sink);
    tee.add(&recorder);
    config.sink = &tee;
  } else {
    config.sink = &recorder;
  }
  RecordedRun recorded;
  recorded.result = world.run(protocol, config);
  recorded.schedule = recorder.take();
  return recorded;
}

ReplayVerification verify_replay(World& world, const Protocol& protocol,
                                 RunConfig config, const RunResult& expected,
                                 const trace::Schedule& schedule) {
  config.policy = SchedulerPolicy::Replay;
  config.replay = &schedule;
  config.sink = nullptr;
  const RunResult replayed = world.run(protocol, config);
  ReplayVerification verification;
  verification.divergence = compare_run_results(expected, replayed);
  verification.identical = verification.divergence.empty();
  return verification;
}

}  // namespace qelect::sim
