#include "qelect/trace/sink.hpp"

#include <bit>

#include "qelect/util/rng.hpp"

namespace qelect::trace {

const char* kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::Start:
      return "start";
    case TraceEvent::Kind::Move:
      return "move";
    case TraceEvent::Kind::Board:
      return "board";
    case TraceEvent::Kind::WaitResume:
      return "wait";
    case TraceEvent::Kind::Yield:
      return "yield";
    case TraceEvent::Kind::Send:
      return "send";
    case TraceEvent::Kind::Deliver:
      return "deliver";
    case TraceEvent::Kind::TaskOk:
      return "task-ok";
    case TraceEvent::Kind::TaskFail:
      return "task-fail";
    case TraceEvent::Kind::Crash:
      return "crash";
    case TraceEvent::Kind::MoveCut:
      return "move-cut";
    case TraceEvent::Kind::Stall:
      return "stall";
  }
  return "?";
}

std::uint64_t RunMetadata::config_hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix_text = [&h](const std::string& text) {
    for (const char c : text) {
      h = hash_combine(h, static_cast<std::uint64_t>(c));
    }
  };
  mix_text(label);
  h = hash_combine(h, node_count);
  h = hash_combine(h, edge_count);
  h = hash_combine(h, agent_count);
  for (const graph::NodeId base : home_bases) {
    h = hash_combine(h, base);
  }
  mix_text(policy);
  h = hash_combine(h, seed);
  h = hash_combine(h, max_steps);
  h = hash_combine(h, quantitative ? 1u : 0u);
  h = hash_combine(h, message_passing ? 1u : 0u);
  h = hash_combine(h, fault_seed);
  for (const auto& [name, rate] : fault_rates) {
    mix_text(name);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(rate));
  }
  return h;
}

}  // namespace qelect::trace
