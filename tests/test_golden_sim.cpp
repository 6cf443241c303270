// Golden gate for the batched run engine (PR 5).
//
// The simulator hot loop was rewritten for throughput: small-buffer sign
// payloads, inline (non-allocating) action closures, event-driven
// wait_until parking, and buffer-reusing Worlds behind a campaign
// WorldPool.  All of it must be *behavior-preserving*: for a fixed
// (instance, protocol, policy, seed) the optimized engine has to produce
// the exact event stream and election verdicts the pre-PR engine
// produced.  These tests pin that down with a committed digest table:
// every scenario's full trace (each executed step: agent, kind, node,
// port) and final report (per-agent status, leader, position, counters,
// run totals) is folded into an FNV-1a digest and compared against
// tests/golden_sim_digests.inc, which was generated by running this very
// file against the pre-PR engine (commit 0c1fc97).
//
// If a digest mismatches, the engine's observable behavior changed --
// that is a bug in the optimization, not a reason to regenerate.  The
// table is only regenerated on a *deliberate* semantic change:
//
//   QELECT_REGEN_GOLDEN_SIM=tests/golden_sim_digests.inc ./tests/qelect_test_golden_sim
//
// The replay half of the gate needs no table: every scenario is also
// re-executed under SchedulerPolicy::Replay from its recorded schedule
// and must reproduce its own digest byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "qelect/core/baselines.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/petersen.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/message_world.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/schedule.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/hash.hpp"

namespace qelect {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Placement;

// ---- digesting ----------------------------------------------------------

class Fnv {
 public:
  /// Hashes the eight bytes of `v`, least significant first.
  void add(std::uint64_t v) {
    char bytes[8];
    for (int b = 0; b < 8; ++b) bytes[b] = static_cast<char>(v >> (8 * b));
    h_ = util::fnv1a64(std::string_view(bytes, 8), h_);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = util::kFnvBasis;
};

// Colors are opaque (equality only), so they enter the digest as their
// index in the world's agent-color list -- stable across engines because
// ColorUniverse minting is part of the pinned behavior.
std::uint64_t color_index(const std::vector<sim::Color>& colors,
                          const sim::Color& c) {
  for (std::size_t i = 0; i < colors.size(); ++i) {
    if (colors[i] == c) return i;
  }
  return static_cast<std::uint64_t>(-1);  // "no color" / unknown
}

void digest_events(Fnv& fnv, const trace::VectorSink& sink) {
  for (const trace::TraceEvent& e : sink.events()) {
    fnv.add(e.step);
    fnv.add(e.agent);
    fnv.add(static_cast<std::uint64_t>(e.kind));
    fnv.add(e.node);
    fnv.add(e.port);
  }
}

void digest_result(Fnv& fnv, const std::vector<sim::Color>& colors,
                   const sim::RunResult& r) {
  fnv.add(r.completed ? 1 : 0);
  fnv.add(r.deadlock ? 1 : 0);
  fnv.add(r.step_limit ? 1 : 0);
  fnv.add(r.steps);
  fnv.add(r.total_moves);
  fnv.add(r.total_board_accesses);
  for (const sim::AgentReport& a : r.agents) {
    fnv.add(color_index(colors, a.color));
    fnv.add(static_cast<std::uint64_t>(a.status));
    fnv.add(color_index(colors, a.leader_color));
    fnv.add(a.final_position);
    fnv.add(a.moves);
    fnv.add(a.board_accesses);
  }
}

// ---- scenario suite -----------------------------------------------------

struct Policy {
  const char* tag;
  sim::SchedulerPolicy policy;
  std::uint64_t seed;
};

const std::vector<Policy>& policies() {
  static const std::vector<Policy> all = {
      {"random/s=1", sim::SchedulerPolicy::Random, 1},
      {"random/s=2", sim::SchedulerPolicy::Random, 2},
      {"round-robin", sim::SchedulerPolicy::RoundRobin, 1},
      {"lockstep", sim::SchedulerPolicy::Lockstep, 1},
  };
  return all;
}

struct Instance {
  std::string label;
  Graph graph;
  std::vector<NodeId> home_bases;
};

std::vector<Instance> world_instances() {
  std::vector<Instance> out;
  for (std::size_t n = 3; n <= 8; ++n) {
    out.push_back({"ring(" + std::to_string(n) + ")/h=0," +
                       std::to_string(n / 2),
                   graph::ring(n),
                   {0, static_cast<NodeId>(n / 2)}});
    if (n / 2 != 1) {  // distinct from the placement above
      out.push_back({"ring(" + std::to_string(n) + ")/h=0,1",
                     graph::ring(n),
                     {0, 1}});
    }
  }
  out.push_back({"ring(5)/h=0", graph::ring(5), {0}});
  out.push_back({"hypercube(3)/h=0,7", graph::hypercube(3), {0, 7}});
  out.push_back(
      {"hypercube(3)/h=0,1,2,3", graph::hypercube(3), {0, 1, 2, 3}});
  out.push_back({"complete(5)/h=0,1", graph::complete(5), {0, 1}});
  out.push_back({"torus(3,3)/h=0,4", graph::torus({3, 3}), {0, 4}});
  out.push_back({"petersen/h=0,5", graph::petersen(), {0, 5}});
  return out;
}

std::vector<Instance> message_instances() {
  std::vector<Instance> out;
  for (std::size_t n = 3; n <= 6; ++n) {
    out.push_back({"ring(" + std::to_string(n) + ")/h=0," +
                       std::to_string(n / 2),
                   graph::ring(n),
                   {0, static_cast<NodeId>(n / 2)}});
  }
  out.push_back({"path(4)/h=0,3", graph::path(4), {0, 3}});
  return out;
}

struct ScenarioDigest {
  std::string name;
  std::uint64_t digest;
};

sim::RunConfig config_for(const Policy& p) {
  sim::RunConfig cfg;
  cfg.policy = p.policy;
  cfg.seed = p.seed;
  return cfg;
}

// Runs one World scenario twice: once traced (for the digest) and once
// replayed from its recorded schedule (the self-gate: the replay must
// reproduce the digest exactly).
std::uint64_t world_digest(const Instance& inst, const sim::Protocol& proto,
                           const Policy& p, bool quantitative,
                           bool check_replay) {
  const Placement placement(inst.graph.node_count(), inst.home_bases);
  sim::World w = quantitative
                     ? sim::World::quantitative(inst.graph, placement, 7)
                     : sim::World(inst.graph, placement, 7);
  trace::VectorSink sink;
  trace::ScheduleRecorder recorder;
  trace::TeeSink tee({&recorder, &sink});
  sim::RunConfig cfg = config_for(p);
  cfg.sink = &tee;
  const sim::RunResult r = w.run(proto, cfg);
  Fnv fnv;
  digest_events(fnv, sink);
  digest_result(fnv, w.agent_colors(), r);
  const std::uint64_t digest = fnv.value();

  if (check_replay) {
    trace::VectorSink replay_sink;
    sim::RunConfig replay_cfg = config_for(p);
    replay_cfg.policy = sim::SchedulerPolicy::Replay;
    replay_cfg.replay = &recorder.schedule();
    replay_cfg.sink = &replay_sink;
    const sim::RunResult rr = w.run(proto, replay_cfg);
    Fnv replay_fnv;
    digest_events(replay_fnv, replay_sink);
    digest_result(replay_fnv, w.agent_colors(), rr);
    EXPECT_EQ(replay_fnv.value(), digest)
        << "replay diverged from recorded run: " << inst.label << "/"
        << p.tag;
  }
  return digest;
}

std::uint64_t message_digest(const Instance& inst, const sim::Protocol& proto,
                             const Policy& p) {
  const Placement placement(inst.graph.node_count(), inst.home_bases);
  sim::MessageWorld w(inst.graph, placement, 7);
  trace::VectorSink sink;
  sim::RunConfig cfg = config_for(p);
  cfg.sink = &sink;
  const sim::MessageRunResult r = w.run(proto, cfg);
  Fnv fnv;
  digest_events(fnv, sink);
  digest_result(fnv, w.agent_colors(), r);
  fnv.add(r.messages_delivered);
  fnv.add(r.max_in_transit);
  return fnv.value();
}

std::vector<ScenarioDigest> all_scenarios() {
  std::vector<ScenarioDigest> out;
  const sim::Protocol elect = core::make_elect_protocol();
  const sim::Protocol quant = core::make_quantitative_protocol();
  const sim::Protocol petersen = core::make_petersen_protocol();

  for (const Instance& inst : world_instances()) {
    for (const Policy& p : policies()) {
      out.push_back({"elect/" + inst.label + "/" + p.tag,
                     world_digest(inst, elect, p, false,
                                  /*check_replay=*/p.seed == 1)});
    }
  }
  for (const Instance& inst : world_instances()) {
    if (inst.label != "ring(3)/h=0,1" && inst.label != "ring(6)/h=0,1" &&
        inst.label != "hypercube(3)/h=0,1,2,3") {
      continue;
    }
    for (const Policy& p : policies()) {
      out.push_back({"quantitative/" + inst.label + "/" + p.tag,
                     world_digest(inst, quant, p, true,
                                  /*check_replay=*/false)});
    }
  }
  {
    const Instance pet{"petersen/h=0,5", graph::petersen(), {0, 5}};
    for (const Policy& p : policies()) {
      out.push_back({"petersen/" + pet.label + "/" + p.tag,
                     world_digest(pet, petersen, p, false,
                                  /*check_replay=*/true)});
    }
  }
  for (const Instance& inst : message_instances()) {
    for (const Policy& p : policies()) {
      out.push_back({"message-elect/" + inst.label + "/" + p.tag,
                     message_digest(inst, elect, p)});
    }
  }
  return out;
}

// ---- the committed table ------------------------------------------------

struct GoldenDigest {
  const char* name;
  std::uint64_t digest;
};

#include "golden_sim_digests.inc"

void write_table(const char* path,
                 const std::vector<ScenarioDigest>& scenarios) {
  std::FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << "cannot write " << path;
  std::fprintf(f,
               "// Pre-PR-5 simulator engine digests.  Generated by\n"
               "// QELECT_REGEN_GOLDEN_SIM=<path> ./qelect_test_golden_sim\n"
               "// -- see test_golden_sim.cpp before even thinking about\n"
               "// regenerating.\n"
               "inline constexpr GoldenDigest kGoldenSimDigests[] = {\n");
  for (const ScenarioDigest& s : scenarios) {
    std::fprintf(f, "    {\"%s\", 0x%016llxull},\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.digest));
  }
  std::fprintf(f, "};\n");
  std::fclose(f);
  std::printf("wrote %zu digests to %s\n", scenarios.size(), path);
}

TEST(GoldenSim, TracesAndVerdictsMatchPrePrEngine) {
  const std::vector<ScenarioDigest> scenarios = all_scenarios();
  if (const char* regen = std::getenv("QELECT_REGEN_GOLDEN_SIM")) {
    write_table(regen, scenarios);
    return;
  }
  std::map<std::string, std::uint64_t> expected;
  for (const GoldenDigest& g : kGoldenSimDigests) {
    expected.emplace(g.name, g.digest);
  }
  ASSERT_EQ(scenarios.size(), expected.size())
      << "scenario suite changed; regenerate the table deliberately";
  for (const ScenarioDigest& s : scenarios) {
    const auto it = expected.find(s.name);
    ASSERT_NE(it, expected.end()) << "no golden digest for " << s.name;
    EXPECT_EQ(s.digest, it->second)
        << s.name << ": trace/verdict diverged from the pre-PR engine";
  }
}

}  // namespace
}  // namespace qelect
