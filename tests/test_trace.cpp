// Tests for the trace & replay subsystem: sinks (counting, ring, JSONL),
// schedule recording, deterministic re-execution via SchedulerPolicy::
// Replay, the JSONL round trip, and the trace-driven invariant checkers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qelect/core/analysis.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/petersen.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/counting_sink.hpp"
#include "qelect/trace/invariants.hpp"
#include "qelect/trace/jsonl_sink.hpp"
#include "qelect/trace/ring_sink.hpp"
#include "qelect/trace/schedule.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"

namespace qelect {
namespace {

using sim::AgentCtx;
using sim::Behavior;
using sim::RunConfig;
using sim::Sign;
using sim::Whiteboard;

sim::Behavior walker(AgentCtx& ctx) {
  co_await ctx.board([&](Whiteboard& wb) {
    wb.post(Sign{ctx.self(), 200, {}});
  });
  for (int i = 0; i < 5; ++i) co_await ctx.move(0);
  ctx.declare_failure_detected();
}

TEST(CountingSink, MatchesRunResultCounters) {
  sim::World w(graph::ring(6), graph::Placement(6, {0, 3}), 7);
  trace::CountingSink sink;
  RunConfig cfg;
  cfg.sink = &sink;
  const sim::RunResult r = w.run(walker, cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(sink.agents().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sink.agents()[i].moves, r.agents[i].moves);
    EXPECT_EQ(sink.agents()[i].board_accesses, r.agents[i].board_accesses);
  }
  std::uint64_t node_boards = 0;
  for (const auto& n : sink.nodes()) node_boards += n.board_accesses;
  EXPECT_EQ(node_boards, r.total_board_accesses);
  EXPECT_EQ(sink.summary().total_moves, r.total_moves);
  // Both agents post exactly once, at their distinct home bases.
  EXPECT_EQ(sink.max_node_contention(), 1u);
}

TEST(CountingSink, MeasuresWaitLatency) {
  // Agent 0 waits for a sign only agent 1 (after a move + board) can post;
  // under round-robin the waiter's resume comes strictly after the
  // poster's steps, so a positive wait latency must be recorded.
  const graph::Graph g = graph::path(2);
  sim::World w(g, graph::Placement(2, {0, 1}), 3);
  const auto colors = w.agent_colors();
  const sim::Color waiter = colors[0];
  trace::CountingSink sink;
  RunConfig cfg;
  cfg.policy = sim::SchedulerPolicy::RoundRobin;
  cfg.sink = &sink;
  const sim::RunResult r = w.run(
      [waiter](AgentCtx& ctx) -> Behavior {
        if (ctx.self() == waiter) {
          co_await ctx.wait_until([](const Whiteboard& wb) {
            return wb.find_tag(91) != nullptr;
          });
          ctx.declare_leader();
        } else {
          co_await ctx.move(0);
          co_await ctx.board([&](Whiteboard& wb) {
            wb.post(Sign{ctx.self(), 91, {}});
          });
          ctx.declare_defeated(waiter);
        }
      },
      cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sink.agents()[0].wait_resumes, 1u);
  EXPECT_GT(sink.max_wait_latency(), 0u);
}

TEST(RingSink, KeepsOnlyTheTailInOrder) {
  sim::World w(graph::ring(8), graph::Placement(8, {0}), 5);
  trace::RingSink sink(4);
  RunConfig cfg;
  cfg.sink = &sink;
  const sim::RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        for (int i = 0; i < 10; ++i) co_await ctx.move(0);
        ctx.declare_leader();
      },
      cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sink.total_events(), r.steps);
  EXPECT_EQ(sink.dropped(), r.steps - 4);
  const auto tail = sink.snapshot();
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].step, r.steps - 4 + i);
  }
}

TEST(TeeSink, FansOutToAllSinks) {
  sim::World w(graph::ring(6), graph::Placement(6, {0, 3}), 7);
  trace::VectorSink a;
  trace::CountingSink b;
  trace::TeeSink tee({&a, &b});
  RunConfig cfg;
  cfg.sink = &tee;
  const sim::RunResult r = w.run(walker, cfg);
  EXPECT_EQ(a.events().size(), r.steps);
  EXPECT_EQ(b.summary().steps, r.steps);
}

TEST(JsonlSink, WritesMetaEventsSummary) {
  std::ostringstream out;
  sim::World w(graph::ring(6), graph::Placement(6, {0, 3}), 7);
  trace::JsonlSink sink(out);
  RunConfig cfg;
  cfg.sink = &sink;
  cfg.trace_label = "ring6 \"test\"";
  const sim::RunResult r = w.run(walker, cfg);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(text.find("\"label\":\"ring6 \\\"test\\\"\""), std::string::npos);
  EXPECT_NE(text.find("\"policy\":\"random\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(text.find("\"config_hash\":\""), std::string::npos);
  EXPECT_EQ(sink.events_written(), r.steps);
  // One meta line + one line per event + one summary line.
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, r.steps + 2);
  EXPECT_NE(text.find("\"message_passing\":false"), std::string::npos);
  EXPECT_EQ(text.find("\"faults\""), std::string::npos);

  // The same instance, seed and label in the message-passing reading, with
  // a live fault plan: the meta line names both, so it differs.
  std::ostringstream mp_out;
  trace::JsonlSink mp_sink(mp_out);
  fault::FaultPlan plan;
  plan.fault_seed = 9;
  plan.msg_delay_rate = 0.25;
  cfg.sink = &mp_sink;
  cfg.message_passing = true;
  cfg.faults = &plan;
  w.run(walker, cfg);
  const std::string mp_text = mp_out.str();
  const std::string meta = text.substr(0, text.find('\n'));
  const std::string mp_meta = mp_text.substr(0, mp_text.find('\n'));
  EXPECT_NE(meta, mp_meta);
  EXPECT_NE(mp_meta.find("\"message_passing\":true"), std::string::npos)
      << mp_meta;
  EXPECT_NE(mp_meta.find("\"faults\":{\"seed\":9,\"msg_delay\":0.25}"),
            std::string::npos)
      << mp_meta;
}

TEST(JsonlSink, ConfigHashIdentifiesConfiguration) {
  trace::RunMetadata a;
  a.label = "x";
  a.seed = 1;
  trace::RunMetadata b = a;
  EXPECT_EQ(a.config_hash(), b.config_hash());
  b.seed = 2;
  EXPECT_NE(a.config_hash(), b.config_hash());
  // The reading and the fault plan are part of the configuration.
  b = a;
  b.message_passing = true;
  EXPECT_NE(a.config_hash(), b.config_hash());
  b = a;
  b.fault_rates = {{"crash", 0.01}};
  EXPECT_NE(a.config_hash(), b.config_hash());
  trace::RunMetadata c = b;
  c.fault_rates = {{"crash", 0.02}};
  EXPECT_NE(b.config_hash(), c.config_hash());
  c = b;
  c.fault_seed = 3;
  EXPECT_NE(b.config_hash(), c.config_hash());
}

TEST(Schedule, LoadFromJsonlMatchesRecorder) {
  std::ostringstream out;
  sim::World w(graph::ring(6), graph::Placement(6, {0, 2, 4}), 11);
  trace::JsonlSink jsonl(out);
  RunConfig cfg;
  cfg.seed = 5;
  cfg.sink = &jsonl;
  const sim::RecordedRun recorded = sim::record_run(w, walker, cfg);
  std::istringstream in(out.str());
  const trace::Schedule loaded = trace::load_schedule_jsonl(in);
  EXPECT_EQ(loaded, recorded.schedule);
}

// An agent that is not decimal digits within uint32_t is a typed error
// naming its line, not a wrapped pick that replays as another agent.
TEST(Schedule, MalformedAgentIsACheckErrorNamingTheLine) {
  const std::string meta = "{\"type\":\"meta\",\"agents\":2}\n";
  const auto event = [](const std::string& agent_field) {
    return "{\"type\":\"event\",\"step\":0," + agent_field +
           ",\"kind\":\"move\"}\n";
  };
  const std::string good = event("\"agent\":1");
  const std::vector<std::string> bad = {
      "\"agent\":4294967296",  // wraps to 0
      "\"agent\":-1",          // wraps to 4294967295
      "\"agent\":\"1\"",       // string-typed
      "\"agent\":1.5",         // not an integer
      "\"agent\":",            // no value
      "\"actor\":1",           // missing
  };
  for (const std::string& field : bad) {
    SCOPED_TRACE(field);
    std::istringstream in(meta + good + event(field));
    try {
      trace::load_schedule_jsonl(in);
      ADD_FAILURE() << "loaded";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  std::istringstream in(meta + good + event("\"agent\":4294967295"));
  EXPECT_EQ(trace::load_schedule_jsonl(in).picks,
            (std::vector<std::uint32_t>{1, 4294967295u}));
}

// The ISSUE acceptance scenario: a seeded-random run on the Petersen
// instance, recorded to a JSONL file, replayed via SchedulerPolicy::Replay
// from the schedule loaded back out of that file, with the verifier
// confirming identical RunResults.
TEST(Replay, PetersenJsonlRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/qelect_petersen_trace.jsonl";
  const graph::Graph g = graph::petersen();
  const graph::Placement p(10, {0, 5});
  sim::World w(g, p, 41);
  RunConfig cfg;
  cfg.seed = 97;
  cfg.trace_label = "petersen {0,5}";
  sim::RecordedRun recorded;
  {
    trace::JsonlSink jsonl(path);
    cfg.sink = &jsonl;
    recorded = sim::record_run(w, core::make_petersen_protocol(), cfg);
  }
  ASSERT_TRUE(recorded.result.clean_election());
  cfg.sink = nullptr;
  const trace::Schedule loaded = trace::load_schedule_jsonl_file(path);
  EXPECT_EQ(loaded, recorded.schedule);
  const sim::ReplayVerification v = sim::verify_replay(
      w, core::make_petersen_protocol(), cfg, recorded.result, loaded);
  EXPECT_TRUE(v.identical) << v.divergence;
  std::remove(path.c_str());
}

TEST(Replay, ElectRoundTripOnHypercube) {
  sim::World w(graph::hypercube(3), graph::Placement(8, {0, 3, 5}), 23);
  RunConfig cfg;
  cfg.seed = 6;
  const sim::RecordedRun recorded =
      sim::record_run(w, core::make_elect_protocol(), cfg);
  ASSERT_TRUE(recorded.result.completed);
  const sim::ReplayVerification v = sim::verify_replay(
      w, core::make_elect_protocol(), cfg, recorded.result,
      recorded.schedule);
  EXPECT_TRUE(v.identical) << v.divergence;
}

TEST(Replay, MessageWorldRoundTrip) {
  sim::World w(graph::ring(6), graph::Placement(6, {0, 2}), 17);
  RunConfig cfg;
  cfg.seed = 12;
  cfg.message_passing = true;
  const sim::RecordedRun recorded =
      sim::record_run(w, core::make_elect_protocol(), cfg);
  ASSERT_TRUE(recorded.result.completed);
  const sim::ReplayVerification v = sim::verify_replay(
      w, core::make_elect_protocol(), cfg, recorded.result,
      recorded.schedule);
  EXPECT_TRUE(v.identical) << v.divergence;
}

TEST(MessageWorld, EmitsSendAndDeliverEvents) {
  sim::World w(graph::ring(6), graph::Placement(6, {0, 3}), 7);
  trace::VectorSink sink;
  RunConfig cfg;
  cfg.sink = &sink;
  cfg.message_passing = true;
  const sim::RunResult r = w.run(walker, cfg);
  ASSERT_TRUE(r.completed);
  std::size_t sends = 0, delivers = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == trace::TraceEvent::Kind::Send) ++sends;
    if (e.kind == trace::TraceEvent::Kind::Deliver) ++delivers;
  }
  EXPECT_EQ(sends, r.messages_delivered);
  EXPECT_EQ(delivers, r.messages_delivered);
  EXPECT_EQ(delivers, r.total_moves);
}

TEST(Invariants, CleanElectTracePasses) {
  const graph::Graph g = graph::hypercube(3);
  const graph::Placement p(8, {0, 3, 5});
  sim::World w(g, p, 23);
  trace::VectorSink sink;
  RunConfig cfg;
  cfg.sink = &sink;
  const sim::RunResult r = w.run(core::make_elect_protocol(), cfg);
  ASSERT_TRUE(r.completed);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = p.home_bases();
  // ELECT measures at ~2-4 r|E| budgets; 16 is a comfortable certificate.
  spec.theorem31_factor = 16.0;
  const trace::InvariantReport report = trace::check_trace(sink.events(), spec);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.total_moves, r.total_moves);
  EXPECT_LE(report.total_moves,
            16 * core::theorem31_move_budget(g, p));
}

TEST(Invariants, MessageWorldTracePasses) {
  const graph::Graph g = graph::ring(6);
  const graph::Placement p(6, {0, 2});
  sim::World w(g, p, 17);
  trace::VectorSink sink;
  RunConfig cfg;
  cfg.sink = &sink;
  cfg.message_passing = true;
  const sim::RunResult r = w.run(core::make_elect_protocol(), cfg);
  ASSERT_TRUE(r.completed);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = p.home_bases();
  const trace::InvariantReport report = trace::check_trace(sink.events(), spec);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Invariants, DetectsInvalidPort) {
  const graph::Graph g = graph::ring(4);  // every node has degree 2
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = {0};
  std::vector<trace::TraceEvent> events;
  events.push_back({0, 0, trace::TraceEvent::Kind::Move, 1, 7});  // port 7!
  const trace::InvariantReport report = trace::check_trace(events, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("nonexistent port"),
            std::string::npos);
}

TEST(Invariants, DetectsTeleport) {
  const graph::Graph g = graph::ring(6);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = {0};
  std::vector<trace::TraceEvent> events;
  // Port 0 of node 0 leads to node 1, but the event claims node 3.
  events.push_back({0, 0, trace::TraceEvent::Kind::Move, 3, 0});
  const trace::InvariantReport report = trace::check_trace(events, spec);
  ASSERT_FALSE(report.ok());
}

TEST(Invariants, DetectsBrokenStepOrder) {
  const graph::Graph g = graph::ring(4);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = {0, 2};
  std::vector<trace::TraceEvent> events;
  events.push_back({5, 0, trace::TraceEvent::Kind::Board, 0, trace::kNoPort});
  events.push_back({5, 1, trace::TraceEvent::Kind::Board, 2, trace::kNoPort});
  const trace::InvariantReport report = trace::check_trace(events, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("atomicity"), std::string::npos);
}

TEST(Invariants, DetectsTheorem31Blowout) {
  const graph::Graph g = graph::ring(4);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = {0};
  spec.theorem31_factor = 1.0;  // budget: 1 * 1 * 4 = 4 moves
  std::vector<trace::TraceEvent> events;
  graph::NodeId at = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {  // 6 legal moves > budget 4
    const graph::NodeId next = g.peer(at, 0).to;
    events.push_back({s, 0, trace::TraceEvent::Kind::Move, next, 0});
    at = next;
  }
  const trace::InvariantReport report = trace::check_trace(events, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("Theorem 3.1"), std::string::npos);
}

TEST(Invariants, RingWindowChecksWithoutHomeBases) {
  // A RingSink tail starts mid-run: positions are unknown until each
  // agent's first event, but step-order and port checks still apply.
  sim::World w(graph::ring(8), graph::Placement(8, {0, 4}), 5);
  trace::RingSink sink(8);
  RunConfig cfg;
  cfg.sink = &sink;
  const sim::RunResult r = w.run(walker, cfg);
  ASSERT_TRUE(r.completed);
  const graph::Graph g = graph::ring(8);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = {0, 4};
  const trace::InvariantReport report =
      trace::check_trace(sink.snapshot(), spec, /*complete_trace=*/false);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Invariants, RingWindowStreamsLikeThePostPass) {
  // The checker fed a window event by event, with complete_trace = false,
  // reports what check_trace reports on the same window.  Two appended
  // events (a repeated step, then a port node 0's ring degree lacks) make
  // the report carry violations to compare.
  const graph::Graph g = graph::ring(8);
  sim::World w(g, graph::Placement(8, {0, 4}), 5);
  trace::RingSink sink(32);
  RunConfig cfg;
  cfg.sink = &sink;
  ASSERT_TRUE(w.run(core::make_elect_protocol(), cfg).completed);
  std::vector<trace::TraceEvent> window = sink.snapshot();
  ASSERT_EQ(window.size(), 32u);
  trace::TraceEvent repeated = window.back();
  window.push_back(repeated);
  window.push_back({repeated.step + 1, repeated.agent,
                    trace::TraceEvent::Kind::Move, 1, 7});
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = {0, 4};
  trace::InvariantChecker checker(spec, /*complete_trace=*/false);
  for (const trace::TraceEvent& e : window) checker.on_event(e);
  const trace::InvariantReport streamed = checker.finish();
  const trace::InvariantReport post =
      trace::check_trace(window, spec, /*complete_trace=*/false);
  EXPECT_TRUE(streamed == post)
      << streamed.to_string() << " vs " << post.to_string();
  EXPECT_EQ(post.events_checked, window.size());
  EXPECT_EQ(post.violations.size(), 2u) << post.to_string();
}

TEST(Invariants, CheckerReusedAcrossRunsStartsFreshAtBeginRun) {
  const graph::Graph g = graph::hypercube(3);
  const graph::Placement p(8, {0, 3, 5});
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = p.home_bases();
  spec.theorem31_factor = 16.0;
  trace::InvariantChecker checker(spec);
  // Left over from a run that ended without finish(): a bad port.
  checker.on_event({0, 0, trace::TraceEvent::Kind::Move, 1, 9});
  sim::World w(g, p, 23);
  for (const std::uint64_t seed : {1, 2}) {
    trace::VectorSink recorded;
    trace::TeeSink tee({&recorded, &checker});
    RunConfig cfg;
    cfg.seed = seed;
    cfg.sink = &tee;
    const sim::RunResult r = w.run(core::make_elect_protocol(), cfg);
    const trace::InvariantReport streamed = checker.finish();
    EXPECT_TRUE(streamed.ok()) << streamed.to_string();
    EXPECT_EQ(streamed.events_checked, r.steps);
    EXPECT_TRUE(streamed == trace::check_trace(recorded.events(), spec));
  }
}

}  // namespace
}  // namespace qelect
