// The fault subsystem (src/fault): determinism, replay, and diagnosis.
//
// The whole contract of fault injection here is that faults are just
// another deterministic input: every draw is Philox-keyed by
// (fault_seed, axis, event index), every injected fault consumes exactly
// one scheduler pick and emits exactly one trace event, so a faulty run
// records, replays, and diagnoses identically forever.  These tests pin
// that down axis by axis, plus the zero-plan escape hatch: a FaultPlan
// with every rate zero must be observationally byte-identical to running
// with no plan at all (the golden-sim digests depend on it).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/fault/diagnosis.hpp"
#include "qelect/fault/injector.hpp"
#include "qelect/fault/plan.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/invariants.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/rng.hpp"

namespace qelect {
namespace {

using graph::Graph;
using graph::Placement;

// ---- injector primitives ------------------------------------------------

TEST(FaultInjector, NullAndZeroPlansNeverFire) {
  fault::FaultInjector inert(nullptr);
  fault::FaultPlan zero;
  fault::FaultInjector zeroed(&zero);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(inert.roll_crash());
    EXPECT_FALSE(inert.roll_msg_loss());
    EXPECT_FALSE(zeroed.roll_crash());
    EXPECT_FALSE(zeroed.roll_sign_loss());
    EXPECT_FALSE(zeroed.roll_edge_cut());
  }
  EXPECT_FALSE(zero.enabled());
}

TEST(FaultInjector, RateOneAlwaysFires) {
  fault::FaultPlan plan;
  plan.fault_seed = 7;
  plan.crash_rate = 1.0;
  fault::FaultInjector injector(&plan);
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(injector.roll_crash());
}

TEST(FaultInjector, DrawsArePhiloxKeyedByAxisAndIndex) {
  // The seeding contract from the issue: draw k of axis a is
  // Philox4x32::block(fault_seed, a, k) compared against rate * 2^64.
  fault::FaultPlan plan;
  plan.fault_seed = 0x5eedf00dULL;
  plan.crash_rate = 0.5;
  plan.edge_cut_rate = 0.25;
  fault::FaultInjector injector(&plan);
  const auto expect_roll = [&](fault::FaultAxis axis, double rate,
                               std::uint64_t k) {
    const auto thr = static_cast<std::uint64_t>(
        rate * 18446744073709551616.0);  // 2^64
    return Philox4x32::block(plan.fault_seed,
                             static_cast<std::uint64_t>(axis), k) < thr;
  };
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(injector.roll_crash(),
              expect_roll(fault::FaultAxis::Crash, plan.crash_rate, k))
        << "crash draw " << k;
  }
  // The edge axis has its own counter: interleaving crash draws above must
  // not have advanced it.
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(injector.roll_edge_cut(),
              expect_roll(fault::FaultAxis::Edge, plan.edge_cut_rate, k))
        << "edge draw " << k;
  }
}

TEST(FaultInjector, RecordsSummaryAndFirstEvent) {
  fault::FaultPlan plan;
  plan.crash_rate = 1.0;
  fault::FaultInjector injector(&plan);
  injector.record(10, 1, fault::FaultKind::AgentCrash, 3);
  injector.record(20, 0, fault::FaultKind::SignLost, 4);
  const fault::FaultSummary s = injector.summary();
  EXPECT_EQ(s.total, 2u);
  EXPECT_TRUE(s.any);
  EXPECT_EQ(s.first.kind, fault::FaultKind::AgentCrash);
  EXPECT_EQ(s.first.step, 10u);
  EXPECT_EQ(s.by_axis(fault::FaultAxis::Crash), 1u);
  EXPECT_EQ(s.by_axis(fault::FaultAxis::Board), 1u);
  EXPECT_EQ(s.by_axis(fault::FaultAxis::Message), 0u);
  ASSERT_EQ(injector.events().size(), 2u);
}

// ---- zero-plan byte identity --------------------------------------------

struct Observed {
  std::vector<trace::TraceEvent> events;
  sim::RunResult result;
  // Board corruption can legitimately trip ELECT's internal QELECT_CHECKs
  // (the protocol detecting an inconsistent whiteboard); the campaign
  // engine records that as a failed task.  Determinism then means the
  // *same* throw at the same point, so the error is part of the
  // observation.
  std::string error;
};

Observed traced_world_run(const Graph& g, const Placement& p,
                          std::uint64_t color_seed, sim::RunConfig config) {
  trace::VectorSink sink;
  config.sink = &sink;
  sim::World w(g, p, color_seed);
  Observed obs;
  try {
    obs.result = w.run(core::make_elect_protocol(), config);
  } catch (const std::exception& e) {
    obs.error = e.what();
  }
  obs.events = sink.events();
  return obs;
}

TEST(ZeroFaultPlan, WorldRunIsByteIdenticalToNoPlan) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  sim::RunConfig config;
  config.seed = 5;

  const Observed bare = traced_world_run(g, p, 11, config);

  fault::FaultPlan zero;  // all rates zero: must route to the fault-free path
  config.faults = &zero;
  const Observed gated = traced_world_run(g, p, 11, config);

  EXPECT_EQ(bare.events, gated.events);
  EXPECT_EQ(bare.result.agents, gated.result.agents);
  EXPECT_EQ(bare.result.steps, gated.result.steps);
  EXPECT_EQ(bare.result.total_moves, gated.result.total_moves);
  EXPECT_EQ(bare.result.fault_summary, gated.result.fault_summary);
  EXPECT_TRUE(gated.result.fault_events.empty());
  EXPECT_EQ(gated.result.crashed_count(), 0u);
}

TEST(ZeroFaultPlan, MessageWorldRunIsByteIdenticalToNoPlan) {
  const Graph g = graph::ring(4);
  const Placement p(4, {0, 2});
  sim::RunConfig config;
  config.seed = 3;
  config.message_passing = true;

  auto run_message = [&](const sim::RunConfig& c) {
    trace::VectorSink sink;
    sim::RunConfig with_sink = c;
    with_sink.sink = &sink;
    sim::World w(g, p, 13);
    Observed obs;
    obs.result = w.run(core::make_elect_protocol(), with_sink);
    obs.events = sink.events();
    return obs;
  };

  const Observed bare = run_message(config);
  fault::FaultPlan zero;
  config.faults = &zero;
  const Observed gated = run_message(config);
  EXPECT_EQ(bare.events, gated.events);
  EXPECT_EQ(bare.result.agents, gated.result.agents);
  EXPECT_EQ(bare.result.steps, gated.result.steps);
}

// ---- per-axis determinism -----------------------------------------------

fault::FaultPlan axis_plan(fault::FaultAxis axis, double rate) {
  fault::FaultPlan plan;
  plan.fault_seed = 0xfa017ULL;
  switch (axis) {
    case fault::FaultAxis::Crash:
      plan.crash_rate = rate;
      break;
    case fault::FaultAxis::Board:
      plan.sign_loss_rate = rate;
      plan.sign_dup_rate = rate;
      break;
    case fault::FaultAxis::Message:
      plan.msg_loss_rate = rate;
      plan.msg_dup_rate = rate;
      plan.msg_delay_rate = rate;
      break;
    case fault::FaultAxis::Edge:
      plan.edge_cut_rate = rate;
      plan.edge_wormhole_rate = rate / 2;
      break;
  }
  return plan;
}

TEST(FaultedRuns, WorldAxesAreDeterministic) {
  const Graph g = graph::ring(8);
  const Placement p(8, {0, 4});
  for (const fault::FaultAxis axis :
       {fault::FaultAxis::Crash, fault::FaultAxis::Board,
        fault::FaultAxis::Edge}) {
    SCOPED_TRACE(fault::axis_name(axis));
    const fault::FaultPlan plan = axis_plan(axis, 0.05);
    sim::RunConfig config;
    config.seed = 9;
    config.faults = &plan;
    const Observed a = traced_world_run(g, p, 21, config);
    const Observed b = traced_world_run(g, p, 21, config);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.result.agents, b.result.agents);
    EXPECT_EQ(a.result.fault_summary, b.result.fault_summary);
    EXPECT_EQ(a.result.fault_events, b.result.fault_events);
  }
}

TEST(FaultedRuns, MessageAxesAreDeterministic) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const fault::FaultPlan plan = axis_plan(fault::FaultAxis::Message, 0.05);
  sim::RunConfig config;
  config.seed = 4;
  config.faults = &plan;
  config.message_passing = true;

  auto run_once = [&] {
    trace::VectorSink sink;
    sim::RunConfig c = config;
    c.sink = &sink;
    sim::World w(g, p, 17);
    Observed obs;
    obs.result = w.run(core::make_elect_protocol(), c);
    obs.events = sink.events();
    return obs;
  };
  const Observed a = run_once();
  const Observed b = run_once();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.result.agents, b.result.agents);
  EXPECT_EQ(a.result.fault_events, b.result.fault_events);
}

TEST(FaultedRuns, HighCrashRateCrashStopsAgents) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 2, 4});
  fault::FaultPlan plan;
  plan.fault_seed = 2;
  plan.crash_rate = 0.5;
  sim::RunConfig config;
  config.seed = 1;
  config.faults = &plan;
  const Observed obs = traced_world_run(g, p, 5, config);
  EXPECT_GT(obs.result.crashed_count(), 0u);
  for (const auto& a : obs.result.agents) {
    if (a.status != sim::AgentStatus::Crashed) continue;
    // A crash-stopped agent's last trace event can't postdate the crash.
    EXPECT_TRUE(obs.result.fault_summary.any);
  }
}

// A faulted run's trace, checked as it streams and as a post-pass over the
// recorded vector, gives one report on every axis -- including runs a
// fault-stop ended early, whose trace is the prefix before the throw.
TEST(FaultedRuns, StreamingCheckerMatchesPostPassOnEveryAxis) {
  const Graph g = graph::ring(8);
  const Placement p(8, {0, 4});
  std::size_t with_violations = 0;
  for (const fault::FaultAxis axis :
       {fault::FaultAxis::Crash, fault::FaultAxis::Board,
        fault::FaultAxis::Message, fault::FaultAxis::Edge}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      fault::FaultPlan plan = axis_plan(axis, 0.02);
      plan.fault_seed = seed;
      SCOPED_TRACE(std::string(fault::axis_name(axis)) + " seed " +
                   std::to_string(seed));
      trace::InvariantSpec spec;
      spec.graph = &g;
      spec.home_bases = p.home_bases();
      spec.theorem31_factor = 16.0;
      trace::VectorSink recorded;
      trace::InvariantChecker streamed(spec);
      trace::TeeSink tee({&recorded, &streamed});
      sim::RunConfig config;
      config.seed = seed;
      config.faults = &plan;
      config.sink = &tee;
      config.message_passing = axis == fault::FaultAxis::Message;
      try {
        sim::World w(g, p, 21);
        w.run(core::make_elect_protocol(), config);
      } catch (const CheckError&) {
        // A fault-stop: both checkers saw the same events up to it.
      }
      const trace::InvariantReport live = streamed.finish();
      const trace::InvariantReport post =
          trace::check_trace(recorded.events(), spec);
      EXPECT_TRUE(live == post) << "streamed " << live.to_string()
                                << ", post-pass " << post.to_string();
      EXPECT_EQ(post.events_checked, recorded.events().size());
      if (!post.ok()) ++with_violations;
    }
  }
  // Wormholes break locality, so some reports carry violations to compare.
  EXPECT_GT(with_violations, 0u);
}

// ---- replay-under-faults (the satellite determinism suite) --------------

TEST(FaultReplay, RecordedFaultyRunReplaysByteIdentically) {
  const Graph g = graph::ring(8);
  const Placement p(8, {0, 4});
  fault::FaultPlan plan = axis_plan(fault::FaultAxis::Crash, 0.02);
  plan.edge_cut_rate = 0.02;
  plan.sign_loss_rate = 0.02;

  sim::RunConfig config;
  config.seed = 6;
  config.faults = &plan;
  trace::VectorSink recorded_events;
  config.sink = &recorded_events;

  sim::World w(g, p, 19);
  const sim::RecordedRun recorded =
      sim::record_run(w, core::make_elect_protocol(), config);

  // Replay must reproduce the run field-for-field -- including the fault
  // summary and the fault event log (compare_run_results covers both).
  sim::World replay_world(g, p, 19);
  const auto verification =
      sim::verify_replay(replay_world, core::make_elect_protocol(), config,
                         recorded.result, recorded.schedule);
  EXPECT_TRUE(verification.identical) << verification.divergence;

  // And the trace itself is byte-identical under replay.
  trace::VectorSink replayed_events;
  sim::RunConfig replay_config = config;
  replay_config.policy = sim::SchedulerPolicy::Replay;
  replay_config.replay = &recorded.schedule;
  replay_config.sink = &replayed_events;
  sim::World again(g, p, 19);
  const auto replayed =
      again.run(core::make_elect_protocol(), replay_config);
  EXPECT_EQ(recorded_events.events(), replayed_events.events());
  EXPECT_EQ(recorded.result.fault_events, replayed.fault_events);

  // The first-violation diagnosis is a pure function of (trace, fault
  // log), so record and replay agree on it too.
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = p.home_bases();
  const auto report_a =
      trace::check_trace(recorded_events.events(), spec);
  const auto report_b =
      trace::check_trace(replayed_events.events(), spec);
  const auto fv_a =
      fault::diagnose_first_violation(report_a, recorded.result.fault_events);
  const auto fv_b =
      fault::diagnose_first_violation(report_b, replayed.fault_events);
  EXPECT_EQ(fv_a, fv_b);
}

TEST(FaultReplay, MessageWorldFaultyRunReplaysIdentically) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const fault::FaultPlan plan = axis_plan(fault::FaultAxis::Message, 0.04);
  sim::RunConfig config;
  config.seed = 8;
  config.faults = &plan;
  config.message_passing = true;

  sim::World w(g, p, 23);
  const sim::RecordedRun recorded =
      sim::record_run(w, core::make_elect_protocol(), config);
  sim::World replay_world(g, p, 23);
  const auto verification =
      sim::verify_replay(replay_world, core::make_elect_protocol(), config,
                         recorded.result, recorded.schedule);
  EXPECT_TRUE(verification.identical) << verification.divergence;
}

// True iff the run's first fault is an edge cut of some agent's first
// move: that agent is still on its home-base and has never entered a node
// through a port, so MAP-DRAWING reads an empty entry port.
bool first_fault_cuts_first_move(const Observed& run,
                                 const Placement& p) {
  if (run.result.fault_events.empty()) return false;
  const fault::FaultEvent& cut = run.result.fault_events.front();
  if (cut.kind != fault::FaultKind::EdgeCut ||
      cut.node != p.home_bases()[cut.agent]) {
    return false;
  }
  for (const trace::TraceEvent& e : run.events) {
    if (e.step >= cut.step) break;
    if (e.agent == cut.agent && e.kind == trace::TraceEvent::Kind::Move) {
      return false;
    }
  }
  return true;
}

TEST(FaultReplay, FirstMoveCutReplaysIdentically) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  fault::FaultPlan plan;
  plan.edge_cut_rate = 0.05;
  sim::RunConfig config;
  config.seed = 1;
  config.faults = &plan;

  // The first fault seed whose run cuts an agent's first move and ends
  // without a protocol check firing.
  for (plan.fault_seed = 0; plan.fault_seed < 64; ++plan.fault_seed) {
    const Observed run = traced_world_run(g, p, 3, config);
    if (run.error.empty() && first_fault_cuts_first_move(run, p)) break;
  }
  ASSERT_LT(plan.fault_seed, 64u);

  trace::VectorSink recorded_events;
  config.sink = &recorded_events;
  sim::World w(g, p, 3);
  const sim::RecordedRun recorded =
      sim::record_run(w, core::make_elect_protocol(), config);
  sim::World replay_world(g, p, 3);
  const auto verification =
      sim::verify_replay(replay_world, core::make_elect_protocol(), config,
                         recorded.result, recorded.schedule);
  EXPECT_TRUE(verification.identical) << verification.divergence;

  trace::VectorSink replayed_events;
  sim::RunConfig replay_config = config;
  replay_config.policy = sim::SchedulerPolicy::Replay;
  replay_config.replay = &recorded.schedule;
  replay_config.sink = &replayed_events;
  sim::World again(g, p, 3);
  const auto replayed = again.run(core::make_elect_protocol(), replay_config);
  EXPECT_EQ(recorded_events.events(), replayed_events.events());
  EXPECT_EQ(recorded.result.fault_events, replayed.fault_events);

  // The cut is the run's first fault.  A cut leaves the agent where it
  // was, so locality holds, and this run stays within the x16 Theorem 3.1
  // certificate: the diagnosis finds no violation to blame, in the record
  // and the replay alike.
  ASSERT_FALSE(recorded.result.fault_events.empty());
  const fault::FaultEvent& cut = recorded.result.fault_events.front();
  EXPECT_EQ(cut.kind, fault::FaultKind::EdgeCut);
  EXPECT_EQ(recorded.result.fault_summary.first, cut);
  trace::InvariantSpec spec;
  spec.graph = &g;
  spec.home_bases = p.home_bases();
  spec.theorem31_factor = 16.0;
  const auto fv_recorded = fault::diagnose_first_violation(
      trace::check_trace(recorded_events.events(), spec),
      recorded.result.fault_events);
  const auto fv_replayed = fault::diagnose_first_violation(
      trace::check_trace(replayed_events.events(), spec),
      replayed.fault_events);
  EXPECT_FALSE(fv_recorded.violated) << fv_recorded.to_string();
  EXPECT_EQ(fv_recorded, fv_replayed);
}

// ---- first-violation diagnosis ------------------------------------------

TEST(Diagnosis, AttributesViolationToLatestPrecedingFault) {
  trace::InvariantReport report;
  report.violations.push_back("bad move");
  report.details.push_back({true, 100, 1, "bad move"});
  std::vector<fault::FaultEvent> faults = {
      {50, 0, fault::FaultKind::EdgeCut, 2},
      {90, 1, fault::FaultKind::AgentCrash, 3},
      {120, 0, fault::FaultKind::SignLost, 1},  // after: not the cause
  };
  const auto fv = fault::diagnose_first_violation(report, faults);
  EXPECT_TRUE(fv.violated);
  EXPECT_TRUE(fv.caused_by_fault);
  EXPECT_EQ(fv.cause.kind, fault::FaultKind::AgentCrash);
  EXPECT_EQ(fv.cause.step, 90u);
  EXPECT_EQ(fv.step, 100u);
}

TEST(Diagnosis, ViolationWithoutFaultsIsUnattributed) {
  trace::InvariantReport report;
  report.violations.push_back("bad move");
  report.details.push_back({true, 7, 0, "bad move"});
  const auto fv = fault::diagnose_first_violation(report, {});
  EXPECT_TRUE(fv.violated);
  EXPECT_FALSE(fv.caused_by_fault);
}

TEST(Diagnosis, CleanReportDiagnosesOk) {
  trace::InvariantReport report;
  const auto fv = fault::diagnose_first_violation(
      report, {{5, 0, fault::FaultKind::AgentCrash, 0}});
  EXPECT_FALSE(fv.violated);
  EXPECT_EQ(fv.to_string(), "ok");
}

// ---- degradation workload determinism -----------------------------------

TEST(DegradationWorkload, TaskMetricsAreDeterministic) {
  campaign::TaskSpec task;
  task.key = "degradation/ring(6)/p=0.3/s=1/f=crash-0.05";
  task.workload = "degradation";
  task.graph = campaign::GraphRef{"ring", {6}};
  task.home_bases = {0, 3};
  task.color_seed = 1;
  task.fault_label = "crash-0.05";
  task.faults.crash_rate = 0.05;

  const CancelToken cancel;
  const auto a = campaign::run_task(task, cancel);
  const auto b = campaign::run_task(task, cancel);
  EXPECT_EQ(a, b);

  // A different key re-derives the per-task fault seed: same rates, a
  // different Philox stream (almost surely different metrics; the point
  // here is just that the derivation depends on the key).
  campaign::TaskSpec other = task;
  other.key = "degradation/ring(6)/p=0.3/s=2/f=crash-0.05";
  other.color_seed = 2;
  const auto c = campaign::run_task(other, cancel);
  EXPECT_EQ(c.size(), a.size());

  // A message-axis point runs in the message-passing reading on the same
  // pooled World as the mobile points: run it, then a mobile task, then
  // it again, and its record must not depend on what the World ran
  // before.
  campaign::TaskSpec lossy = task;
  lossy.key = "degradation/ring(6)/p=0.3/s=1/f=msg-0.05";
  lossy.fault_label = "msg-0.05";
  lossy.faults = {};
  lossy.faults.msg_loss_rate = 0.05;
  lossy.faults.msg_delay_rate = 0.05;
  const auto m1 = campaign::run_task(lossy, cancel);
  EXPECT_EQ(campaign::run_task(task, cancel), a);
  const auto m2 = campaign::run_task(lossy, cancel);
  EXPECT_EQ(m1, m2);
}

// Every workload that takes a faults axis attaches the plan, and a
// message-axis point runs in the message-passing reading: its tasks
// record other metrics than their fault-free twins.
TEST(FaultedWorkloads, MessagePointsDifferFromTheirFaultFreeTwins) {
  for (const char* workload : {"elect", "moves"}) {
    campaign::CampaignSpec spec;
    spec.name = std::string("msg-") + workload;
    spec.workload = workload;
    spec.graphs.push_back({"ring", 6, 6, {}});
    spec.placements.mode = campaign::PlacementAxis::Mode::Fixed;
    spec.placements.fixed = {0, 2};
    spec.color_seeds = {1, 2, 3};
    campaign::FaultPoint none;
    none.label = "none";
    campaign::FaultPoint msg;
    msg.label = "msg-0.2";
    msg.plan.msg_loss_rate = 0.2;
    msg.plan.msg_delay_rate = 0.2;
    spec.faults = {none, msg};
    const std::vector<campaign::TaskSpec> tasks = campaign::expand_tasks(spec);
    ASSERT_EQ(tasks.size(), 6u);
    const CancelToken cancel;
    for (std::size_t i = 0; i < tasks.size(); i += 2) {
      SCOPED_TRACE(tasks[i + 1].key);
      ASSERT_EQ(tasks[i].fault_label, "none");
      ASSERT_EQ(tasks[i + 1].fault_label, "msg-0.2");
      EXPECT_NE(campaign::run_task(tasks[i], cancel),
                campaign::run_task(tasks[i + 1], cancel));
    }
  }
}

TEST(FaultedRuns, MessagePlanInTheMobileReadingThrows) {
  // The mobile reading has no links: a live message axis there could
  // never fire, so the run refuses it instead of passing as fault-free.
  const fault::FaultPlan plan = axis_plan(fault::FaultAxis::Message, 0.05);
  sim::RunConfig config;
  config.faults = &plan;
  sim::World w(graph::ring(6), Placement(6, {0, 3}), 17);
  EXPECT_THROW(w.run(core::make_elect_protocol(), config), CheckError);
  config.message_passing = true;
  EXPECT_NO_THROW(w.run(core::make_elect_protocol(), config));
}

}  // namespace
}  // namespace qelect
