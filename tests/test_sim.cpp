// Unit tests for the simulator: qualitative colors, whiteboards, the
// coroutine runtime, scheduler policies, accounting, and deadlock handling.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "qelect/campaign/world_pool.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/behavior.hpp"
#include "qelect/sim/color.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/scheduler.hpp"
#include "qelect/sim/whiteboard.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::sim {
namespace {

template <typename T>
concept LessThanComparable = requires(T a, T b) { a < b; };
// Compile-time guarantee of the qualitative model: colors expose equality
// and nothing else.
static_assert(!LessThanComparable<Color>,
              "qualitative colors must not expose an ordering");

TEST(Color, DistinctAndEqualityOnly) {
  ColorUniverse u(123);
  const Color a = u.mint();
  const Color b = u.mint();
  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(Color{}, Color{});
  EXPECT_NE(a, Color{});
}

TEST(Color, MintManyAllDistinct) {
  std::vector<Color> colors;
  ColorUniverse::mint_many(7, 50, colors);
  ASSERT_EQ(colors.size(), 50u);
  for (std::size_t i = 0; i < colors.size(); ++i) {
    for (std::size_t j = i + 1; j < colors.size(); ++j) {
      EXPECT_NE(colors[i], colors[j]);
    }
  }
  // The universe's own mints, in order; a refill of the same buffer
  // starts over from the seed.
  ColorUniverse u(7);
  for (const Color& c : colors) EXPECT_EQ(c, u.mint());
  ColorUniverse::mint_many(7, 3, colors);
  ASSERT_EQ(colors.size(), 3u);
  ColorUniverse again(7);
  for (const Color& c : colors) EXPECT_EQ(c, again.mint());
}

TEST(Color, IndexIsFirstSeen) {
  ColorUniverse u(9);
  const Color a = u.mint(), b = u.mint();
  ColorIndex idx;
  EXPECT_EQ(idx.index_of(b), 0u);
  EXPECT_EQ(idx.index_of(a), 1u);
  EXPECT_EQ(idx.index_of(b), 0u);
  EXPECT_TRUE(idx.contains(a));
  EXPECT_EQ(idx.size(), 2u);
}

TEST(Whiteboard, PostFindCountErase) {
  ColorUniverse u(1);
  const Color a = u.mint(), b = u.mint();
  Whiteboard wb;
  wb.post(Sign{a, 5, {1}});
  wb.post(Sign{b, 5, {2}});
  wb.post(Sign{a, 6, {}});
  EXPECT_EQ(wb.count_tag(5), 2u);
  EXPECT_EQ(wb.distinct_colors_with_tag(5), 2u);
  ASSERT_NE(wb.find(5, b), nullptr);
  EXPECT_EQ(wb.find(5, b)->payload.front(), 2);
  EXPECT_TRUE(wb.find_tag(6)->color == a);
  EXPECT_EQ(wb.erase_if([](const Sign& s) { return s.tag == 5; }), 2u);
  EXPECT_EQ(wb.count_tag(5), 0u);
}

TEST(Whiteboard, DistinctColorsDedups) {
  ColorUniverse u(2);
  const Color a = u.mint();
  Whiteboard wb;
  wb.post(Sign{a, 9, {}});
  wb.post(Sign{a, 9, {}});
  EXPECT_EQ(wb.count_tag(9), 2u);
  EXPECT_EQ(wb.distinct_colors_with_tag(9), 1u);
}

// A trivial protocol: mark the home board, walk around a ring once, finish.
Behavior ring_walker(AgentCtx& ctx) {
  co_await ctx.board([&](Whiteboard& wb) {
    wb.post(Sign{ctx.self(), 50, {}});
  });
  for (int i = 0; i < 6; ++i) {
    co_await ctx.move(0);
  }
  ctx.declare_leader();
}

TEST(World, RunsSingleAgentToCompletion) {
  World w(graph::ring(6), graph::Placement(6, {2}), 42);
  const RunResult r = w.run([](AgentCtx& ctx) { return ring_walker(ctx); },
                            RunConfig{});
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(r.agents.size(), 1u);
  EXPECT_EQ(r.agents[0].status, AgentStatus::Leader);
  EXPECT_EQ(r.agents[0].moves, 6u);
  EXPECT_EQ(r.agents[0].board_accesses, 1u);
  EXPECT_EQ(r.agents[0].final_position, 2u);  // full loop returns home
  EXPECT_EQ(r.total_moves, 6u);
}

TEST(World, HomeBaseSignsPrePosted) {
  World w(graph::ring(5), graph::Placement(5, {1, 3}), 5);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        co_await ctx.yield();
        ctx.declare_failure_detected();
      },
      RunConfig{});
  EXPECT_TRUE(r.completed);
  EXPECT_NE(w.board_at(1).find_tag(kTagHomeBase), nullptr);
  EXPECT_NE(w.board_at(3).find_tag(kTagHomeBase), nullptr);
  EXPECT_EQ(w.board_at(0).find_tag(kTagHomeBase), nullptr);
}

TEST(World, WaitUntilBlocksUntilSignAppears) {
  // Agent 0 waits for a sign at its node; agent 1 walks over and posts it.
  const graph::Graph g = graph::path(2);
  World w(g, graph::Placement(2, {0, 1}), 3);
  const auto colors = w.agent_colors();
  const Color waiter_color = colors[0];
  const RunResult r = w.run(
      [waiter_color](AgentCtx& ctx) -> Behavior {
        if (ctx.self() == waiter_color) {
          co_await ctx.wait_until([](const Whiteboard& wb) {
            return wb.find_tag(77) != nullptr;
          });
          ctx.declare_leader();
        } else {
          co_await ctx.move(0);
          co_await ctx.board([&](Whiteboard& wb) {
            wb.post(Sign{ctx.self(), 77, {}});
          });
          ctx.declare_defeated(waiter_color);
        }
      },
      RunConfig{});
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.clean_election());
}

TEST(World, DeadlockDetected) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        co_await ctx.wait_until(
            [](const Whiteboard& wb) { return wb.count_tag(999) > 0; });
      },
      RunConfig{});
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlock);
}

TEST(World, StepLimitHonored) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  RunConfig cfg;
  cfg.max_steps = 10;
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        for (;;) co_await ctx.move(0);
      },
      cfg);
  EXPECT_TRUE(r.step_limit);
  EXPECT_EQ(r.steps, 10u);
}

TEST(World, MoveThroughBadPortThrows) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  EXPECT_THROW(w.run(
                   [](AgentCtx& ctx) -> Behavior {
                     co_await ctx.move(9);
                   },
                   RunConfig{}),
               CheckError);
}

TEST(World, QuantitativeIdsDistinct) {
  World w = World::quantitative(graph::ring(5), graph::Placement(5, {0, 2, 4}),
                                11);
  auto seen = std::make_shared<std::vector<std::int64_t>>();
  const RunResult r = w.run(
      [seen](AgentCtx& ctx) -> Behavior {
        seen->push_back(*ctx.quantitative_id());
        co_await ctx.yield();
        ctx.declare_failure_detected();
      },
      RunConfig{});
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(seen->size(), 3u);
  EXPECT_NE((*seen)[0], (*seen)[1]);
  EXPECT_NE((*seen)[1], (*seen)[2]);
  EXPECT_NE((*seen)[0], (*seen)[2]);
}

TEST(World, QualitativeWorldHasNoIds) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        EXPECT_FALSE(ctx.quantitative_id().has_value());
        co_await ctx.yield();
        ctx.declare_leader();
      },
      RunConfig{});
  EXPECT_TRUE(r.completed);
}

TEST(World, EntryPortReported) {
  const graph::Graph g = graph::ring(4);  // port 0 = +1, port 1 = -1
  World w(g, graph::Placement(4, {0}), 8);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        EXPECT_FALSE(ctx.entry_port().has_value());
        co_await ctx.move(0);
        EXPECT_EQ(*ctx.entry_port(), 1u);  // entered node 1 via its -1 port
        ctx.declare_leader();
      },
      RunConfig{});
  EXPECT_TRUE(r.completed);
}

// Nested Task plumbing: subroutines that themselves await actions.
Task<int> count_moves(AgentCtx& ctx, int hops) {
  for (int i = 0; i < hops; ++i) co_await ctx.move(0);
  co_return hops;
}
Task<int> double_hop(AgentCtx& ctx) {
  const int a = co_await count_moves(ctx, 2);
  const int b = co_await count_moves(ctx, 3);
  co_return a + b;
}

TEST(World, NestedTasksExecuteActions) {
  World w(graph::ring(6), graph::Placement(6, {0}), 4);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        const int total = co_await double_hop(ctx);
        EXPECT_EQ(total, 5);
        ctx.declare_leader();
      },
      RunConfig{});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.agents[0].moves, 5u);
  EXPECT_EQ(r.agents[0].final_position, 5u);
}

TEST(World, ProtocolExceptionPropagates) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  EXPECT_THROW(w.run(
                   [](AgentCtx& ctx) -> Behavior {
                     co_await ctx.yield();
                     QELECT_CHECK(false, "protocol bug");
                   },
                   RunConfig{}),
               CheckError);
}

// A check that trips three Task levels below the root.  `after` counts
// parent code that ran past its co_await, `caught` the catch handlers
// around one: a failure escapes to the World in one throw, so neither
// ever runs.
struct NestedProbe {
  int after = 0;
  int caught = 0;
};

Task<int> nested_level3(AgentCtx& ctx) {
  co_await ctx.yield();
  QELECT_CHECK(ctx.degree() == 0, "nested protocol check");
  co_return 3;
}
Task<int> nested_level2(AgentCtx& ctx, NestedProbe& probe) {
  const int level = co_await nested_level3(ctx);
  ++probe.after;
  co_return level;
}
Task<void> nested_level1(AgentCtx& ctx, NestedProbe& probe) {
  try {
    co_await nested_level2(ctx, probe);
  } catch (...) {
    ++probe.caught;
  }
  ++probe.after;
}
Behavior nested_check_protocol(AgentCtx& ctx, NestedProbe& probe) {
  co_await ctx.move(0);
  co_await nested_level1(ctx, probe);
  ++probe.after;
  ctx.declare_leader();
}

std::string nested_check_error(World& world, NestedProbe& probe,
                               bool message_passing = false) {
  RunConfig config;
  config.message_passing = message_passing;
  try {
    world.run(
        [&probe](AgentCtx& ctx) { return nested_check_protocol(ctx, probe); },
        config);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(World, NestedCheckFailureEscapesTheRunInOneThrow) {
  const graph::Graph g = graph::ring(4);
  NestedProbe in_world;
  World w(g, graph::Placement(4, {0}), 3);
  const std::string world_error = nested_check_error(w, in_world);
  NestedProbe in_messages;
  World m(g, graph::Placement(4, {0}), 3);
  const std::string message_error =
      nested_check_error(m, in_messages, /*message_passing=*/true);

  EXPECT_NE(world_error.find("nested protocol check"), std::string::npos)
      << world_error;
  EXPECT_EQ(world_error, message_error);
  for (const NestedProbe& probe : {in_world, in_messages}) {
    EXPECT_EQ(probe.after, 0);
    EXPECT_EQ(probe.caught, 0);
  }
}

TEST(World, PooledWorldRunsCleanAfterANestedThrow) {
  campaign::TaskSpec task;
  task.graph = {"ring", {6}};
  task.home_bases = {0, 2};
  task.color_seed = 11;
  campaign::WorldPool pool;
  World& pooled = pool.acquire(task, false);
  NestedProbe probe;
  EXPECT_NE(nested_check_error(pooled, probe), "");

  World& again = pool.acquire(task, false);
  ASSERT_EQ(&again, &pooled);
  World fresh(graph::ring(6), graph::Placement(6, task.home_bases), 11);
  const Protocol elect = core::make_elect_protocol();
  const RunResult reused = again.run(elect, RunConfig{});
  const RunResult expected = fresh.run(elect, RunConfig{});
  EXPECT_TRUE(reused.completed);
  EXPECT_EQ(reused.steps, expected.steps);
  EXPECT_EQ(reused.total_moves, expected.total_moves);
  EXPECT_EQ(reused.agents, expected.agents);
}

TEST(World, SchedulerPoliciesAllComplete) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::Random, SchedulerPolicy::RoundRobin,
        SchedulerPolicy::Lockstep}) {
    World w(graph::ring(6), graph::Placement(6, {0, 2, 4}), 21);
    RunConfig cfg;
    cfg.policy = policy;
    const RunResult r = w.run(
        [](AgentCtx& ctx) -> Behavior {
          for (int i = 0; i < 6; ++i) co_await ctx.move(0);
          ctx.declare_failure_detected();
        },
        cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.total_moves, 18u);
  }
}

TEST(World, RandomSchedulerIsSeedDeterministic) {
  auto run_trace = [](std::uint64_t seed) {
    World w(graph::ring(6), graph::Placement(6, {0, 3}), 9);
    RunConfig cfg;
    cfg.seed = seed;
    w.run(
        [](AgentCtx& ctx) -> Behavior {
          for (int i = 0; i < 10; ++i) {
            co_await ctx.move(0);
            co_await ctx.board([&](Whiteboard& wb) {
              wb.post(Sign{ctx.self(), 33, {}});
            });
          }
          ctx.declare_failure_detected();
        },
        cfg);
    std::vector<std::size_t> counts;
    for (graph::NodeId v = 0; v < 6; ++v) {
      counts.push_back(w.board_at(v).count_tag(33));
    }
    return counts;
  };
  EXPECT_EQ(run_trace(1), run_trace(1));
}

TEST(World, RerunResetsState) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  const Protocol p = [](AgentCtx& ctx) -> Behavior {
    co_await ctx.board([&](Whiteboard& wb) {
      wb.post(Sign{ctx.self(), 44, {}});
    });
    ctx.declare_leader();
  };
  w.run(p, RunConfig{});
  w.run(p, RunConfig{});
  EXPECT_EQ(w.board_at(0).count_tag(44), 1u);  // not 2: boards reset
}

TEST(World, SinkReceivesEveryStep) {
  World w(graph::ring(5), graph::Placement(5, {0, 2}), 4);
  trace::VectorSink sink;
  RunConfig cfg;
  cfg.sink = &sink;
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        co_await ctx.board([&](Whiteboard& wb) {
          wb.post(Sign{ctx.self(), 60, {}});
        });
        for (int i = 0; i < 3; ++i) co_await ctx.move(0);
        ctx.declare_failure_detected();
      },
      cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sink.events().size(), r.steps);
  std::size_t moves = 0, boards = 0;
  for (const TraceEvent& e : sink.events()) {
    if (e.kind == TraceEvent::Kind::Move) ++moves;
    if (e.kind == TraceEvent::Kind::Board) ++boards;
    EXPECT_LT(e.agent, 2u);
    EXPECT_LT(e.node, 5u);
  }
  EXPECT_EQ(moves, r.total_moves);
  EXPECT_EQ(boards, r.total_board_accesses);
  EXPECT_EQ(sink.metadata().agent_count, 2u);
  EXPECT_EQ(sink.metadata().policy, "random");
  EXPECT_EQ(sink.summary().steps, r.steps);
  EXPECT_TRUE(sink.summary().completed);
}

// A contention-heavy protocol for the determinism tests: agents race
// around the ring posting signs and wait for each other's marks.
Behavior racing_protocol(AgentCtx& ctx) {
  for (int lap = 0; lap < 4; ++lap) {
    co_await ctx.board([&](Whiteboard& wb) {
      wb.post(Sign{ctx.self(), 70, {lap}});
    });
    co_await ctx.move(0);
    co_await ctx.yield();
  }
  co_await ctx.wait_until([](const Whiteboard& wb) {
    return wb.distinct_colors_with_tag(70) >= 1;
  });
  ctx.declare_failure_detected();
}

TEST(World, SameSeedSamePolicyIsDeterministic) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::Random, SchedulerPolicy::Lockstep}) {
    RunConfig cfg;
    cfg.policy = policy;
    cfg.seed = 77;
    World w1(graph::ring(6), graph::Placement(6, {0, 2, 4}), 13);
    World w2(graph::ring(6), graph::Placement(6, {0, 2, 4}), 13);
    const RunResult r1 = w1.run(racing_protocol, cfg);
    const RunResult r2 = w2.run(racing_protocol, cfg);
    EXPECT_EQ(compare_run_results(r1, r2), "") << policy_name(policy);
  }
}

TEST(World, DifferentSeedsUsuallyDiverge) {
  // Not a guarantee per-seed, but across this instance the interleavings
  // differ; the step counts under seeds 1 and 2 are observed distinct.
  RunConfig cfg1, cfg2;
  cfg1.seed = 1;
  cfg2.seed = 2;
  World w1(graph::ring(6), graph::Placement(6, {0, 3}), 9);
  World w2(graph::ring(6), graph::Placement(6, {0, 3}), 9);
  const RecordedRun a = record_run(w1, racing_protocol, cfg1);
  const RecordedRun b = record_run(w2, racing_protocol, cfg2);
  EXPECT_NE(a.schedule, b.schedule);
}

TEST(World, RecordReplayRoundTripRandom) {
  World w(graph::ring(6), graph::Placement(6, {0, 2, 4}), 21);
  RunConfig cfg;
  cfg.seed = 31;
  const RecordedRun recorded = record_run(w, racing_protocol, cfg);
  ASSERT_TRUE(recorded.result.completed);
  EXPECT_EQ(recorded.schedule.size(), recorded.result.steps);
  const ReplayVerification v =
      verify_replay(w, racing_protocol, cfg, recorded.result,
                    recorded.schedule);
  EXPECT_TRUE(v.identical) << v.divergence;
}

TEST(World, RecordReplayRoundTripRoundRobin) {
  World w(graph::ring(6), graph::Placement(6, {0, 3}), 8);
  RunConfig cfg;
  cfg.policy = SchedulerPolicy::RoundRobin;
  const RecordedRun recorded = record_run(w, racing_protocol, cfg);
  ASSERT_TRUE(recorded.result.completed);
  const ReplayVerification v =
      verify_replay(w, racing_protocol, cfg, recorded.result,
                    recorded.schedule);
  EXPECT_TRUE(v.identical) << v.divergence;
}

TEST(World, ReplayRequiresSchedule) {
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  RunConfig cfg;
  cfg.policy = SchedulerPolicy::Replay;
  EXPECT_THROW(w.run(
                   [](AgentCtx& ctx) -> Behavior {
                     co_await ctx.yield();
                   },
                   cfg),
               CheckError);
}

TEST(World, ReplayDivergenceDetected) {
  // A schedule naming a non-enabled agent must abort, not silently drift.
  World w(graph::ring(4), graph::Placement(4, {0}), 8);
  trace::Schedule bogus;
  bogus.picks = {5};  // only agent 0 exists
  RunConfig cfg;
  cfg.policy = SchedulerPolicy::Replay;
  cfg.replay = &bogus;
  EXPECT_THROW(w.run(
                   [](AgentCtx& ctx) -> Behavior {
                     co_await ctx.yield();
                     ctx.declare_leader();
                   },
                   cfg),
               CheckError);
}

TEST(World, RejectsDisconnectedGraph) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(World(std::move(g), graph::Placement(4, {0}), 1), CheckError);
}

}  // namespace
}  // namespace qelect::sim
