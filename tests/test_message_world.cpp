// Tests for the Figure 1 transformation: all mobile-agent protocols must
// stay correct when executed as messages in an anonymous processor network
// (Theorem 2.1's reduction, RunConfig::message_passing), and the message
// accounting must line up with the mobile model's move accounting.
#include <gtest/gtest.h>

#include <memory>

#include "qelect/core/analysis.hpp"
#include "qelect/core/baselines.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/gather.hpp"
#include "qelect/core/petersen.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::sim {
namespace {

using graph::Placement;

/// `config` in the message-passing reading.
RunConfig messages(RunConfig config = {}) {
  config.message_passing = true;
  return config;
}

TEST(MessageWorld, SingleWalkerDeliversEveryMove) {
  World w(graph::ring(6), Placement(6, {0}), 3);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        for (int i = 0; i < 12; ++i) co_await ctx.move(0);
        ctx.declare_leader();
      },
      messages());
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.total_moves, 12u);
  EXPECT_EQ(r.messages_delivered, 12u);
  EXPECT_EQ(r.agents[0].final_position, 0u);
  EXPECT_EQ(r.max_in_transit, 1u);
}

TEST(MessageWorld, TransitIsObservableByOthers) {
  // While agent A is in flight, agent B can see A's sign is absent at the
  // destination -- transit genuinely takes time under RoundRobin.
  // (Indirect check: a two-agent ping-pong completes without deadlock and
  // the peak in-transit count reaches 2 under lockstep.)
  World w(graph::ring(4), Placement(4, {0, 2}), 5);
  RunConfig cfg = messages();
  cfg.policy = SchedulerPolicy::Lockstep;
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        for (int i = 0; i < 8; ++i) co_await ctx.move(0);
        ctx.declare_failure_detected();
      },
      cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.max_in_transit, 2u);
}

TEST(MessageWorld, ElectMatchesOracleUnderMessagePassing) {
  struct Inst {
    graph::Graph g;
    Placement p;
  };
  const std::vector<Inst> insts = {
      {graph::ring(6), Placement(6, {0, 2})},
      {graph::ring(6), Placement(6, {0, 3})},
      {graph::ring(5), Placement(5, {0, 1})},
      {graph::hypercube(3), Placement(8, {0, 3, 5})},
      {graph::hypercube(3), Placement(8, {0, 7})},
  };
  for (const auto& inst : insts) {
    const auto plan = core::protocol_plan(inst.g, inst.p);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      World w(inst.g, inst.p, seed * 10 + 1);
      RunConfig cfg = messages();
      cfg.seed = seed;
      const RunResult r = w.run(core::make_elect_protocol(), cfg);
      ASSERT_TRUE(r.completed) << inst.g.describe();
      EXPECT_EQ(r.clean_election(), plan.final_gcd == 1);
      EXPECT_EQ(r.clean_failure(), plan.final_gcd != 1);
      EXPECT_EQ(r.messages_delivered, r.total_moves);
    }
  }
}

TEST(MessageWorld, GatherStillConverges) {
  const graph::Graph g = graph::torus({3, 3});
  const Placement p(9, {0, 4});
  ASSERT_EQ(core::protocol_plan(g, p).final_gcd, 1u);
  World w(g, p, 7);
  const RunResult r = w.run(core::make_gather_protocol(), messages());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.clean_election());
  EXPECT_EQ(r.agents[0].final_position, r.agents[1].final_position);
}

TEST(MessageWorld, PetersenRaceStillElects) {
  World w(graph::petersen(), Placement(10, {0, 5}), 9);
  const RunResult r = w.run(core::make_petersen_protocol(), messages());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.clean_election());
}

TEST(MessageWorld, QuantitativeBaselineWorks) {
  World w = World::quantitative(graph::ring(6), Placement(6, {0, 3}), 11);
  const RunResult r = w.run(core::make_quantitative_protocol(), messages());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.clean_election());
}

TEST(MessageWorld, DeadlockDetectedWithNoTransit) {
  World w(graph::ring(4), Placement(4, {0}), 2);
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        co_await ctx.wait_until(
            [](const Whiteboard& wb) { return wb.count_tag(999) > 0; });
      },
      messages());
  EXPECT_TRUE(r.deadlock);
}

TEST(MessageWorld, StepLimitRespected) {
  World w(graph::ring(4), Placement(4, {0}), 2);
  RunConfig cfg = messages();
  cfg.max_steps = 9;
  const RunResult r = w.run(
      [](AgentCtx& ctx) -> Behavior {
        for (;;) co_await ctx.move(0);
      },
      cfg);
  EXPECT_TRUE(r.step_limit);
  EXPECT_EQ(r.steps, 9u);
}

TEST(MessageWorld, BadPortThrows) {
  World w(graph::ring(4), Placement(4, {0}), 2);
  EXPECT_THROW(w.run(
                   [](AgentCtx& ctx) -> Behavior {
                     co_await ctx.move(7);
                   },
                   messages()),
               CheckError);
}

TEST(MessageWorld, MobileAndMessageModelsAgreeOnOutcome) {
  // The transformation preserves protocol semantics: on a batch of seeds,
  // the mobile and the message-passing readings agree on the election
  // outcome (they need not agree on traces -- transit reorders
  // interleavings).
  const graph::Graph g = graph::ring(6);
  const Placement p(6, {0, 2});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    World mobile(g, p, seed);
    RunConfig cfg;
    cfg.seed = seed;
    const RunResult a = mobile.run(core::make_elect_protocol(), cfg);
    World network(g, p, seed);
    const RunResult b = network.run(core::make_elect_protocol(), messages(cfg));
    ASSERT_TRUE(a.completed && b.completed);
    EXPECT_EQ(a.clean_election(), b.clean_election());
  }
}

}  // namespace
}  // namespace qelect::sim
