// World reuse and the campaign WorldPool (PR 5).
//
// The batched run engine's whole premise is that World::reset(seed) followed
// by run() is observationally identical to constructing a fresh World:
// same event stream, same per-agent reports, same totals, under every
// scheduler policy including exact Replay.  The first half of this file
// holds the runtime to that, deliberately dirtying a World (different
// seed, different policy, different run) before reusing it.  The second
// half covers the pool itself: structural keying, hit/reset semantics,
// seed retargeting, and LRU eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "qelect/campaign/world_pool.hpp"
#include "qelect/core/baselines.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/fault/plan.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/schedule.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"

namespace qelect {
namespace {

using graph::Graph;
using graph::Placement;

// Everything an external observer can see of a run: the full event stream
// plus the final result.  Colors compare by equality and minting is
// deterministic in the seed, so AgentReport == AgentReport is meaningful
// across distinct World objects built from the same seed.
struct Observed {
  std::vector<trace::TraceEvent> events;
  sim::RunResult result;
  std::string error;  // a fault-stopped run's CheckError
};

Observed traced_run(sim::World& w, const sim::Protocol& protocol,
                    sim::RunConfig config) {
  trace::VectorSink sink;
  config.sink = &sink;
  Observed obs;
  obs.result = w.run(protocol, config);
  obs.events = sink.events();
  return obs;
}

// compare_run_results covers every RunResult field: flags, totals, the
// fault log, the message counters and the per-agent reports.
void expect_identical(const Observed& fresh, const Observed& reused) {
  EXPECT_EQ(fresh.events, reused.events);
  EXPECT_EQ(sim::compare_run_results(fresh.result, reused.result), "");
  EXPECT_EQ(fresh.error, reused.error);
}

sim::RunConfig config_for(sim::SchedulerPolicy policy, std::uint64_t seed) {
  sim::RunConfig config;
  config.policy = policy;
  config.seed = seed;
  return config;
}

/// `config` in the message-passing reading.
sim::RunConfig messages(sim::RunConfig config) {
  config.message_passing = true;
  return config;
}

struct PolicyCase {
  const char* name;
  sim::SchedulerPolicy policy;
  std::uint64_t seed;
};

const std::vector<PolicyCase>& policy_cases() {
  static const std::vector<PolicyCase> all = {
      {"random/s=1", sim::SchedulerPolicy::Random, 1},
      {"random/s=7", sim::SchedulerPolicy::Random, 7},
      {"round-robin", sim::SchedulerPolicy::RoundRobin, 1},
      {"lockstep", sim::SchedulerPolicy::Lockstep, 1},
  };
  return all;
}

TEST(WorldReset, ReusedWorldMatchesFreshAcrossPolicies) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const sim::Protocol elect = core::make_elect_protocol();

  for (const PolicyCase& pc : policy_cases()) {
    SCOPED_TRACE(pc.name);
    sim::World fresh(g, p, 11);
    const Observed want =
        traced_run(fresh, elect, config_for(pc.policy, pc.seed));

    // Dirty a World thoroughly -- other color seed, other scheduler --
    // then retarget it at the fresh World's configuration.
    sim::World reused(g, p, 3);
    traced_run(reused, elect, config_for(sim::SchedulerPolicy::Random, 99));
    reused.reset(11);
    const Observed got =
        traced_run(reused, elect, config_for(pc.policy, pc.seed));
    expect_identical(want, got);
  }
}

TEST(WorldReset, ReusedWorldMatchesFreshUnderReplay) {
  const Graph g = graph::hypercube(3);
  const Placement p(8, {0, 7});
  const sim::Protocol elect = core::make_elect_protocol();

  // Record a schedule from a fresh random run.
  trace::ScheduleRecorder recorder;
  sim::RunConfig record = config_for(sim::SchedulerPolicy::Random, 5);
  record.sink = &recorder;
  sim::World recorded(g, p, 5);
  const auto base = recorded.run(elect, record);
  ASSERT_TRUE(base.completed);
  const trace::Schedule schedule = recorder.take();

  sim::RunConfig replay = config_for(sim::SchedulerPolicy::Replay, 5);
  replay.replay = &schedule;

  sim::World fresh(g, p, 5);
  const Observed want = traced_run(fresh, elect, replay);

  sim::World reused(g, p, 42);
  traced_run(reused, elect, config_for(sim::SchedulerPolicy::Lockstep, 1));
  reused.reset(5);
  const Observed got = traced_run(reused, elect, replay);
  expect_identical(want, got);
  EXPECT_EQ(want.result.steps, base.steps);
}

TEST(WorldReset, QuantitativeWorldKeepsLabelsAcrossReset) {
  const Graph g = graph::ring(5);
  const Placement p(5, {0, 2});
  const sim::Protocol quant = core::make_quantitative_protocol();
  const sim::RunConfig config = config_for(sim::SchedulerPolicy::Random, 1);

  sim::World fresh = sim::World::quantitative(g, p, 9);
  const Observed want = traced_run(fresh, quant, config);
  ASSERT_TRUE(want.result.clean_election());

  sim::World reused = sim::World::quantitative(g, p, 2);
  traced_run(reused, quant, config);
  reused.reset(9);
  const Observed got = traced_run(reused, quant, config);
  expect_identical(want, got);
}

TEST(WorldReset, MessageWorldReusedMatchesFreshAcrossPolicies) {
  // Reset parity in the message-passing reading, the pooled-reuse premise,
  // under every scheduler policy -- on a World a mobile run dirtied first,
  // as the pool's Worlds are when a campaign mixes the two readings.
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const sim::Protocol elect = core::make_elect_protocol();

  for (const PolicyCase& pc : policy_cases()) {
    SCOPED_TRACE(pc.name);
    const sim::RunConfig config = messages(config_for(pc.policy, pc.seed));
    sim::World fresh(g, p, 11);
    const Observed want = traced_run(fresh, elect, config);

    sim::World reused(g, p, 3);
    traced_run(reused, elect, config_for(sim::SchedulerPolicy::Random, 99));
    reused.reset(11);
    const Observed got = traced_run(reused, elect, config);
    expect_identical(want, got);
  }
}

TEST(WorldReset, FaultedWorldsResetCleanAcrossPolicies) {
  // With a FaultPlan attached, reset ≡ fresh must still hold -- both ways:
  // a faulted run after reset matches a faulted run on a fresh world, and
  // dirtying a world with a faulty run leaves no residue behind reset.
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const sim::Protocol elect = core::make_elect_protocol();
  fault::FaultPlan plan;
  plan.fault_seed = 0xfa11;
  plan.crash_rate = 0.03;
  plan.sign_loss_rate = 0.03;
  plan.edge_cut_rate = 0.03;

  for (const PolicyCase& pc : policy_cases()) {
    SCOPED_TRACE(pc.name);
    sim::RunConfig faulted = config_for(pc.policy, pc.seed);
    faulted.faults = &plan;

    sim::World fresh(g, p, 11);
    const Observed want = traced_run(fresh, elect, faulted);

    sim::World reused(g, p, 3);
    traced_run(reused, elect, faulted);  // dirty with a *faulty* run
    reused.reset(11);
    const Observed got = traced_run(reused, elect, faulted);
    expect_identical(want, got);
    EXPECT_EQ(want.result.fault_summary, got.result.fault_summary);
    EXPECT_EQ(want.result.fault_events, got.result.fault_events);

    // And a fault-free run after a faulty one sees no residue at all.
    reused.reset(11);
    const Observed clean =
        traced_run(reused, elect, config_for(pc.policy, pc.seed));
    sim::World control(g, p, 11);
    const Observed fresh_clean =
        traced_run(control, elect, config_for(pc.policy, pc.seed));
    expect_identical(fresh_clean, clean);
  }
}

TEST(WorldReset, FaultedMessageWorldResetsCleanAcrossPolicies) {
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 3});
  const sim::Protocol elect = core::make_elect_protocol();
  fault::FaultPlan plan;
  plan.fault_seed = 0xfa12;
  plan.msg_loss_rate = 0.03;
  plan.msg_delay_rate = 0.03;

  for (const PolicyCase& pc : policy_cases()) {
    SCOPED_TRACE(pc.name);
    sim::RunConfig faulted = messages(config_for(pc.policy, pc.seed));
    faulted.faults = &plan;

    sim::World fresh(g, p, 11);
    const Observed want = traced_run(fresh, elect, faulted);

    sim::World reused(g, p, 3);
    traced_run(reused, elect, faulted);
    reused.reset(11);
    const Observed got = traced_run(reused, elect, faulted);
    expect_identical(want, got);
  }
}

TEST(WorldReset, MessageWorldReusedMatchesFresh) {
  const Graph g = graph::ring(4);
  const Placement p(4, {0, 2});
  const sim::Protocol elect = core::make_elect_protocol();
  const sim::RunConfig config =
      messages(config_for(sim::SchedulerPolicy::Random, 3));

  sim::World fresh(g, p, 13);
  const Observed want = traced_run(fresh, elect, config);

  sim::World reused(g, p, 4);
  traced_run(reused, elect, config);
  reused.reset(13);
  const Observed got = traced_run(reused, elect, config);
  expect_identical(want, got);
}

TEST(WorldReset, OneWorldAlternatesReadingsWithoutResidue) {
  // A pooled World serves every fault point of its instance, so it
  // switches readings from task to task: no run may see what the one
  // before it left behind, whichever reading either of them ran in.
  const Graph g = graph::ring(6);
  const Placement p(6, {0, 2});
  const sim::Protocol elect = core::make_elect_protocol();
  fault::FaultPlan edge_plan;
  edge_plan.fault_seed = 0xed6e;
  edge_plan.edge_cut_rate = 0.1;
  fault::FaultPlan message_plan;
  message_plan.fault_seed = 0x3e55;
  message_plan.msg_loss_rate = 0.02;
  message_plan.msg_dup_rate = 0.05;
  message_plan.msg_delay_rate = 0.05;
  struct Reading {
    const char* name;
    bool message_passing;
    const fault::FaultPlan* faults;
  };
  const Reading readings[] = {
      {"mobile", false, nullptr},
      {"mobile/edge-faults", false, &edge_plan},
      {"message", true, nullptr},
      {"message/message-faults", true, &message_plan},
      {"message/edge-faults", true, &edge_plan},
  };

  // Edge cuts can stop ELECT with a CheckError mid-run, leaving agents
  // parked and messages in flight: the next run must not see those either.
  const auto run = [&](sim::World& w, const sim::RunConfig& config) {
    Observed obs;
    trace::VectorSink sink;
    sim::RunConfig traced = config;
    traced.sink = &sink;
    try {
      obs.result = w.run(elect, traced);
    } catch (const CheckError& e) {
      obs.error = e.what();
    }
    obs.events = sink.events();
    return obs;
  };

  sim::World reused(g, p, 11);
  for (int pass = 0; pass < 2; ++pass) {
    for (const Reading& reading : readings) {
      SCOPED_TRACE(std::string(reading.name) + " pass " +
                   std::to_string(pass));
      sim::RunConfig config = config_for(sim::SchedulerPolicy::Random, 5);
      config.message_passing = reading.message_passing;
      config.faults = reading.faults;
      sim::World fresh(g, p, 11);
      const Observed want = run(fresh, config);
      const Observed got = run(reused, config);
      expect_identical(want, got);
      if (reading.faults != nullptr) {
        EXPECT_TRUE(!got.error.empty() || got.result.fault_summary.total > 0);
      }
      const bool sent = std::any_of(
          got.events.begin(), got.events.end(), [](const auto& e) {
            return e.kind == trace::TraceEvent::Kind::Send;
          });
      EXPECT_EQ(sent, reading.message_passing);
    }
  }
}

// ---- the pool -----------------------------------------------------------

campaign::TaskSpec elect_task(std::vector<std::size_t> ring_params,
                              std::uint64_t seed) {
  campaign::TaskSpec task;
  task.key = "test";
  task.workload = "elect";
  task.graph = campaign::GraphRef{"ring", std::move(ring_params)};
  task.home_bases = {0, 2};
  task.color_seed = seed;
  return task;
}

TEST(WorldPool, HitsReuseTheSameWorldObject) {
  campaign::WorldPool pool(4);
  sim::World& a = pool.acquire(elect_task({6}, 1), false);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);

  sim::World& b = pool.acquire(elect_task({6}, 1), false);
  EXPECT_EQ(&a, &b);  // same arena, reset in place
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().entries, 1u);

  // Different structure -> different entry.
  sim::World& c = pool.acquire(elect_task({8}, 1), false);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(pool.stats().misses, 2u);

  // Same graph and placement but quantitative -> distinct entry (labels
  // differ observationally).
  sim::World& q = pool.acquire(elect_task({6}, 1), true);
  EXPECT_NE(&a, &q);
  EXPECT_EQ(q.agent_colors().size(), 2u);
  EXPECT_EQ(pool.stats().entries, 3u);
}

TEST(WorldPool, HitRetargetsColorSeed) {
  campaign::WorldPool pool(4);
  sim::World& a = pool.acquire(elect_task({6}, 1), false);
  const std::vector<sim::Color> colors_s1 = a.agent_colors();

  sim::World& b = pool.acquire(elect_task({6}, 2), false);
  ASSERT_EQ(&a, &b);
  EXPECT_EQ(b.color_seed(), 2u);
  EXPECT_NE(b.agent_colors(), colors_s1);  // re-minted for the new seed

  sim::World& c = pool.acquire(elect_task({6}, 1), false);
  EXPECT_EQ(c.agent_colors(), colors_s1);  // deterministic in the seed
}

TEST(WorldPool, PooledRunMatchesFreshWorld) {
  const campaign::TaskSpec task = elect_task({6}, 11);
  const sim::Protocol elect = core::make_elect_protocol();
  const sim::RunConfig config = config_for(sim::SchedulerPolicy::Random, 11);

  sim::World fresh(graph::ring(6), Placement(6, {0, 2}), 11);
  const Observed want = traced_run(fresh, elect, config);

  campaign::WorldPool pool(4);
  // First acquisition (miss) and a run to dirty the arena...
  traced_run(pool.acquire(task, false), elect, config);
  // ...then the pooled re-acquisition must be observationally fresh.
  const Observed got = traced_run(pool.acquire(task, false), elect, config);
  ASSERT_EQ(pool.stats().hits, 1u);
  expect_identical(want, got);
}

TEST(WorldPool, EvictsLeastRecentlyUsedAtCapacity) {
  campaign::WorldPool pool(2);
  pool.acquire(elect_task({5}, 1), false);
  pool.acquire(elect_task({6}, 1), false);
  pool.acquire(elect_task({5}, 1), false);  // touch ring(5): ring(6) is LRU
  EXPECT_EQ(pool.stats().entries, 2u);

  pool.acquire(elect_task({7}, 1), false);  // evicts ring(6)
  EXPECT_EQ(pool.stats().entries, 2u);
  pool.acquire(elect_task({5}, 1), false);
  EXPECT_EQ(pool.stats().hits, 2u);

  const std::size_t misses_before = pool.stats().misses;
  pool.acquire(elect_task({6}, 1), false);  // was evicted: a miss again
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(WorldPool, StatsSnapshotTracksHitsMissesEvictions) {
  // The qelectd STATS opcode exports exactly this snapshot per worker
  // shard, so its accounting is part of the serving contract.
  campaign::WorldPool pool(2);
  auto s = pool.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.hits + s.misses + s.evictions, 0u);

  pool.acquire(elect_task({5}, 1), false);   // miss
  pool.acquire(elect_task({5}, 2), false);   // hit (seed retarget)
  pool.acquire(elect_task({6}, 1), false);   // miss, pool full
  pool.acquire(elect_task({7}, 1), false);   // miss + eviction of ring(5)
  s = pool.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.compiles, 3u);  // one World built per miss

  pool.acquire(elect_task({5}, 1), false);  // evicted shape: miss + evict
  s = pool.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
}

TEST(WorldPool, LocalPoolIsPerThread) {
  campaign::WorldPool& a = campaign::WorldPool::local();
  campaign::WorldPool& b = campaign::WorldPool::local();
  EXPECT_EQ(&a, &b);
}

TEST(WorldPool, ThreadExitFreesThePooledWorldsLastFrames) {
  // The worker's pool exists before its first coroutine frame creates the
  // frame freelists, so at thread exit the pooled World frees its last
  // run's frames after the freelists are gone.  Under LeakSanitizer this
  // test fails if those frames do not reach operator delete.
  bool elected = false;
  std::thread worker([&elected] {
    sim::World& w =
        campaign::WorldPool::local().acquire(elect_task({7}, 3), false);
    elected = w.run(core::make_elect_protocol(),
                    config_for(sim::SchedulerPolicy::Random, 3))
                  .clean_election();
  });
  worker.join();
  EXPECT_TRUE(elected);
}

}  // namespace
}  // namespace qelect
