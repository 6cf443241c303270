// Golden gate for the batch backend: a replica configured (seed, replica)
// must produce a RunResult identical field-for-field to the scalar World
// run with the same RunConfig, across every scheduler policy the batch
// engine supports.  This is the contract campaign slabs and serve bursts
// rely on when they substitute batch execution for scalar runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "qelect/campaign/batch.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/elect_batch.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/batch.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/scheduler.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::core {
namespace {

using graph::Placement;
using sim::BatchConfig;
using sim::BatchReplicaConfig;
using sim::RunConfig;
using sim::RunResult;
using sim::SchedulerPolicy;
using sim::World;

struct Instance {
  std::string name;
  graph::Graph g;
  Placement p;
};

std::vector<Instance> parity_instances() {
  std::vector<Instance> out;
  out.push_back({"ring5-single", graph::ring(5), Placement(5, {2})});
  out.push_back({"ring5-two-black-classes", graph::ring(5),
                 Placement(5, {0, 1, 3})});
  out.push_back({"ring6-gcd1", graph::ring(6), Placement(6, {0, 2})});
  out.push_back({"ring6-antipodal", graph::ring(6), Placement(6, {0, 3})});
  out.push_back({"cube-mixed", graph::hypercube(3), Placement(8, {0, 3, 5})});
  out.push_back({"torus33-pair", graph::torus({3, 3}), Placement(9, {0, 4})});
  // About 390 steps per run: longer than one kBatchStride.
  out.push_back({"torus44-triple", graph::torus({4, 4}),
                 Placement(16, {0, 1, 5})});
  out.push_back({"star-center-leaf", graph::star(4), Placement(5, {0, 1})});
  out.push_back({"petersen-adjacent", graph::petersen(),
                 Placement(10, {0, 5})});
  return out;
}

RunResult scalar_run(const Instance& inst, SchedulerPolicy policy,
                     std::uint64_t seed, std::uint64_t replica) {
  // The batch replica seed plays both the color_seed and scheduler seed
  // roles, so the comparable scalar run reuses it for both.
  World w(inst.g, inst.p, /*color_seed=*/seed);
  RunConfig cfg;
  cfg.policy = policy;
  cfg.seed = seed;
  cfg.replica = replica;
  return w.run(make_elect_protocol(), cfg);
}

void expect_same_result(const RunResult& batch, const RunResult& scalar,
                        const std::string& label) {
  EXPECT_EQ(batch.completed, scalar.completed) << label;
  EXPECT_EQ(batch.deadlock, scalar.deadlock) << label;
  EXPECT_EQ(batch.step_limit, scalar.step_limit) << label;
  EXPECT_EQ(batch.steps, scalar.steps) << label;
  EXPECT_EQ(batch.total_moves, scalar.total_moves) << label;
  EXPECT_EQ(batch.total_board_accesses, scalar.total_board_accesses) << label;
  ASSERT_EQ(batch.agents.size(), scalar.agents.size()) << label;
  for (std::size_t i = 0; i < batch.agents.size(); ++i) {
    EXPECT_EQ(batch.agents[i], scalar.agents[i])
        << label << " agent " << i;
  }
}

TEST(Batch, MatchesScalarAcrossPoliciesInstancesAndSeeds) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 41};
  std::size_t longest_run = 0;
  for (const Instance& inst : parity_instances()) {
    const auto plan = compile_elect_batch_plan(inst.g, inst.p);
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::Random, SchedulerPolicy::RoundRobin,
          SchedulerPolicy::Lockstep, SchedulerPolicy::Counter}) {
      // All seeds as one batch: exercises the slab path, not just N=1.
      std::vector<BatchReplicaConfig> replicas;
      for (const std::uint64_t seed : seeds) replicas.push_back({seed, 0});
      BatchConfig cfg;
      cfg.policy = policy;
      const ElectBatchOutcome out = run_elect_batch(plan, replicas, cfg);
      ASSERT_EQ(out.runs.size(), seeds.size());
      for (std::size_t rep = 0; rep < seeds.size(); ++rep) {
        ASSERT_FALSE(out.failed[rep]) << inst.name << " " << out.errors[rep];
        const RunResult scalar = scalar_run(inst, policy, seeds[rep], 0);
        expect_same_result(out.runs[rep], scalar,
                           inst.name + "/" + sim::policy_name(policy) +
                               "/seed" + std::to_string(seeds[rep]));
        longest_run = std::max(longest_run, out.runs[rep].steps);
      }
    }
  }
  // A replica that outlasts one stride is rotated out mid-run, so these
  // slabs interleave replicas and still match their solo scalar runs.
  EXPECT_GT(longest_run, sim::kBatchStride);
}

TEST(Batch, CounterReplicaStreamsMatchScalarPerReplica) {
  // One seed, many replica ids: the serve burst shape.  Every replica must
  // reproduce the scalar run keyed (seed, replica) bit-for-bit, and the
  // streams must actually differ from one another.
  const Instance inst = {"ring5-two-black-classes", graph::ring(5),
                         Placement(5, {0, 1, 3})};
  const auto plan = compile_elect_batch_plan(inst.g, inst.p);
  const std::uint64_t seed = 7;
  constexpr std::size_t kReplicas = 8;
  std::vector<BatchReplicaConfig> replicas;
  for (std::size_t i = 0; i < kReplicas; ++i) replicas.push_back({seed, i});
  BatchConfig cfg;
  cfg.policy = SchedulerPolicy::Counter;
  const ElectBatchOutcome out = run_elect_batch(plan, replicas, cfg);
  bool any_stream_differs = false;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    ASSERT_FALSE(out.failed[i]) << out.errors[i];
    const RunResult scalar =
        scalar_run(inst, SchedulerPolicy::Counter, seed, i);
    expect_same_result(out.runs[i], scalar, "replica " + std::to_string(i));
    if (i > 0 && out.runs[i].steps != out.runs[0].steps) {
      any_stream_differs = true;
    }
  }
  EXPECT_TRUE(any_stream_differs)
      << "all " << kReplicas << " replica streams produced identical step "
      << "counts; Philox stream keying is suspect";
}

TEST(Batch, StepLimitMatchesScalar) {
  // Truncated runs must agree too (campaign tasks carry max_steps).
  const Instance inst = {"ring6-gcd1", graph::ring(6), Placement(6, {0, 2})};
  const auto plan = compile_elect_batch_plan(inst.g, inst.p);
  for (const std::size_t max_steps : {1ul, 17ul, 100ul, 1000ul}) {
    std::vector<BatchReplicaConfig> replicas = {{5, 0}};
    BatchConfig cfg;
    cfg.policy = SchedulerPolicy::Random;
    cfg.max_steps = max_steps;
    const ElectBatchOutcome out = run_elect_batch(plan, replicas, cfg);
    ASSERT_FALSE(out.failed[0]) << out.errors[0];

    World w(inst.g, inst.p, 5);
    RunConfig scfg;
    scfg.policy = SchedulerPolicy::Random;
    scfg.seed = 5;
    scfg.max_steps = max_steps;
    const RunResult scalar = w.run(make_elect_protocol(), scfg);
    expect_same_result(out.runs[0], scalar,
                       "max_steps=" + std::to_string(max_steps));
  }
}

TEST(Batch, PlanIsReusableAcrossRuns) {
  const Instance inst = {"ring5-two-black-classes", graph::ring(5),
                        Placement(5, {0, 1, 3})};
  const auto plan = compile_elect_batch_plan(inst.g, inst.p);
  BatchConfig cfg;
  cfg.policy = SchedulerPolicy::Counter;
  const ElectBatchOutcome first = run_elect_batch(plan, {{9, 0}}, cfg);
  const ElectBatchOutcome second = run_elect_batch(plan, {{9, 0}}, cfg);
  ASSERT_FALSE(first.failed[0]);
  ASSERT_FALSE(second.failed[0]);
  expect_same_result(first.runs[0], second.runs[0], "plan reuse");
}

// One thread's runner is re-targeted at whatever plan each slab brings:
// node, agent and replica counts grow and shrink from slab to slab, and
// seeds repeat within and across slabs.  Every replica must equal a fresh
// runner's run of the same slab.
TEST(Batch, RetargetedRunnerMatchesFreshRunners) {
  const std::vector<Instance> instances = {
      {"ring6-pair", graph::ring(6), Placement(6, {0, 2})},
      {"torus44-triple", graph::torus({4, 4}), Placement(16, {0, 1, 5})},
      {"cube-triple", graph::hypercube(3), Placement(8, {0, 3, 5})},
      {"ring5-pair", graph::ring(5), Placement(5, {0, 1})},
  };
  std::vector<std::shared_ptr<const ElectBatchPlan>> plans;
  for (const Instance& inst : instances) {
    plans.push_back(compile_elect_batch_plan(inst.g, inst.p));
  }
  // Up through the instances, then back down: each slab's instance
  // differs from the last one's.
  const std::vector<std::size_t> order = {0, 1, 2, 3, 2, 1, 0, 3, 0};
  const std::vector<std::vector<std::uint64_t>> seed_sets = {
      {1, 2, 3}, {4, 4, 5, 6, 7}, {1, 2}, {8, 8, 8, 9}};
  std::size_t slab = 0;
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::Random, SchedulerPolicy::RoundRobin,
        SchedulerPolicy::Lockstep, SchedulerPolicy::Counter}) {
    BatchConfig cfg;
    cfg.policy = policy;
    for (const std::size_t which : order) {
      std::vector<BatchReplicaConfig> replicas;
      for (const std::uint64_t seed : seed_sets[slab % seed_sets.size()]) {
        replicas.push_back({seed, replicas.size()});
      }
      ++slab;
      const ElectBatchOutcome reused =
          run_elect_batch(plans[which], replicas, cfg);
      const ElectBatchOutcome fresh =
          ElectBatchRunner().run(*plans[which], replicas, cfg);
      ASSERT_EQ(reused.runs.size(), replicas.size());
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        const std::string label = instances[which].name + "/" +
                                  sim::policy_name(policy) + "/slab" +
                                  std::to_string(slab) + "/replica" +
                                  std::to_string(i);
        ASSERT_FALSE(reused.failed[i]) << label << " " << reused.errors[i];
        ASSERT_FALSE(fresh.failed[i]) << label << " " << fresh.errors[i];
        EXPECT_EQ(sim::compare_run_results(reused.runs[i], fresh.runs[i]),
                  "")
            << label;
      }
    }
  }
}

TEST(Batch, CompiledPlanAgreesWithOracle) {
  for (const Instance& inst : parity_instances()) {
    const auto plan = compile_elect_batch_plan(inst.g, inst.p);
    const ProtocolClassPlan oracle = protocol_plan(inst.g, inst.p);
    EXPECT_EQ(plan->final_gcd, oracle.final_gcd) << inst.name;
    EXPECT_EQ(plan->agent_count, inst.p.agent_count()) << inst.name;
  }
}

TEST(Batch, CounterScheduleIsStatelesslyReconstructible) {
  // The Counter policy's defining property: pick i of a run keyed
  // (seed, replica) is enabled[bounded_draw(Philox(seed, replica).at(i),
  // |enabled|)] -- no stream replay needed.  Drive the real Scheduler
  // through a shifting enabled set and reconstruct every draw from
  // scratch.
  const std::uint64_t seed = 2026, replica = 5;
  RunConfig cfg;
  cfg.policy = SchedulerPolicy::Counter;
  cfg.seed = seed;
  cfg.replica = replica;
  sim::Scheduler sched(cfg, /*agent_count=*/6);
  std::vector<std::size_t> enabled = {0, 1, 2, 3, 4, 5};
  const Philox4x32 stream(seed, replica);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::size_t picked = sched.pick(enabled);
    const std::size_t reconstructed =
        enabled[bounded_draw(stream.at(i), enabled.size())];
    ASSERT_EQ(picked, reconstructed) << "draw " << i;
    // Shrink and regrow the enabled set so bounds vary across draws.
    if (enabled.size() > 2 && i % 3 == 0) {
      enabled.erase(enabled.begin() + static_cast<std::ptrdiff_t>(i % enabled.size()));
    } else if (enabled.size() < 6 && i % 5 == 0) {
      enabled.insert(enabled.begin(), 0);
      for (std::size_t k = 0; k < enabled.size(); ++k) enabled[k] = k;
    }
  }
}

TEST(Batch, RejectsReplayPolicy) {
  const Instance inst = {"ring5-single", graph::ring(5), Placement(5, {2})};
  const auto plan = compile_elect_batch_plan(inst.g, inst.p);
  BatchConfig cfg;
  cfg.policy = SchedulerPolicy::Replay;
  EXPECT_THROW(run_elect_batch(plan, {{1, 0}}, cfg), qelect::CheckError);
}

// A replica the batch model refuses is re-run on the scalar World.  With
// agent 0's first tape move sent through port 1000, which no ring node
// has, BatchWorld fails every replica; campaign::run_elect_replicas must
// still return each (seed, replica)'s scalar run and count one fallback
// per replica.
TEST(Batch, FailedReplicasAreReRunOnTheScalarWorld) {
  const Instance inst = {"ring6-gcd1", graph::ring(6), Placement(6, {0, 2})};
  auto patched = std::make_shared<ElectBatchPlan>(
      *compile_elect_batch_plan(inst.g, inst.p));
  auto& tape = patched->agents[0].tape_actions;
  const auto move = std::find_if(tape.begin(), tape.end(), [](const auto& a) {
    return a.kind == sim::BatchPending::Kind::Move;
  });
  ASSERT_NE(move, tape.end());
  move->port = 1000;
  const std::shared_ptr<const ElectBatchPlan> plan = patched;

  const std::vector<BatchReplicaConfig> replicas = {{7, 0}, {7, 1}, {7, 2}};
  BatchConfig cfg;
  cfg.policy = SchedulerPolicy::Counter;
  const ElectBatchOutcome outcome = run_elect_batch(plan, replicas, cfg);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    ASSERT_TRUE(outcome.failed[i]) << "replica " << i;
  }

  campaign::BatchStats& stats = campaign::batch_stats();
  const std::uint64_t fallbacks0 = stats.scalar_fallbacks.load();
  const std::vector<RunResult> runs =
      campaign::run_elect_replicas(plan, replicas, cfg);
  EXPECT_EQ(stats.scalar_fallbacks.load(), fallbacks0 + replicas.size());
  ASSERT_EQ(runs.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    EXPECT_EQ(sim::compare_run_results(
                  runs[i], scalar_run(inst, SchedulerPolicy::Counter, 7, i)),
              "")
        << "replica " << i;
  }
}

}  // namespace
}  // namespace qelect::core
