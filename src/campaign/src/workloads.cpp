#include "qelect/campaign/workloads.hpp"

#include <memory>

#include "qelect/campaign/world_pool.hpp"
#include "qelect/cayley/translation.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/baselines.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/petersen.hpp"
#include "qelect/fault/diagnosis.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/invariants.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/hash.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::campaign {

namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

sim::RunConfig run_config(const TaskSpec& task) {
  sim::RunConfig config;
  const auto policy = policy_from_name(task.scheduler);
  if (!policy) {
    throw CheckError("campaign: unknown scheduler '" + task.scheduler + "'");
  }
  config.policy = *policy;
  config.seed = task.color_seed;
  if (task.max_steps > 0) config.max_steps = task.max_steps;
  config.trace_label = task.key;
  return config;
}

/// The plan a task actually executes: the campaign-level plan with its
/// seed re-keyed by the task key, so every task draws independent Philox
/// streams while reruns and resume reproduce them exactly.
fault::FaultPlan derived_faults(const TaskSpec& task) {
  fault::FaultPlan plan = task.faults;
  plan.fault_seed = hash_combine(plan.fault_seed, util::fnv1a64(task.key));
  return plan;
}

/// Attaches `plan` to `config` when any of its axes is live.  A live
/// message axis selects the Figure 1 message-passing reading, the only one
/// with links to be lossy on; every other plan runs the mobile reading.
/// The caller keeps `plan` alive for the run.
void attach_faults(const fault::FaultPlan& plan, sim::RunConfig& config) {
  if (!plan.enabled()) return;
  config.faults = &plan;
  config.message_passing = plan.message_enabled();
}

Metrics run_elect(const TaskSpec& task, const CancelToken& cancel) {
  // Pooled: a shard sweeping seeds/schedulers over one instance reuses the
  // same arena (boards, colors, scheduler buffers) for every task.
  sim::World& w = WorldPool::local().acquire(task, /*quantitative=*/false);
  const graph::Graph& g = w.graph();
  const graph::Placement& p = w.placement();
  const auto plan = core::protocol_plan(g, p);
  cancel.throw_if_cancelled();
  sim::RunConfig config = run_config(task);
  const fault::FaultPlan fault_plan = derived_faults(task);
  attach_faults(fault_plan, config);
  return elect_metrics(g.node_count(), plan.final_gcd,
                       w.run(core::make_elect_protocol(), config));
}

Metrics run_quantitative(const TaskSpec& task) {
  sim::World& w = WorldPool::local().acquire(task, /*quantitative=*/true);
  const auto r = w.run(core::make_quantitative_protocol(), run_config(task));
  return {{"n", static_cast<double>(w.graph().node_count())},
          {"clean_election", r.clean_election() ? 1 : 0},
          {"moves", static_cast<double>(r.total_moves)}};
}

Metrics run_moves(const TaskSpec& task, const CancelToken& cancel) {
  cancel.throw_if_cancelled();
  sim::World& w = WorldPool::local().acquire(task, /*quantitative=*/false);
  const graph::Graph& g = w.graph();
  const graph::Placement& p = w.placement();
  sim::RunConfig config = run_config(task);
  const fault::FaultPlan fault_plan = derived_faults(task);
  attach_faults(fault_plan, config);
  const auto r = w.run(core::make_elect_protocol(), config);
  const std::uint64_t budget = core::theorem31_move_budget(g, p);
  return {{"n", static_cast<double>(g.node_count())},
          {"edges", static_cast<double>(g.edge_count())},
          {"agents", static_cast<double>(p.agent_count())},
          {"completed", r.completed ? 1 : 0},
          {"moves", static_cast<double>(r.total_moves)},
          {"budget", static_cast<double>(budget)},
          {"moves_per_budget",
           budget == 0 ? 0
                       : static_cast<double>(r.total_moves) /
                             static_cast<double>(budget)}};
}

// One degradation cell: run ELECT with the task's FaultPlan live, check
// the run's trace with the invariant checkers as it streams, and join the
// first violation against the fault log (which axis fired before the
// model broke).  The pooled World runs every point; message-axis points
// run in the Figure 1 message-passing reading (see attach_faults).
Metrics run_degradation(const TaskSpec& task, const CancelToken& cancel) {
  cancel.throw_if_cancelled();
  sim::World& w = WorldPool::local().acquire(task, /*quantitative=*/false);
  const graph::Graph& g = w.graph();
  const graph::Placement& p = w.placement();
  const std::uint64_t final_gcd = core::protocol_plan_shared(g, p)->final_gcd;
  const std::uint64_t budget = core::theorem31_move_budget(g, p);

  sim::RunConfig config = run_config(task);
  const fault::FaultPlan fault_plan = derived_faults(task);
  attach_faults(fault_plan, config);
  trace::InvariantSpec inv;
  inv.graph = &g;
  inv.home_bases = task.home_bases;
  // Certificate factor, not the measured ratio: fault-free ELECT runs at
  // ~2-4 r|E| units (see docs/TRACING.md), so 16 only fires on runs a
  // fault genuinely pushed out of the model; the measured inflation is
  // reported separately as move_inflation.
  inv.theorem31_factor = 16.0;
  trace::InvariantChecker checker(std::move(inv));
  config.sink = &checker;

  const sim::RunResult r = w.run(core::make_elect_protocol(), config);

  // "Correct" is the fault-tolerant oracle match: gcd-1 instances must
  // elect among the survivors, obstructed instances must have every
  // survivor detect failure (and someone must survive to say so).
  bool surviving_failure = r.completed;
  std::size_t survivors = 0;
  for (const auto& a : r.agents) {
    if (a.status == sim::AgentStatus::Crashed) continue;
    ++survivors;
    if (a.status != sim::AgentStatus::FailureDetected) {
      surviving_failure = false;
    }
  }
  surviving_failure = surviving_failure && survivors > 0;
  const bool correct =
      final_gcd == 1 ? r.surviving_election() : surviving_failure;

  const auto report = checker.finish();
  const auto fv = fault::diagnose_first_violation(report, r.fault_events);

  const auto& fs = r.fault_summary;
  return {{"n", static_cast<double>(g.node_count())},
          {"edges", static_cast<double>(g.edge_count())},
          {"agents", static_cast<double>(p.agent_count())},
          {"final_gcd", static_cast<double>(final_gcd)},
          {"completed", r.completed ? 1 : 0},
          {"correct", correct ? 1 : 0},
          {"crashed", static_cast<double>(r.crashed_count())},
          {"moves", static_cast<double>(r.total_moves)},
          {"budget", static_cast<double>(budget)},
          {"move_inflation",
           budget == 0 ? 0
                       : static_cast<double>(r.total_moves) /
                             static_cast<double>(budget)},
          {"faults_total", static_cast<double>(fs.total)},
          {"faults_crash",
           static_cast<double>(fs.by_axis(fault::FaultAxis::Crash))},
          {"faults_board",
           static_cast<double>(fs.by_axis(fault::FaultAxis::Board))},
          {"faults_message",
           static_cast<double>(fs.by_axis(fault::FaultAxis::Message))},
          {"faults_edge",
           static_cast<double>(fs.by_axis(fault::FaultAxis::Edge))},
          {"first_fault_kind",
           fs.any ? static_cast<double>(static_cast<int>(fs.first.kind)) : -1},
          {"first_fault_step",
           fs.any ? static_cast<double>(fs.first.step) : -1},
          {"violated", fv.violated ? 1 : 0},
          {"cause_kind",
           fv.caused_by_fault
               ? static_cast<double>(static_cast<int>(fv.cause.kind))
               : -1}};
}

// The Section 1.3 lockstep indistinguishability: one walker on C_3 vs two
// antipodal walkers on C_6 must observe identical histories.
Metrics run_anon_lockstep() {
  const std::size_t steps = 12;
  sim::RunConfig lockstep;
  lockstep.policy = sim::SchedulerPolicy::Lockstep;
  auto t3 = std::make_shared<core::WalkTraces>();
  sim::World w3(graph::ring(3), graph::Placement(3, {0}), 1);
  w3.run(core::make_anonymous_walker(t3, steps), lockstep);
  auto t6 = std::make_shared<core::WalkTraces>();
  sim::World w6(graph::ring(6), graph::Placement(6, {0, 3}), 2);
  w6.run(core::make_anonymous_walker(t6, steps), lockstep);
  const bool holds = (*t6)[0] == (*t3)[0] && (*t6)[1] == (*t3)[0];
  return {{"holds", holds ? 1 : 0}};
}

Metrics run_k2_exhaustive() {
  const bool impossible = core::impossibility_by_exhaustive_labelings(
      graph::complete(2), graph::Placement(2, {0, 1}), 2);
  return {{"impossible", impossible ? 1 : 0}};
}

Metrics run_cayley_dichotomy(const graph::Graph& g,
                             const graph::Placement& p) {
  const auto rec = core::recognize_cayley_shared(g);
  const auto plan = core::protocol_plan(g, p);
  Metrics out{{"final_gcd", static_cast<double>(plan.final_gcd)},
              {"is_cayley", rec->is_cayley ? 1 : 0}};
  if (rec->is_cayley) {
    const std::size_t obstruction =
        cayley::max_translation_obstruction(rec->regular_subgroups, p);
    out.emplace_back("obstruction", static_cast<double>(obstruction));
    out.emplace_back("agrees",
                     (plan.final_gcd > 1) == (obstruction > 1) ? 1 : 0);
  }
  return out;
}

Metrics run_petersen_witness(const TaskSpec& task) {
  // One pooled arena serves both runs: run() fully resets between them.
  sim::World& w = WorldPool::local().acquire(task, /*quantitative=*/false);
  const auto plan = core::protocol_plan(w.graph(), w.placement());
  const auto relect = w.run(core::make_elect_protocol(), run_config(task));
  const auto radhoc = w.run(core::make_petersen_protocol(), run_config(task));
  return {{"final_gcd", static_cast<double>(plan.final_gcd)},
          {"elect_fails", relect.clean_failure() ? 1 : 0},
          {"adhoc_elects", radhoc.clean_election() ? 1 : 0}};
}

}  // namespace

Classification classify(const graph::Graph& g, const graph::Placement& p,
                        double labeling_budget, const CancelToken& cancel) {
  Classification out;
  out.final_gcd = core::final_gcd(g, p);
  if (out.final_gcd == 1) return out;
  cancel.throw_if_cancelled();
  // Recognition only runs on obstructed instances, and once per graph: in
  // the landscape sweep the gcd-1 majority never pays for it.
  const auto rec = core::recognize_cayley_shared(g);
  out.is_cayley = rec->is_cayley;
  if (out.is_cayley) {
    out.obstruction =
        cayley::max_translation_obstruction(rec->regular_subgroups, p);
    out.code = out.obstruction > 1 ? kClassImpossCayley : kClassViolation;
    return out;
  }
  cancel.throw_if_cancelled();
  const std::size_t alphabet = g.max_degree();
  out.code = labeling_count(g, alphabet) <= labeling_budget &&
                     core::impossibility_by_exhaustive_labelings(g, p,
                                                                 alphabet)
                 ? kClassImpossLabeling
                 : kClassOpen;
  return out;
}

std::optional<sim::SchedulerPolicy> policy_from_name(const std::string& name) {
  if (name == "random") return sim::SchedulerPolicy::Random;
  if (name == "round-robin") return sim::SchedulerPolicy::RoundRobin;
  if (name == "lockstep") return sim::SchedulerPolicy::Lockstep;
  if (name == "counter") return sim::SchedulerPolicy::Counter;
  return std::nullopt;
}

bool matches_oracle(const sim::RunResult& run, std::uint64_t final_gcd) {
  return run.completed && run.clean_election() == (final_gcd == 1) &&
         run.clean_failure() == (final_gcd != 1);
}

std::vector<std::pair<std::string, double>> elect_metrics(
    std::size_t n, std::uint64_t final_gcd, const sim::RunResult& run) {
  return {{"n", static_cast<double>(n)},
          {"final_gcd", static_cast<double>(final_gcd)},
          {"completed", run.completed ? 1 : 0},
          {"clean_election", run.clean_election() ? 1 : 0},
          {"clean_failure", run.clean_failure() ? 1 : 0},
          {"matches_oracle", matches_oracle(run, final_gcd) ? 1 : 0},
          {"moves", static_cast<double>(run.total_moves)},
          {"steps", static_cast<double>(run.steps)}};
}

const char* classification_name(double code) {
  if (code == kClassElect) return "elect";
  if (code == kClassImpossCayley) return "imposs-cayley";
  if (code == kClassImpossLabeling) return "imposs-labeling";
  if (code == kClassOpen) return "open";
  if (code == kClassViolation) return "violation";
  return "?";
}

double labeling_count(const graph::Graph& g, std::size_t alphabet) {
  double count = 1;
  for (graph::NodeId x = 0; x < g.node_count(); ++x) {
    for (std::size_t i = 0; i < g.degree(x); ++i) {
      count *= static_cast<double>(alphabet - i);
    }
  }
  return count;
}

std::vector<std::pair<std::string, double>> run_task(
    const TaskSpec& task, const CancelToken& cancel) {
  cancel.throw_if_cancelled();
  if (task.workload == "anon-lockstep") return run_anon_lockstep();
  if (task.workload == "k2-exhaustive") return run_k2_exhaustive();
  if (task.workload == "petersen-witness") return run_petersen_witness(task);

  // Simulation workloads take their (graph, placement) from the pooled
  // World -- building the graph here would defeat the arena reuse.
  if (task.workload == "elect") return run_elect(task, cancel);
  if (task.workload == "quantitative") return run_quantitative(task);
  if (task.workload == "moves") return run_moves(task, cancel);
  if (task.workload == "degradation") return run_degradation(task, cancel);

  const graph::Graph g = task.graph.build();
  const graph::Placement p(g.node_count(), task.home_bases);
  if (task.workload == "analyze") {
    const Classification c = classify(g, p, task.labeling_budget, cancel);
    Metrics out{{"n", static_cast<double>(g.node_count())},
                {"final_gcd", static_cast<double>(c.final_gcd)}};
    if (c.final_gcd != 1) {
      out.emplace_back("is_cayley", c.is_cayley ? 1 : 0);
      out.emplace_back("obstruction", static_cast<double>(c.obstruction));
    }
    out.emplace_back("class", c.code);
    return out;
  }
  if (task.workload == "cayley-dichotomy") return run_cayley_dichotomy(g, p);
  throw CheckError("campaign: unknown workload '" + task.workload + "'");
}

}  // namespace qelect::campaign
