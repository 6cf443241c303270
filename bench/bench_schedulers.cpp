// Ablation: the adversary's influence on protocol cost.
//
// Correctness of ELECT is scheduler-independent (tested); its *cost* is
// not guaranteed to be.  This bench quantifies the spread: total moves and
// steps under Random, RoundRobin, and Lockstep scheduling on fixed
// instances, plus the mobile-vs-message-passing (Figure 1) execution
// models side by side.  Observability rides on trace sinks: a CountingSink
// per run surfaces wait latencies and per-node whiteboard contention, one
// representative run is streamed to a JSONL trace file, and the recorded
// schedule is replayed via SchedulerPolicy::Replay to certify that every
// number printed here is reproducible step-for-step.
#include <cstdio>

#include "bench_json.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/replay.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/trace/counting_sink.hpp"
#include "qelect/trace/jsonl_sink.hpp"
#include "qelect/util/table.hpp"

int main() {
  using namespace qelect;
  std::printf("== scheduler / execution-model ablation for ELECT ==\n\n");

  struct Inst {
    std::string name;
    graph::Graph g;
    graph::Placement p;
  };
  std::vector<Inst> insts;
  insts.push_back({"C8 {0,3}", graph::ring(8), graph::Placement(8, {0, 3})});
  insts.push_back({"Q3 {0,3,5}", graph::hypercube(3),
                   graph::Placement(8, {0, 3, 5})});
  insts.push_back({"T33 {0,4}", graph::torus({3, 3}),
                   graph::Placement(9, {0, 4})});

  TextTable table("cost per scheduler (mobile World)",
                  {"instance", "policy", "outcome", "moves", "steps",
                   "max wait", "peak wb"});
  for (const Inst& inst : insts) {
    for (const auto policy :
         {sim::SchedulerPolicy::Random, sim::SchedulerPolicy::RoundRobin,
          sim::SchedulerPolicy::Lockstep}) {
      std::size_t moves = 0, steps = 0, runs = 0;
      std::uint64_t max_wait = 0, peak_contention = 0;
      std::string outcome;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        sim::World w(inst.g, inst.p, seed);
        trace::CountingSink counters;
        sim::RunConfig cfg;
        cfg.policy = policy;
        cfg.seed = seed;
        cfg.sink = &counters;
        const auto r = w.run(core::make_elect_protocol(), cfg);
        if (!r.completed) continue;
        moves += r.total_moves;
        steps += r.steps;
        ++runs;
        outcome = r.clean_election() ? "elect" : "fail-detect";
        if (counters.max_wait_latency() > max_wait) {
          max_wait = counters.max_wait_latency();
        }
        if (counters.max_node_contention() > peak_contention) {
          peak_contention = counters.max_node_contention();
        }
      }
      table.add_row({inst.name, sim::policy_name(policy), outcome,
                     std::to_string(moves / runs),
                     std::to_string(steps / runs),
                     std::to_string(max_wait),
                     std::to_string(peak_contention)});
    }
  }
  table.print();

  TextTable models("mobile vs message-passing (Figure 1), random scheduler",
                   {"instance", "model", "moves", "peak in-transit"});
  for (const Inst& inst : insts) {
    sim::World w(inst.g, inst.p, 5);
    sim::RunConfig config;
    const auto mobile = w.run(core::make_elect_protocol(), config);
    models.add_row({inst.name, "mobile", std::to_string(mobile.total_moves),
                    "-"});
    config.message_passing = true;
    const auto message = w.run(core::make_elect_protocol(), config);
    models.add_row({inst.name, "message",
                    std::to_string(message.total_moves),
                    std::to_string(message.max_in_transit)});
  }
  models.print();

  // Reproducibility: record one seeded-random run to JSONL, replay the
  // recorded schedule, and verify the results are identical.
  {
    const Inst& inst = insts.front();
    const char* path = "bench_schedulers.trace.jsonl";
    sim::World w(inst.g, inst.p, 1);
    sim::RunConfig cfg;
    cfg.seed = 1;
    cfg.trace_label = inst.name;
    trace::JsonlSink jsonl(path);
    cfg.sink = &jsonl;
    const auto recorded = sim::record_run(w, core::make_elect_protocol(), cfg);
    cfg.sink = nullptr;
    const auto verification =
        sim::verify_replay(w, core::make_elect_protocol(), cfg,
                           recorded.result, recorded.schedule);
    std::printf("\ntrace: %s (%llu events); replay of the recorded schedule "
                "is %s\n",
                path,
                static_cast<unsigned long long>(jsonl.events_written()),
                verification.identical
                    ? "bitwise-identical to the original run"
                    : ("DIVERGENT: " + verification.divergence).c_str());
  }

  std::printf(
      "\nmoves are scheduler-insensitive (the protocol's tours are fixed by\n"
      "the maps); steps vary with interleaving.  The Figure 1 transformation\n"
      "preserves the move count exactly -- moves ARE the messages.\n");

  // --- Machine-readable timings (BENCH_schedulers.json) ---
  {
    benchjson::Reporter rep("schedulers");
    const Inst& inst = insts[1];  // Q3 {0,3,5}
    for (const auto policy :
         {sim::SchedulerPolicy::Random, sim::SchedulerPolicy::RoundRobin,
          sim::SchedulerPolicy::Lockstep}) {
      const std::string name =
          std::string("elect_q3_") + sim::policy_name(policy);
      rep.bench(name, [&] {
        sim::World w(inst.g, inst.p, 1);
        sim::RunConfig cfg;
        cfg.policy = policy;
        cfg.seed = 1;
        benchjson::keep(w.run(core::make_elect_protocol(), cfg).total_moves);
      });
    }
    bool identical = false;
    rep.bench("record_and_replay_c8", [&] {
      const Inst& c8 = insts.front();
      sim::World w(c8.g, c8.p, 1);
      sim::RunConfig cfg;
      cfg.seed = 1;
      const auto recorded =
          sim::record_run(w, core::make_elect_protocol(), cfg);
      identical = sim::verify_replay(w, core::make_elect_protocol(), cfg,
                                     recorded.result, recorded.schedule)
                      .identical;
      benchjson::keep(recorded.result.total_moves);
    });
    rep.counter("record_and_replay_c8", "replay_identical",
                identical ? 1.0 : 0.0);
    rep.write();
  }
  return 0;
}
