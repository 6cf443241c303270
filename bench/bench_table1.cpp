// Experiment T1: regenerate Table 1 of the paper -- election feasibility in
// anonymous networks per agent model.
//
//                 | Universal | effectual (arbitrary) | effectual (Cayley)
//   Anonymous     |    No     |          No           |        No
//   Qualitative   |    No     |          ?            |        Yes
//   Quantitative  |    Yes    |          Yes          |        Yes
//
// Every cell is backed by a concrete computation, not just quoted:
// impossibility cells run the indistinguishability / labeling arguments,
// "Yes" cells run live protocols over instance sweeps, and the "?" cell
// exhibits the Petersen instance that the paper leaves open.  The cell
// computations themselves run as the built-in "table1" campaign -- the
// same tasks, store, and report `qelect run table1` produces -- so the
// bench and the CLI can never disagree about a verdict.
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench_json.hpp"
#include "qelect/campaign/builtin.hpp"
#include "qelect/campaign/engine.hpp"
#include "qelect/campaign/report.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/surrounding.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/reference.hpp"
#include "qelect/sim/world.hpp"

namespace {

using namespace qelect;
using graph::Placement;

struct Inst {
  std::string name;
  graph::Graph g;
  Placement p;
};

/// The campaign's fixed instance suite, materialized for the timing block.
std::vector<Inst> sweep_instances() {
  std::vector<Inst> out;
  for (const campaign::Table1Instance& inst : campaign::table1_instances()) {
    graph::Graph g = inst.graph.build();
    const std::size_t n = g.node_count();
    out.push_back({inst.name, std::move(g), Placement(n, inst.home_bases)});
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== T1: Table 1 reproduction ==\n\n");

  // Run the built-in table1 campaign into a throwaway store and fold the
  // committed records into the feasibility matrix.
  const std::string store_path = "BENCH_table1.results.qws";
  std::filesystem::remove(store_path);
  const auto result = campaign::run_campaign(
      campaign::builtin_spec("table1"), store_path, {});
  const campaign::Table1Matrix matrix =
      campaign::table1_matrix(campaign::load_checked_store(store_path));
  campaign::print_table1(matrix);
  if (!result.complete() || result.failed + result.timeout > 0) {
    std::printf("WARNING: campaign incomplete (%zu failed, %zu timeout)\n",
                result.failed, result.timeout);
  }

  // --- Machine-readable timings (BENCH_table1.json) ---
  // The analysis hot path is COMPUTE&ORDER's surrounding-classes kernel,
  // which now runs through the worklist refinement and the rewritten
  // search.  The `_seed` twin groups nodes by
  // iso::reference certificates -- the exact seed pipeline -- so the
  // `speedup_vs_seed` counter isolates what this PR bought end to end.
  {
    benchjson::Reporter rep("table1");
    const auto insts = sweep_instances();
    const double after = rep.bench("surrounding_classes_sweep", [&] {
      for (const Inst& inst : insts) {
        benchjson::keep(core::surrounding_classes(inst.g, inst.p).classes.size());
      }
    });
    const double before = rep.bench("surrounding_classes_sweep_seed", [&] {
      for (const Inst& inst : insts) {
        std::map<iso::Certificate, std::size_t> by_cert;
        for (graph::NodeId u = 0; u < inst.g.node_count(); ++u) {
          ++by_cert[iso::reference::canonical_certificate(
              core::surrounding(inst.g, inst.p, u))];
        }
        benchjson::keep(by_cert.size());
      }
    });
    rep.counter("surrounding_classes_sweep", "speedup_vs_seed",
                before / after);
    rep.bench("protocol_plan_sweep", [&] {
      for (const Inst& inst : insts) {
        benchjson::keep(core::protocol_plan(inst.g, inst.p).final_gcd);
      }
    });
    rep.bench("live_elect_sweep", [&] {
      for (const Inst& inst : insts) {
        sim::World w(inst.g, inst.p, 7);
        benchjson::keep(w.run(core::make_elect_protocol(), {}).total_moves);
      }
    });
    rep.counter("live_elect_sweep", "live_ok",
                static_cast<double>(matrix.live_ok));
    rep.counter("live_elect_sweep", "live_total",
                static_cast<double>(matrix.live_total));
    rep.counter("live_elect_sweep", "quant_ok",
                static_cast<double>(matrix.quant_ok));
    rep.counter("live_elect_sweep", "tasks_not_ok",
                static_cast<double>(result.failed + result.timeout));
    rep.write();
  }
  return 0;
}
