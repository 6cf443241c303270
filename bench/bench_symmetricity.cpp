// Experiment TH21: Theorem 2.1's necessary condition, exhaustively.
//
// For tiny instances we enumerate *every* locally-distinct edge-labeling,
// compute the ~lab classes and the Yamashita-Kameda symmetricity, and check
// the chain:   some labeling with all ~lab classes > 1
//            => election impossible  => ELECT's gcd condition fails.
#include <cstdio>

#include "bench_json.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/util/table.hpp"
#include "qelect/views/symmetricity.hpp"

int main() {
  using namespace qelect;
  using graph::Placement;
  std::printf("== TH21: symmetricity and the necessary condition ==\n\n");

  struct Inst {
    std::string name;
    graph::Graph g;
    Placement p;
    std::size_t alphabet;
  };
  std::vector<Inst> insts;
  insts.push_back({"K2 {0,1}", graph::complete(2), Placement(2, {0, 1}), 2});
  insts.push_back({"C3 {0}", graph::ring(3), Placement(3, {0}), 2});
  insts.push_back({"C3 {0,1}", graph::ring(3), Placement(3, {0, 1}), 2});
  insts.push_back({"C3 {0,1,2}", graph::ring(3), Placement(3, {0, 1, 2}), 2});
  insts.push_back({"C4 {0,1}", graph::ring(4), Placement(4, {0, 1}), 2});
  insts.push_back({"C4 {0,2}", graph::ring(4), Placement(4, {0, 2}), 2});
  insts.push_back({"C4 {0,1,2,3}", graph::ring(4),
                   Placement(4, {0, 1, 2, 3}), 2});
  insts.push_back({"C5 {0,1}", graph::ring(5), Placement(5, {0, 1}), 2});
  insts.push_back({"P3 {1}", graph::path(3), Placement(3, {1}), 2});
  insts.push_back({"P4 {0,3}", graph::path(4), Placement(4, {0, 3}), 2});
  insts.push_back({"star3 {0}", graph::star(3), Placement(4, {0}), 3});

  TextTable table("exhaustive labeling analysis",
                  {"instance", "labelings", "max sigma", "obstructed",
                   "gcd(classes)", "consistent"});
  for (const auto& inst : insts) {
    const auto labelings = graph::enumerate_labelings(inst.g, inst.alphabet);
    std::size_t max_sigma = 0;
    bool obstructed = false;
    for (const auto& l : labelings) {
      max_sigma = std::max(
          max_sigma, views::symmetricity_of_labeling(inst.g, inst.p, l));
      const auto sizes = views::label_class_sizes(inst.g, inst.p, l);
      bool all_nontrivial = true;
      for (auto s : sizes) all_nontrivial = all_nontrivial && s > 1;
      obstructed = obstructed || all_nontrivial;
    }
    const auto plan = core::protocol_plan(inst.g, inst.p);
    // Consistency: obstruction must imply gcd > 1 (else ELECT would elect
    // on an impossible instance, contradicting Theorems 2.1 + 3.1).
    const bool consistent = !obstructed || plan.final_gcd > 1;
    table.add_row({inst.name, std::to_string(labelings.size()),
                   std::to_string(max_sigma), obstructed ? "yes" : "no",
                   std::to_string(plan.final_gcd),
                   consistent ? "yes" : "VIOLATION"});
  }
  table.print();
  std::printf(
      "\n'obstructed' = some labeling has every ~lab class of size > 1\n"
      "(Theorem 2.1 premise); every such instance must show gcd > 1.\n");

  // --- Machine-readable timings (BENCH_symmetricity.json) ---
  // The symmetricity computation is ~view classes by color refinement,
  // so this case tracks the refinement kernel from the protocol side.
  {
    benchjson::Reporter rep("symmetricity");
    const graph::Graph g = graph::ring(5);
    const Placement p(5, {0, 1});
    const auto labelings = graph::enumerate_labelings(g, 2);
    rep.bench("exhaustive_symmetricity_C5_01", [&] {
      for (const auto& l : labelings) {
        benchjson::keep(views::symmetricity_of_labeling(g, p, l));
      }
    });
    rep.counter("exhaustive_symmetricity_C5_01", "labelings",
                static_cast<double>(labelings.size()));
    rep.write();
  }
  return 0;
}
