// PERF: isomorphism-engine benchmarks with before/after measurement.
//
// COMPUTE&ORDER's cost is dominated by canonical forms; the paper flags
// this ("graph-isomorphism is not known to be in P"), so we measure it
// explicitly across symmetry regimes.  Every headline case times the
// optimized path (worklist refinement + the reworked search) against the
// seed implementation preserved under iso::reference and reports the
// ratio as a `speedup_vs_seed` counter; tests/test_golden.cpp proves the
// two produce byte-identical output, so the ratio compares equal work.
// Results land in BENCH_canon.json (see bench_json.hpp for the schema).
#include <cstdio>

#include "bench_json.hpp"
#include "qelect/core/surrounding.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/iso/automorphism.hpp"
#include "qelect/iso/canonical.hpp"
#include "qelect/iso/colored_digraph.hpp"
#include "qelect/iso/reference.hpp"
#include "qelect/iso/refinement.hpp"

namespace {

using namespace qelect;

iso::ColoredDigraph plain(const graph::Graph& g) {
  return iso::from_bicolored_graph(g,
                                   graph::Placement::empty(g.node_count()));
}

iso::ColoredDigraph based(const graph::Graph& g) {
  return iso::from_bicolored_graph(g,
                                   graph::Placement(g.node_count(), {0}));
}


// Headline pattern: time new vs seed on the same instance, attach the
// speedup counter to the "after" case.
void canon_pair(benchjson::Reporter& rep, const std::string& name,
                const iso::ColoredDigraph& d) {
  const double after = rep.bench(name, [&] {
    benchjson::keep(iso::canonical_certificate(d).size());
  });
  const double before = rep.bench(name + "_seed", [&] {
    benchjson::keep(iso::reference::canonical_certificate(d).size());
  });
  rep.counter(name, "speedup_vs_seed", before / after);
  rep.counter(name, "leaves",
              static_cast<double>(iso::canonical_form(d).leaves_evaluated));
  std::printf("%-28s %12.3g s   seed %12.3g s   speedup %5.2fx\n",
              name.c_str(), after, before, before / after);
}

void refine_pair(benchjson::Reporter& rep, const std::string& name,
                 const iso::ColoredDigraph& d) {
  const double after =
      rep.bench(name, [&] { benchjson::keep(iso::refine(d).size()); });
  const double before = rep.bench(
      name + "_seed", [&] { benchjson::keep(iso::reference::refine(d).size()); });
  rep.counter(name, "speedup_vs_seed", before / after);
  const iso::Coloring fixed = iso::refine(d);
  rep.counter(name, "classes",
              static_cast<double>(iso::color_classes(fixed).size()));
  std::size_t rounds = 0;
  while (iso::refine_rounds(d, d.colors(), rounds) != fixed) ++rounds;
  rep.counter(name, "refinement_rounds", static_cast<double>(rounds));
  std::printf("%-28s %12.3g s   seed %12.3g s   speedup %5.2fx\n",
              name.c_str(), after, before, before / after);
}

}  // namespace

int main() {
  benchjson::Reporter rep("canon");
  std::printf("bench_canon: optimized vs seed (iso::reference)%s\n\n",
              rep.smoke() ? " [smoke]" : "");

  // Canonical forms across symmetry regimes.  Bi-colored ("based") rings
  // are the frontier-refinement stress case: refinement splits one
  // distance shell per round, which the seed handles with a full global
  // resort every round.
  canon_pair(rep, "canon_ring_32", based(graph::ring(32)));
  canon_pair(rep, "canon_ring_64", based(graph::ring(64)));
  canon_pair(rep, "canon_hypercube_4", plain(graph::hypercube(4)));
  canon_pair(rep, "canon_complete_8", plain(graph::complete(8)));
  canon_pair(rep, "canon_petersen", plain(graph::petersen()));
  canon_pair(rep, "canon_torus_4x4", plain(graph::torus({4, 4})));
  canon_pair(rep, "canon_random_32",
             plain(graph::random_connected(32, 0.2, 7)));

  // Refinement alone (the tentpole's first layer).
  refine_pair(rep, "refine_ring_256", based(graph::ring(256)));
  refine_pair(rep, "refine_ring_512", based(graph::ring(512)));
  refine_pair(rep, "refine_random_128",
              plain(graph::random_connected(128, 0.2, 7)));
  refine_pair(rep, "refine_torus_8x8", based(graph::torus({8, 8})));

  // Ablation: automorphism pruning (DESIGN.md).  Without pruning the
  // search on K_7 walks all 7! = 5040 leaves; certificates are identical
  // either way (asserted in the tests).
  {
    const auto d = plain(graph::complete(7));
    for (const bool pruning : {true, false}) {
      iso::CanonicalOptions options;
      options.automorphism_pruning = pruning;
      const std::string name =
          pruning ? "ablation_pruning_on" : "ablation_pruning_off";
      std::size_t leaves = 0;
      rep.bench(name, [&] {
        const auto form = iso::canonical_form(d, options);
        leaves = form.leaves_evaluated;
        benchjson::keep(form.certificate.size());
      });
      rep.counter(name, "leaves", static_cast<double>(leaves));
    }
  }

  // COMPUTE&ORDER core: one canonical certificate per surrounding.
  {
    const graph::Graph g = graph::torus({4, 4});
    const graph::Placement p(16, {0, 5, 10});
    rep.bench("surrounding_classes_torus", [&] {
      benchjson::keep(core::surrounding_classes(g, p).classes.size());
    });
  }

  // Automorphism enumeration rides on the same refinement fast path.
  {
    const auto d = plain(graph::petersen());
    std::size_t count = 0;
    rep.bench("aut_enumeration_petersen", [&] {
      count = iso::all_automorphisms(d).value().size();
      benchjson::keep(count);
    });
    rep.counter("aut_enumeration_petersen", "aut_group_order",
                static_cast<double>(count));
  }

  rep.write();
  return 0;
}
