// PERF: view-machinery benchmarks with before/after measurement.
//
// The seed built truncated views as literal trees of walks (deg^depth
// nodes) and re-encoded shared subtrees once per occurrence; build_view
// now shares each (node, depth) subtree and encode_view encodes each
// shared subtree once.
// Every headline case times the optimized path against the seed kept
// under views::reference and reports `speedup_vs_seed`;
// tests/test_golden.cpp proves the encodings byte-identical.  Results
// land in BENCH_views.json (schema in bench_json.hpp).
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/group/cayley_graph.hpp"
#include "qelect/views/reference.hpp"
#include "qelect/views/symmetricity.hpp"
#include "qelect/views/views.hpp"

namespace {

using namespace qelect;


// Headline pattern: encode the depth-d view of node 0, new vs seed.
void view_pair(benchjson::Reporter& rep, const std::string& name,
               const graph::Graph& g, std::size_t depth) {
  const graph::Placement p(g.node_count(), {0});
  const auto l = graph::EdgeLabeling::from_ports(g);
  const double after = rep.bench(name, [&] {
    benchjson::keep(
        views::encode_view(views::build_view(g, p, l, 0, depth)).size());
  });
  const double before = rep.bench(name + "_seed", [&] {
    benchjson::keep(views::reference::encode_view(
                   views::reference::build_view(g, p, l, 0, depth))
                   .size());
  });
  rep.counter(name, "speedup_vs_seed", before / after);
  std::printf("%-30s %12.3g s   seed %12.3g s   speedup %5.2fx\n",
              name.c_str(), after, before, before / after);
}

}  // namespace

int main() {
  benchjson::Reporter rep("views");
  std::printf("bench_views: optimized vs seed (views::reference)%s\n\n",
              rep.smoke() ? " [smoke]" : "");

  // Single-root encodings.  The seed tree has deg^depth nodes; the shared
  // tree holds at most n * (depth + 1), so the gap widens with depth.
  view_pair(rep, "views_ring_64_depth14", graph::ring(64), 14);
  view_pair(rep, "views_petersen_depth9", graph::petersen(), 9);
  view_pair(rep, "views_hypercube3_depth8", graph::hypercube(3), 8);
  view_pair(rep, "views_torus4x4_depth7", graph::torus({4, 4}), 7);

  // All-roots workload: every root's view (the symmetricity/Theorem 2.1
  // access pattern), one shared tree per root vs one seed tree per root.
  {
    const graph::Graph g = graph::ring(32);
    const graph::Placement p(g.node_count(), {0});
    const auto l = graph::EdgeLabeling::from_ports(g);
    const std::size_t depth = 12;
    const double after = rep.bench("views_all_roots_ring32", [&] {
      for (graph::NodeId root = 0; root < g.node_count(); ++root) {
        benchjson::keep(
            views::encode_view(views::build_view(g, p, l, root, depth))
                .size());
      }
    });
    const double before = rep.bench("views_all_roots_ring32_seed", [&] {
      for (graph::NodeId root = 0; root < g.node_count(); ++root) {
        benchjson::keep(views::reference::encode_view(
                       views::reference::build_view(g, p, l, root, depth))
                       .size());
      }
    });
    rep.counter("views_all_roots_ring32", "speedup_vs_seed", before / after);
    std::printf("%-30s %12.3g s   seed %12.3g s   speedup %5.2fx\n",
                "views_all_roots_ring32", after, before, before / after);
  }

  // Qualitative encoding (8!-renaming minimization) over the shared-DAG
  // tree with memoized rename+encode vs the seed's full-tree walks.
  {
    const auto ex = graph::figure2c();
    const graph::Placement empty =
        graph::Placement::empty(ex.graph.node_count());
    const auto fast_tree = views::build_view(ex.graph, empty, ex.labeling, 0, 4);
    const auto seed_tree =
        views::reference::build_view(ex.graph, empty, ex.labeling, 0, 4);
    const double after = rep.bench("views_qualitative_fig2c", [&] {
      benchjson::keep(views::encode_view_qualitative(fast_tree).size());
    });
    const double before = rep.bench("views_qualitative_fig2c_seed", [&] {
      benchjson::keep(views::reference::encode_view_qualitative(seed_tree).size());
    });
    rep.counter("views_qualitative_fig2c", "speedup_vs_seed",
                before / after);
    std::printf("%-30s %12.3g s   seed %12.3g s   speedup %5.2fx\n",
                "views_qualitative_fig2c", after, before, before / after);
  }

  // ~view machinery that rides on the refinement fast path (no seed twin
  // here: view_coloring's "before" is covered by bench_canon's
  // refine_* pairs).
  {
    const graph::Graph g = graph::torus({8, 8});
    const graph::Placement p(g.node_count(), {0});
    const auto l = graph::EdgeLabeling::from_ports(g);
    rep.bench("view_coloring_torus_8x8", [&] {
      benchjson::keep(views::view_coloring(g, p, l).size());
    });
  }
  {
    const auto cg = group::cayley_ring(64);
    const auto l = cg.natural_labeling();
    const graph::Placement p = graph::Placement::empty(cg.graph.node_count());
    rep.bench("symmetricity_ring_64", [&] {
      benchjson::keep(views::symmetricity_of_labeling(cg.graph, p, l));
    });
  }

  rep.write();
  return 0;
}
