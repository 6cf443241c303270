// Exhaustive live-protocol sweep: run ELECT on *every* placement of every
// catalog graph and require the outcome to match the Theorem 3.1 oracle.
// This is the heaviest single guarantee in the suite (hundreds of full
// protocol executions) and the closest computational analogue of the
// theorem's "for any network and any placement" quantifier at small scale.
#include <gtest/gtest.h>

#include "qelect/core/analysis.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/sim/world.hpp"

namespace qelect {
namespace {

using graph::Placement;

struct CatalogGraph {
  std::string name;
  graph::Graph g;
};

std::vector<CatalogGraph> catalog() {
  std::vector<CatalogGraph> out;
  out.push_back({"ring4", graph::ring(4)});
  out.push_back({"ring5", graph::ring(5)});
  out.push_back({"ring6", graph::ring(6)});
  out.push_back({"ring7", graph::ring(7)});
  out.push_back({"path4", graph::path(4)});
  out.push_back({"path5", graph::path(5)});
  out.push_back({"star3", graph::star(3)});
  out.push_back({"k3", graph::complete(3)});
  out.push_back({"k4", graph::complete(4)});
  out.push_back({"bipartite22", graph::complete_bipartite(2, 2)});
  out.push_back({"fig2c", graph::figure2c().graph});  // multigraph + loop
  return out;
}

TEST(Exhaustive, ElectMatchesOracleOnEveryPlacement) {
  std::size_t instances = 0, elections = 0, failures = 0;
  for (const CatalogGraph& cg : catalog()) {
    const std::size_t n = cg.g.node_count();
    for (std::size_t r = 1; r <= n; ++r) {
      for (const Placement& p : graph::enumerate_placements(n, r)) {
        const auto plan = core::protocol_plan(cg.g, p);
        sim::World w(cg.g, p, instances + 1);
        sim::RunConfig cfg;
        cfg.seed = instances * 7 + 3;
        const sim::RunResult res = w.run(core::make_elect_protocol(), cfg);
        ASSERT_TRUE(res.completed)
            << cg.name << " r=" << r << " #" << instances;
        EXPECT_EQ(res.clean_election(), plan.final_gcd == 1)
            << cg.name << " r=" << r << " #" << instances;
        EXPECT_EQ(res.clean_failure(), plan.final_gcd != 1)
            << cg.name << " r=" << r << " #" << instances;
        ++instances;
        if (plan.final_gcd == 1) {
          ++elections;
        } else {
          ++failures;
        }
      }
    }
  }
  // The sweep covers hundreds of instances and both outcome kinds amply.
  EXPECT_GT(instances, 300u);
  EXPECT_GT(elections, 100u);
  EXPECT_GT(failures, 30u);
}

TEST(Exhaustive, MessageWorldAgreesOnSampledPlacements) {
  // Every 7th placement also runs through the Figure 1 transformation.
  std::size_t counter = 0;
  for (const CatalogGraph& cg : catalog()) {
    const std::size_t n = cg.g.node_count();
    for (std::size_t r = 1; r <= n; ++r) {
      for (const Placement& p : graph::enumerate_placements(n, r)) {
        if (++counter % 7 != 0) continue;
        const auto plan = core::protocol_plan(cg.g, p);
        sim::World w(cg.g, p, counter);
        sim::RunConfig messages;
        messages.message_passing = true;
        const auto res = w.run(core::make_elect_protocol(), messages);
        ASSERT_TRUE(res.completed) << cg.name << " #" << counter;
        EXPECT_EQ(res.clean_election(), plan.final_gcd == 1)
            << cg.name << " #" << counter;
      }
    }
  }
}

TEST(Exhaustive, MoveBudgetHoldsEverywhere) {
  // Theorem 3.1's O(r |E|) with one shared constant across the whole
  // catalog -- a much stronger statement than per-family checks.
  constexpr std::size_t kConstant = 64;
  for (const CatalogGraph& cg : catalog()) {
    const std::size_t n = cg.g.node_count();
    for (std::size_t r = 1; r <= n; ++r) {
      std::size_t index = 0;
      for (const Placement& p : graph::enumerate_placements(n, r)) {
        if (++index % 3 != 0) continue;  // sample within the sweep
        sim::World w(cg.g, p, index);
        const auto res = w.run(core::make_elect_protocol(), {});
        ASSERT_TRUE(res.completed);
        EXPECT_LE(res.total_moves,
                  kConstant * p.agent_count() * cg.g.edge_count() + kConstant)
            << cg.name << " r=" << r;
      }
    }
  }
}

}  // namespace
}  // namespace qelect
