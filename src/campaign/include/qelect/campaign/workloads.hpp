// Workload runners: TaskSpec in, metrics out.
//
// Each workload is a pure function of the task (graphs are rebuilt from
// the GraphRef, seeds are explicit), so a task produces identical metrics
// on any shard, any run, any resume -- the determinism the byte-for-byte
// store tests pin down.  Workloads poll the CancelToken between heavy
// stages; a tripped token surfaces as qelect::Cancelled, which the engine
// records as the `timeout` outcome.
//
// Classification codes for the "analyze" workload (`class` metric) mirror
// the landscape taxonomy:
//   0 elect            gcd of ~ class sizes is 1 (Theorem 3.1)
//   1 imposs-cayley    a regular subgroup has |R_p| > 1 (corrected Thm 4.1)
//   2 imposs-labeling  exhaustive Theorem 2.1 labeling search succeeded
//   3 open             gcd > 1, no impossibility proof within budget
//   4 violation        Cayley with gcd > 1 but no obstruction (would refute
//                      the corrected dichotomy; never observed)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qelect/campaign/task.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/util/cancel.hpp"

namespace qelect::campaign {

inline constexpr double kClassElect = 0;
inline constexpr double kClassImpossCayley = 1;
inline constexpr double kClassImpossLabeling = 2;
inline constexpr double kClassOpen = 3;
inline constexpr double kClassViolation = 4;

/// Stable name for a classification code ("elect", "imposs-cayley", ...).
const char* classification_name(double code);

/// The analyze workload's verdict on one instance.  is_cayley and
/// obstruction (the largest |R_p|) are computed only when final_gcd != 1.
struct Classification {
  std::uint64_t final_gcd = 0;
  double code = kClassElect;  // a kClass* code
  bool is_cayley = false;
  std::size_t obstruction = 0;
};

/// Classifies (g, p) for the analyze workload and qelectd's ELECTABLE:
/// Theorem 3.1's gcd, then, when it is not 1, the corrected Theorem 4.1
/// Cayley test and, within `labeling_budget` labelings, Theorem 2.1's
/// exhaustive search.  Polls `cancel` between the stages.
Classification classify(const graph::Graph& g, const graph::Placement& p,
                        double labeling_budget, const CancelToken& cancel);

/// The policy named "random", "round-robin", "lockstep" or "counter" (the
/// four both sim::World and the batch engine run), or nullopt.
std::optional<sim::SchedulerPolicy> policy_from_name(const std::string& name);

/// Theorem 3.1's oracle: `run` completed, electing cleanly when the gcd of
/// the class sizes is 1 and failing cleanly otherwise.
bool matches_oracle(const sim::RunResult& run, std::uint64_t final_gcd);

/// The elect workload's eight-metric record of one run on n nodes.
std::vector<std::pair<std::string, double>> elect_metrics(
    std::size_t n, std::uint64_t final_gcd, const sim::RunResult& run);

/// Executes one task.  Throws on failure (unknown workload, CheckError
/// from the libraries, Cancelled on timeout); the engine translates
/// exceptions into failed/timeout records.
std::vector<std::pair<std::string, double>> run_task(const TaskSpec& task,
                                                     const CancelToken& cancel);

/// Number of locally-distinct labelings of g over `alphabet` symbols (the
/// Theorem 2.1 search space; shared by the analyze workload and reports).
double labeling_count(const graph::Graph& g, std::size_t alphabet);

}  // namespace qelect::campaign
