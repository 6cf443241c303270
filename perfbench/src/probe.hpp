// Subcommands of perfbench_probe.  run.py calls them, one fresh process
// per measurement, and folds their JSON output into the benchmark result.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "qelect/campaign/spec.hpp"
#include "qelect/graph/graph.hpp"

namespace perfbench {

/// `--key value` flags of one subcommand.
class Args {
 public:
  Args(int argc, char** argv, int from);
  std::string get(const std::string& key, const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Number of input variants per randomized workload; the seed picks one
/// (seed mod kVariants), and each has pinned expected totals.
inline constexpr std::uint64_t kVariants = 8;

/// The campaign behind a workload for `seed`: the landscape (also
/// serve-mix's read set), the elect sweep or the fault sweep.  `small`
/// selects the smallest inputs.
qelect::campaign::CampaignSpec workload_spec(const std::string& workload,
                                             std::uint64_t seed, bool small);

/// Largest node degree of `g` (the alphabet of its labeling search).
std::size_t max_degree(const qelect::graph::Graph& g);

/// One untraced campaign run (`campaign`).
int cmd_campaign(const Args& args);
/// The traced 1-shard per-task loop plus its record cross-check
/// (`trace-campaign`).
int cmd_trace_campaign(const Args& args);
/// The kernel pass over a workload's distinct instances (`kernels`).
int cmd_kernels(const Args& args);
/// The serve-mix workload against a qelectd child (`serve`).
int cmd_serve(const Args& args);
/// Prints the open-loop schedule digest (`schedule`), for the tests.
int cmd_schedule(const Args& args);

}  // namespace perfbench
