// perfbench_probe: the measuring half of the benchmark.  run.py builds
// it, runs one subcommand per fresh process, and aggregates the JSON each
// prints on its last line.  Usage:
//
//   perfbench_probe campaign       --workload W --seed S --shards N --dir D
//   perfbench_probe trace-campaign --workload W --seed S --dir D --spans F
//   perfbench_probe kernels        --workload W --seed S --spans F
//   perfbench_probe serve          --qelectd PATH --seed S --seconds T ...
//   perfbench_probe schedule       --seed S --rate R --seconds T
//
// Every subcommand also takes --size small (the smallest inputs, for the
// benchmark's own tests).
#include <cstdio>
#include <stdexcept>
#include <string>

#include "probe.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int from) {
  for (int i = from; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --flag value, got '" + flag + "'");
    }
    values_[flag.substr(2)] = argv[++i];
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stoull(it->second);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stod(it->second);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe <subcommand> [--flag value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (cmd == "campaign") return perfbench::cmd_campaign(args);
    if (cmd == "trace-campaign") return perfbench::cmd_trace_campaign(args);
    if (cmd == "kernels") return perfbench::cmd_kernels(args);
    if (cmd == "serve") return perfbench::cmd_serve(args);
    if (cmd == "schedule") return perfbench::cmd_schedule(args);
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
