// The `qelect run` / `qelect resume` engine flags.
#pragma once

#include <string>

#include "qelect/campaign/engine.hpp"
#include "qelect/util/assert.hpp"
#include "serve_common.hpp"

namespace qelect::tools {

struct EngineFlags {
  std::string store;
  std::string progress_jsonl;
  campaign::EngineOptions options;
};

/// Parses engine flags from argv[from..).  An unknown flag, a missing
/// value, or a numeric value parse_number refuses (a sign, a wrap, NaN,
/// more than campaign::kMaxShards shards) is a CheckError naming the flag.
inline EngineFlags parse_engine_flags(int argc, char** argv, int from) {
  EngineFlags flags;
  flags.options.echo_every = 20;
  auto value = [&](int& i) -> std::string {
    QELECT_CHECK(i + 1 < argc, std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = from; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--store") {
      flags.store = value(i);
    } else if (flag == "--shards") {
      parse_number(flag, value(i), flags.options.shards,
                   campaign::kMaxShards);
    } else if (flag == "--retries") {
      parse_number(flag, value(i), flags.options.retries);
    } else if (flag == "--timeout-seconds") {
      parse_number(flag, value(i), flags.options.timeout_seconds);
    } else if (flag == "--deterministic") {
      flags.options.deterministic = true;
    } else if (flag == "--stop-after") {
      parse_number(flag, value(i), flags.options.stop_after);
    } else if (flag == "--progress-jsonl") {
      flags.progress_jsonl = value(i);
    } else if (flag == "--echo") {
      parse_number(flag, value(i), flags.options.echo_every);
    } else {
      throw CheckError("unknown flag '" + flag + "'");
    }
  }
  return flags;
}

}  // namespace qelect::tools
