// qelect: the unified campaign CLI.
//
//   qelect run <spec.json | builtin> [engine flags]   start / continue
//   qelect resume <store>            [engine flags]   continue from a store
//   qelect status <store>                             progress + failures
//   qelect report <store> [--json F]                  paper-table report
//   qelect export <store> [--out F]                   store -> JSONL text
//   qelect compact <store>                            snapshot + trim log
//   qelect tasks  <spec.json | builtin>               print the expansion
//   qelect list                                       built-in catalog
//
// `run` is idempotent: it loads the store first and only executes tasks
// without a terminal record, so run and resume differ only in where the
// spec comes from (resume reads it back out of the store header).  A
// failed or timed-out record is terminal unless the run's retries
// (--retries, else the spec's) is larger than the budget it ran under, so
// raising --retries re-runs exactly those.
// Stores are binary WAL files (see docs/STORAGE.md), and every command
// that takes a store refuses any other file; `export` writes a store as
// JSONL text in task order.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "qelect/campaign/builtin.hpp"
#include "qelect/campaign/engine.hpp"
#include "qelect/campaign/report.hpp"
#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/trace/jsonl_sink.hpp"
#include "qelect/util/assert.hpp"
#include "engine_flags.hpp"
#include "serve_common.hpp"

namespace {

using namespace qelect;
using campaign::CampaignSpec;
using tools::EngineFlags;
using tools::parse_engine_flags;

int usage() {
  std::fprintf(
      stderr,
      "usage: qelect <command> [args]\n"
      "\n"
      "  run <spec.json|builtin> [flags]   run (or continue) a campaign\n"
      "  resume <store> [flags]            continue from a result store\n"
      "  status <store>                    progress and failure summary\n"
      "  report <store> [--json FILE]      workload-specific report (--json\n"
      "                                    writes the degradation survival\n"
      "                                    matrix as JSON)\n"
      "  export <store> [--out FILE]       dump the store as JSONL text\n"
      "  compact <store>                   snapshot + reset the WAL tail\n"
      "  tasks <spec.json|builtin>         print the task expansion\n"
      "  list                              built-in campaign catalog\n"
      "  serve [flags]                     run the qelectd query server\n"
      "  query <opcode> [flags]            one request against a server\n"
      "\n"
      "engine flags (run/resume):\n"
      "  --store PATH            result store (default campaign_<name>/results.qws)\n"
      "  --shards N              worker shards, <= 256 (default: hardware\n"
      "                          concurrency)\n"
      "  --retries N             attempts beyond the first per task; a\n"
      "                          larger N re-runs stored failures\n"
      "  --timeout-seconds S     cooperative per-attempt deadline\n"
      "  --deterministic         zero durations (byte-reproducible stores)\n"
      "  --stop-after N          commit N tasks then stop (simulated kill)\n"
      "  --progress-jsonl PATH   stream progress events to a JSONL trace\n"
      "  --echo N                status line every N commits (default 20)\n"
      "  --compact-every N       auto-snapshot after N appended records\n"
      "                          (default 131072; 0 disables)\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QELECT_CHECK(in.good(), "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A builtin name resolves from the catalog; anything else is a JSON file.
CampaignSpec resolve_spec(const std::string& arg) {
  if (campaign::is_builtin(arg)) return campaign::builtin_spec(arg);
  return CampaignSpec::from_json_text(read_file(arg));
}

int run_with(const CampaignSpec& spec, EngineFlags flags) {
  if (flags.store.empty()) {
    flags.store = "campaign_" + spec.name + "/results.qws";
  }
  std::unique_ptr<trace::JsonlSink> progress;
  if (!flags.progress_jsonl.empty()) {
    progress = std::make_unique<trace::JsonlSink>(flags.progress_jsonl);
    flags.options.progress = progress.get();
  }
  std::printf("campaign %s -> %s\n", spec.name.c_str(),
              flags.store.c_str());
  const auto result = campaign::run_campaign(spec, flags.store,
                                             flags.options);
  std::printf(
      "%s: %zu tasks, %zu skipped (already done), %zu executed "
      "(%zu ok, %zu failed, %zu timeout, %zu retries) in %.2fs%s\n",
      result.complete() ? "done" : "stopped", result.total, result.skipped,
      result.executed, result.ok, result.failed, result.timeout,
      result.retried, result.wall_seconds,
      result.stopped_early ? " [stopped early by --stop-after]" : "");
  if (result.complete()) {
    std::printf("\n");
    campaign::print_report(flags.store);
  }
  return result.failed + result.timeout > 0 ? 1 : 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage();
  const CampaignSpec spec = resolve_spec(argv[2]);
  return run_with(spec, parse_engine_flags(argc, argv, 3));
}

int cmd_resume(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string store_path = argv[2];
  const auto store = campaign::load_store(store_path);
  QELECT_CHECK(store.exists && store.has_header,
               "no resumable store at " + store_path);
  const CampaignSpec spec =
      CampaignSpec::from_json_text(store.header.spec_json);
  EngineFlags flags = parse_engine_flags(argc, argv, 3);
  flags.store = store_path;
  return run_with(spec, std::move(flags));
}

int cmd_export(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string store_path = argv[2];
  std::string out_path;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--out") {
      QELECT_CHECK(i + 1 < argc, "--out needs a value");
      out_path = argv[++i];
    } else {
      throw CheckError("unknown flag '" + flag + "'");
    }
  }
  const auto store = campaign::load_store(store_path);
  QELECT_CHECK(store.exists && store.has_header,
               "no store at " + store_path);
  const std::string text = campaign::store_to_jsonl(store);
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    QELECT_CHECK(out.good(), "cannot write " + out_path);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    QELECT_CHECK(out.good(), "write to " + out_path + " failed");
    std::fprintf(stderr, "exported %zu records to %s\n",
                 store.records.size(), out_path.c_str());
  }
  return 0;
}

int cmd_compact(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string store_path = argv[2];
  const auto store = campaign::load_store(store_path);
  QELECT_CHECK(store.exists && store.has_header,
               "no store at " + store_path);
  campaign::StoreWriter writer(store_path, store.header);
  writer.compact();
  std::printf("compacted %s: %zu records -> generation %llu snapshot\n",
              store_path.c_str(), writer.record_count(),
              static_cast<unsigned long long>(writer.generation()));
  return 0;
}

int cmd_tasks(int argc, char** argv) {
  if (argc < 3) return usage();
  const campaign::TaskSpace space(resolve_spec(argv[2]));
  for (std::size_t i = 0; i < space.size(); ++i) {
    std::printf("%s\n", space.key(i).c_str());
  }
  std::fprintf(stderr, "%zu tasks\n", space.size());
  return 0;
}

int cmd_list() {
  for (const std::string& name : campaign::builtin_names()) {
    const CampaignSpec spec = campaign::builtin_spec(name);
    std::printf("%-14s %zu tasks  %s\n", name.c_str(),
                campaign::TaskSpace(spec).size(),
                spec.workload.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "run") return cmd_run(argc, argv);
    if (command == "resume") return cmd_resume(argc, argv);
    if (command == "status") {
      if (argc < 3) return usage();
      campaign::print_status(argv[2]);
      return 0;
    }
    if (command == "report") {
      if (argc < 3) return usage();
      std::string json_path;
      for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--json") {
          QELECT_CHECK(i + 1 < argc, "--json needs a value");
          json_path = argv[++i];
        } else {
          throw CheckError("unknown flag '" + flag + "'");
        }
      }
      campaign::print_report(argv[2], json_path);
      return 0;
    }
    if (command == "export") return cmd_export(argc, argv);
    if (command == "compact") return cmd_compact(argc, argv);
    if (command == "tasks") return cmd_tasks(argc, argv);
    if (command == "list") return cmd_list();
    if (command == "serve") return tools::serve_main(argc, argv, 2);
    if (command == "query") return tools::query_main(argc, argv, 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qelect %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
