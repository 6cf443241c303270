// Campaign store commit/recovery throughput (BENCH_store.json).
//
// Measures the two halves of the store that bound a campaign run:
//
//   * commit throughput -- how fast records become durable.  "Commit"
//     means fdatasync'd: the pre-WAL JSONL store acknowledged every task
//     after a stdio flush that never reached the disk (the durability bug
//     this PR fixes), so the honest baseline is the same writer with the
//     one-line fix it needed -- an fdatasync at each acknowledgement,
//     i.e. per record, since the JSONL store had no batching to offer.
//     Cases:
//       jsonl_commit_flush_only   the old writer verbatim (flush, no sync;
//                                 NOT durable -- kept for transparency)
//       jsonl_commit_durable_each the old writer + fdatasync per record
//                                 (the minimal fix meeting its per-record
//                                 acknowledgement contract)
//       wal_commit_group          StoreWriter's single-writer path:
//                                 binary append + one fdatasync per
//                                 kCommitBatch records (group commit).
//                                 The engine's shards stage through
//                                 StagedFrames and commit(stages)
//                                 instead, which shares this write and
//                                 fdatasync but not append's lock
//       wal_commit_durable_each   StoreWriter syncing per record -- the
//                                 floor group commit amortizes away
//   * recovery -- wal_load_tail loads a full 10^6-record log, which is
//     what resume/report do on a long-running campaign (a compacted log
//     whose keys are unique is the same frames).
//
// The ISSUE acceptance bar is the wal_vs_jsonl counter: >= 10x commit
// throughput at 10^6 records, comparing the two stores at matched
// durability (group-committed WAL vs per-record-durable JSONL; the
// durable JSONL leg is measured over fewer records because at ~170 us
// per fdatasync a 10^6-record sample would run for minutes -- its rate
// is per-record flat).  wal_vs_jsonl_nondurable records the bonus fact
// that the WAL also beats the old non-durable writer outright, page
// cache against physical disk.  bench_summary.py --strict gates on
// wal_vs_jsonl and on baseline_records_per_second (the committed
// quiet-box floor for the group-commit path).
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "qelect/campaign/store.hpp"

namespace fs = std::filesystem;

namespace {

using namespace qelect::campaign;

StoreHeader bench_header() {
  StoreHeader header;
  header.name = "bench-store";
  header.spec_hash = 0x00c0ffee5707e5ull;
  header.spec_json = R"({"name":"bench-store","suites":[]})";
  return header;
}

/// A synthetic record shaped like the engine's real output: composite key,
/// a few metrics, occasional timeout with an error string.
TaskRecord make_record(std::size_t i) {
  TaskRecord record;
  record.key = "elect/ring(" + std::to_string(6 + i % 60) +
               ")/p=" + std::to_string(i) + "/s=1";
  record.attempts = 1 + static_cast<int>(i % 3 == 0);
  record.duration_seconds = 1e-4 * static_cast<double>(i % 97);
  record.task_index = i;
  if (i % 41 == 0) {
    record.outcome = "timeout";
    record.error = "deadline exceeded after 1.0s";
  } else {
    record.outcome = "ok";
  }
  record.metrics = {
      {"moves", static_cast<double>(i * 7 % 1003)},
      {"rounds", static_cast<double>(i % 29)},
      {"messages", static_cast<double>(i * 13 % 4099)},
  };
  return record;
}

/// The pre-WAL store's append loop, byte for byte: header line once, then
/// one JSON line + stdio flush per record.  When `sync_each` is set, adds
/// the fdatasync the old writer was missing, making each acknowledgement
/// actually durable.
void jsonl_commit_all(const std::string& path, const StoreHeader& header,
                      const std::vector<TaskRecord>& records,
                      std::size_t count, bool sync_each) {
  std::ofstream out(path, std::ios::trunc);
  const int fd = sync_each ? ::open(path.c_str(), O_WRONLY) : -1;
  out << header_to_json(header) << '\n';
  out.flush();
  for (std::size_t i = 0; i < count; ++i) {
    out << records[i].to_json() << '\n';
    out.flush();
    if (fd >= 0) ::fdatasync(fd);
  }
  if (fd >= 0) ::close(fd);
}

void remove_store(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

int main() {
  qelect::benchjson::Reporter reporter("store");
  const bool smoke = reporter.smoke();

  const std::size_t kRecords = smoke ? 20000 : 1000000;
  const std::size_t kDurableRecords = smoke ? 50 : 2000;
  const std::size_t kCommitBatch = 1024;  // the engine's slab-sized commit
  const int kSamples = smoke ? 1 : 3;

  const fs::path scratch =
      fs::temp_directory_path() / "qelect_bench_store_scratch";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string jsonl_path = (scratch / "results.jsonl").string();
  const std::string wal_path = (scratch / "results.qws").string();
  const StoreHeader header = bench_header();

  std::vector<TaskRecord> records;
  records.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) records.push_back(make_record(i));

  // --- Commit throughput ---------------------------------------------------

  const double jsonl_flush_seconds = reporter.bench(
      "jsonl_commit_flush_only",
      [&] {
        jsonl_commit_all(jsonl_path, header, records, kRecords,
                         /*sync_each=*/false);
      },
      kSamples);
  const double jsonl_flush_rps =
      static_cast<double>(kRecords) / jsonl_flush_seconds;
  reporter.counter("jsonl_commit_flush_only", "records",
                   static_cast<double>(kRecords));
  reporter.counter("jsonl_commit_flush_only", "records_per_second",
                   jsonl_flush_rps);

  const double jsonl_durable_seconds = reporter.bench(
      "jsonl_commit_durable_each",
      [&] {
        jsonl_commit_all(jsonl_path, header, records, kDurableRecords,
                         /*sync_each=*/true);
      },
      kSamples);
  const double jsonl_durable_rps =
      static_cast<double>(kDurableRecords) / jsonl_durable_seconds;
  reporter.counter("jsonl_commit_durable_each", "records",
                   static_cast<double>(kDurableRecords));
  reporter.counter("jsonl_commit_durable_each", "records_per_second",
                   jsonl_durable_rps);

  const double wal_seconds = reporter.bench(
      "wal_commit_group",
      [&] {
        remove_store(wal_path);
        StoreWriter writer(wal_path, header);
        for (std::size_t i = 0; i < kRecords; ++i) {
          writer.append(records[i]);
          if ((i + 1) % kCommitBatch == 0) writer.commit();
        }
        writer.commit();
      },
      kSamples);
  const double wal_rps = static_cast<double>(kRecords) / wal_seconds;
  const double wal_best_rps =
      static_cast<double>(kRecords) / reporter.best_of("wal_commit_group");
  const double wal_vs_jsonl = wal_rps / jsonl_durable_rps;
  const double wal_vs_jsonl_nondurable = wal_rps / jsonl_flush_rps;

  // Committed floor from a quiet 1-core box with a ~200 MB/s disk
  // (docs/STORAGE.md); bench_summary.py --strict flags non-smoke runs
  // whose best sample dips below 0.85x of it.
  constexpr double kBaselineRecordsPerSecond = 8.0e5;
  reporter.counter("wal_commit_group", "records",
                   static_cast<double>(kRecords));
  reporter.counter("wal_commit_group", "commit_batch",
                   static_cast<double>(kCommitBatch));
  reporter.counter("wal_commit_group", "records_per_second", wal_rps);
  reporter.counter("wal_commit_group", "best_records_per_second",
                   wal_best_rps);
  reporter.counter("wal_commit_group", "baseline_records_per_second",
                   kBaselineRecordsPerSecond);
  reporter.counter("wal_commit_group", "speedup_vs_baseline",
                   wal_rps / kBaselineRecordsPerSecond);
  reporter.counter("wal_commit_group", "wal_vs_jsonl", wal_vs_jsonl);
  reporter.counter("wal_commit_group", "wal_vs_jsonl_nondurable",
                   wal_vs_jsonl_nondurable);

  const double durable_seconds = reporter.bench(
      "wal_commit_durable_each",
      [&] {
        remove_store(wal_path);
        StoreWriter writer(wal_path, header);
        for (std::size_t i = 0; i < kDurableRecords; ++i) {
          writer.append(records[i]);
          writer.commit();
        }
      },
      kSamples);
  reporter.counter("wal_commit_durable_each", "records",
                   static_cast<double>(kDurableRecords));
  reporter.counter("wal_commit_durable_each", "records_per_second",
                   static_cast<double>(kDurableRecords) / durable_seconds);

  // --- Recovery ------------------------------------------------------------

  // Rebuild the store once (the timed loops above end with a partial
  // durable-each run) so the load case sees all kRecords.
  remove_store(wal_path);
  {
    StoreWriter writer(wal_path, header);
    for (const TaskRecord& record : records) writer.append(record);
    writer.commit();
  }
  const double wal_log_bytes = static_cast<double>(fs::file_size(wal_path));

  const double tail_seconds = reporter.bench(
      "wal_load_tail",
      [&] {
        const LoadedStore store = load_store(wal_path);
        qelect::benchjson::keep(store.records.size());
      },
      kSamples);
  reporter.counter("wal_load_tail", "records_per_second",
                   static_cast<double>(kRecords) / tail_seconds);
  reporter.counter("wal_load_tail", "log_bytes", wal_log_bytes);

  std::printf(
      "store: %zu records\n"
      "  commit  jsonl(flush only, NOT durable) %.0f rec/s   "
      "jsonl(durable each) %.0f rec/s\n"
      "          wal(group commit) %.0f rec/s   "
      "wal(durable each) %.0f rec/s\n"
      "          wal_vs_jsonl %.0fx (matched durability)   "
      "%.1fx vs the non-durable legacy writer\n"
      "  load    wal tail %.0f rec/s\n",
      kRecords, jsonl_flush_rps, jsonl_durable_rps, wal_rps,
      static_cast<double>(kDurableRecords) / durable_seconds, wal_vs_jsonl,
      wal_vs_jsonl_nondurable,
      static_cast<double>(kRecords) / tail_seconds);

  fs::remove_all(scratch);
  reporter.write();
  return 0;
}
