// The result store: an append-only binary WAL that doubles as the
// campaign's checkpoint.
//
// Layout of the store file (all integers little-endian):
//
//   "QWAL"                                    file magic
//   frame*                                    length-prefixed records
//
//   frame    := u32 payload_len | u32 crc32(payload) | payload
//   payload  := u8 type | body
//   type 1   := generation header: u32 format version, u64 generation,
//               u64 base_records (always 0; nonzero is refused),
//               u64 spec_hash, str name, str spec_json
//   type 2   := one committed task (TaskRecord + its task_index)
//
// Records are appended in *commit* order -- worker shards commit out of
// order, each record carrying its logical task_index -- so the engine
// never stalls a finished task behind a slow earlier one.  Durability is
// group commit: a record is staged, either by StoreWriter::append into the
// writer's own staged tail or by StagedFrames::append into a stage the
// caller owns, and StoreWriter::commit returns once everything it covers
// is fdatasync'd: the writer's tail and the stages passed to it, written
// in that order, one write(2) each, before one fdatasync.  Recovery reads
// the longest valid frame prefix: the log ends at the first frame whose
// length or checksum fails (a torn tail, truncated and re-appended on
// reopen), so a crash at any byte loses at most the records a commit never
// acknowledged.
//
// The writer holds only what the log lacks: the staged tail, which one
// lock guards together with the file, the record count and the
// generation.  An append waits while another thread commits.  A caller
// that stages from several threads (run_campaign) gives each thread a
// StagedFrames of its own instead, so the threads share no lock: each
// encodes outside the writer, and only commit reads the stages.
//
// The log is the whole store.  Compaction (`qelect compact`; a run never
// compacts) rewrites it with one frame per key -- the later one, as
// load_store resolves keys -- copied whole from the log (checked by its
// CRC, never decoded), under a header at generation G+1, through a temp
// file renamed over the log.  It reclaims only records a re-run
// superseded; a crash leaves the old log, plus at most a stale
// `<path>.tmp` that nothing reads.
//
// A store is read only as a WAL: load_store refuses any other file, and a
// log whose header owes records to a `<path>.snap` snapshot (written by
// older versions' compaction), so StoreWriter, which opens only a store
// load_store has read, leaves such files as they were.
// store_to_jsonl (`qelect export`) turns a store into JSONL text in task
// order, which is how the kill/resume identity suite compares stores whose
// frames landed in different orders.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qelect::campaign {

/// One committed task.
struct TaskRecord {
  std::string key;
  std::string outcome;  // "ok" | "failed" | "timeout"
  int attempts = 1;
  double duration_seconds = 0;
  std::string error;  // last attempt's exception text; empty when ok
  std::vector<std::pair<std::string, double>> metrics;
  /// Position in the campaign's deterministic task expansion: the record's
  /// logical identity.  Commit order in the WAL is not task order; exports
  /// and the low-water mark are computed over this index.
  std::uint64_t task_index = 0;

  bool ok() const { return outcome == "ok"; }

  /// Metric lookup; returns `fallback` when absent.
  double metric_or(const std::string& name, double fallback) const;

  /// The record's line in `qelect export` text (without trailing
  /// newline); fixed field order.
  std::string to_json() const;
};

/// The campaign identity embedded in the generation header (and the first
/// line of an export).
struct StoreHeader {
  std::string name;
  std::uint64_t spec_hash = 0;
  std::string spec_json;  // canonical CampaignSpec serialization
};

/// A parsed store.
struct LoadedStore {
  bool exists = false;
  bool has_header = false;
  bool torn_tail = false;       // trailing frame was incomplete/corrupt
  std::size_t valid_bytes = 0;  // WAL prefix ending after the last intact
                                // frame; reopen truncates here
  std::uint64_t generation = 0;  // WAL generation (0 without a header)
  StoreHeader header;
  /// One per key, in commit order: a later record of a key replaces the
  /// earlier one in its place.
  std::vector<TaskRecord> records;
  std::size_t low_water = 0;  // every task_index < low_water is present
};

/// Reads a store; a missing file yields exists == false.  Corrupt frames
/// end the valid prefix (torn tail); a file that is not a WAL store, a
/// corrupt generation header, or a header that owes records to a
/// snapshot (base_records > 0) throws CheckError.
LoadedStore load_store(const std::string& path);

/// The generation header alone, read from the WAL's first frame without
/// reading a record: null for a missing store or one whose header never
/// reached the disk.  Throws as load_store does for a file that is not a
/// WAL store or a corrupt header.
std::optional<StoreHeader> load_store_header(const std::string& path);

/// The store's records in task_index order, as pointers into
/// `store.records` (a stable sort: records that share an index keep their
/// commit order).  Exports, failure lists and report folds read a store in
/// this order, so stores holding the same records read the same whatever
/// order their frames were committed in.
std::vector<const TaskRecord*> records_in_task_order(const LoadedStore& store);

/// Serializes the store as JSONL text: header line, then one record line
/// per task in task_index order.
std::string store_to_jsonl(const LoadedStore& store);

/// Task frames staged by one caller, outside any lock: append encodes a
/// record as a complete task frame (the format stays inside store.cpp),
/// and StoreWriter::commit(stages) writes the frames and empties the
/// stage, which keeps its capacity.  Not thread-safe: a caller that
/// shares a stage between threads guards it itself.
class StagedFrames {
 public:
  /// Encodes `record` as one task frame.  NOT yet durable: durability
  /// attaches when a StoreWriter commits this stage.
  void append(const TaskRecord& record);

  /// Frames staged since the last commit.
  std::size_t size() const { return frames_; }
  bool empty() const { return frames_ == 0; }

  /// Exchanges contents and capacity with `other`.
  void swap(StagedFrames& other) noexcept {
    bytes_.swap(other.bytes_);
    std::swap(frames_, other.frames_);
  }

 private:
  friend class StoreWriter;

  void clear() {
    bytes_.clear();
    frames_ = 0;
  }

  std::string bytes_;  // the frames, laid end to end
  std::size_t frames_ = 0;
};

/// Append-side of the store.  Opening verifies the spec hash against
/// `header` (CheckError on mismatch -- wrong store for this campaign, or a
/// file load_store refuses, which is left untouched), truncates a torn
/// tail, and creates parent directories as needed.
/// Thread-safe: one lock serializes appends, commits and compaction.
class StoreWriter {
 public:
  /// Loads the store at `path`, then opens it as the constructor below.
  StoreWriter(const std::string& path, const StoreHeader& header);
  /// Opens the store at `path` from `prior`, which must be what
  /// load_store(path) returned, with no write to the store since.  A
  /// caller that loads the store anyway (run_campaign, `qelect compact`)
  /// passes its load instead of having the store decoded twice.
  StoreWriter(const std::string& path, const StoreHeader& header,
              const LoadedStore& prior);
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Stages one record in the writer's tail.  NOT yet durable: durability
  /// (and the crash guarantee) attaches at commit().
  void append(const TaskRecord& record);

  /// Makes every record appended before this call durable (fdatasync).
  void commit();

  /// commit() that also makes `stages` durable: the writer's own staged
  /// tail and then each non-empty stage, in order, go to the log, one
  /// write(2) each, before one fdatasync, and the stages are left empty.
  /// Returns at once when there is nothing to write.  The caller must keep
  /// other threads off `stages` until it returns.
  void commit(std::span<StagedFrames> stages);

  /// Writes the staged tail, then rewrites the log at the next generation
  /// with one frame per key (the later one winning), dropping the records
  /// re-runs superseded.
  void compact();

  const std::string& path() const { return path_; }
  std::uint64_t generation() const;
  /// Records known to the writer: loaded at open (or kept by the last
  /// compaction) + appended or committed from stages since.
  std::size_t record_count() const;

 private:
  /// Replaces the log with the magic, a header at `generation` and
  /// `frames`, and reopens it for appending.
  void rewrite_locked(std::uint64_t generation,
                      const std::vector<std::string_view>& frames);
  /// Writes the staged tail and then `stages` to the log, leaving them
  /// empty.
  void write_staged_locked(std::span<StagedFrames> stages);

  std::string path_;
  StoreHeader header_;

  mutable std::mutex mu_;  // guards every member below
  /// Task frames appended since the last write: the only records the
  /// writer holds in memory.
  StagedFrames staged_;
  int fd_ = -1;
  std::size_t records_ = 0;
  std::uint64_t generation_ = 1;
};

std::string header_to_json(const StoreHeader& header);

}  // namespace qelect::campaign
