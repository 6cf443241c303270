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
//               u64 base_records (records owed to the snapshot; 0 = none),
//               u64 spec_hash, str name, str spec_json
//   type 2   := one committed task (TaskRecord + its task_index)
//
// Records are appended in *commit* order -- worker shards commit out of
// order, each record carrying its logical task_index -- so the engine
// never stalls a finished task behind a slow earlier one.  Durability is
// group commit: StoreWriter::append stages a record, StoreWriter::commit
// returns once everything staged before it is fdatasync'd, and concurrent
// committers share one sync.  Recovery reads the longest valid frame
// prefix: the log ends at the first frame whose length or checksum fails
// (a torn tail, truncated and re-appended on reopen), so a crash at any
// byte loses at most the records a commit never acknowledged.
//
// The writer holds only what the log lacks: append encodes a frame into a
// staged tail, and commit swaps that tail out under the append lock and
// writes it outside it, so appends never wait on write(2) or fdatasync.
//
// Periodic compaction bounds recovery time.  It is built from the files,
// not from memory: the live snapshot's entries and the log's task frames
// are copied as encoded bodies (checked by their CRCs, never decoded),
// one per key -- the later one, as load_store resolves keys -- into
// `<path>.snap` (single-checksum snapshot, generation G+1); then the WAL
// is atomically rewritten as an empty tail at G+1.  Loading a compacted
// store reads the snapshot and replays only the tail -- no full-log
// rescan.  A crash between the two steps leaves the snapshot one
// generation ahead; reopen completes the compaction.
//
// A store is read only as a WAL: load_store refuses any other file, so
// StoreWriter, which loads first, leaves such a file as it was.
// store_to_jsonl (`qelect export`) turns a store into JSONL text in task
// order, which is how the kill/resume identity suite compares stores whose
// frames landed in different orders.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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

/// A parsed store (snapshot + WAL tail merged).
struct LoadedStore {
  bool exists = false;
  bool has_header = false;
  bool torn_tail = false;       // trailing frame was incomplete/corrupt
  std::size_t valid_bytes = 0;  // WAL prefix ending after the last intact
                                // frame; reopen truncates here
  std::uint64_t generation = 0;       // WAL generation (0 without a header)
  std::size_t snapshot_records = 0;   // records loaded from <path>.snap
  bool pending_compaction = false;    // snapshot is one generation ahead
                                      // (crash mid-compaction; reopen heals)
  StoreHeader header;
  std::vector<TaskRecord> records;  // in commit order (snapshot first)
  std::size_t low_water = 0;  // every task_index < low_water is present

  /// Last record per key (commit order; later records win).
  std::unordered_map<std::string, const TaskRecord*> by_key() const;
};

/// Reads a store; a missing file yields exists == false.  Corrupt frames
/// end the valid prefix (torn tail); a file that is not a WAL store, a
/// corrupt generation header, or an unreadable-but-required snapshot
/// throws CheckError.
LoadedStore load_store(const std::string& path);

/// Serializes the store as JSONL text: header line, then one record line
/// per task in task_index order, so stores holding the same records export
/// the same bytes whatever order their frames were committed in.
std::string store_to_jsonl(const LoadedStore& store);

/// Writes a snapshot file holding `records` (exposed so tests can stage
/// mid-compaction crash states).  Atomic: tmp file + rename + dir fsync.
void write_snapshot_file(const std::string& snap_path,
                         const StoreHeader& header, std::uint64_t generation,
                         const std::vector<TaskRecord>& records);

struct StoreOptions {
  /// Auto-compact once this many records have been appended since the
  /// last compaction AND the tail has outgrown the snapshot (so total
  /// snapshot work stays linear).  0 disables automatic compaction.
  std::size_t compact_every = 0;
};

/// Append-side of the store.  Opening verifies the spec hash against
/// `header` (CheckError on mismatch -- wrong store for this campaign, or a
/// file that is not a WAL store, which is left untouched), truncates a
/// torn tail, completes an interrupted compaction, and creates parent
/// directories as needed.
/// Thread-safe: appends stage, commit() group-syncs.
class StoreWriter {
 public:
  StoreWriter(const std::string& path, const StoreHeader& header,
              StoreOptions options = {});
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Stages one record.  NOT yet durable: durability (and the crash
  /// guarantee) attaches at commit().
  void append(const TaskRecord& record);

  /// Makes every record appended before this call durable (fdatasync).
  /// Concurrent commits coalesce: whichever thread holds the sync lock
  /// flushes and syncs for everyone staged so far.
  void commit();

  /// Snapshots every known record to `<path>.snap` -- one per key, the
  /// later one winning -- and resets the WAL to an empty tail at the next
  /// generation.  Loading afterwards replays only records appended after
  /// this point.
  void compact();

  const std::string& path() const { return path_; }
  std::uint64_t generation() const { return generation_; }
  /// Records known to the writer (loaded at open + appended since; after a
  /// compaction, the snapshot's records + appended since).
  std::size_t record_count() const;

 private:
  void open_fresh_locked(std::uint64_t generation, std::uint64_t base);
  std::uint64_t write_staged_locked();
  void compact_locked();

  std::string path_;
  StoreHeader header_;
  StoreOptions options_;

  mutable std::mutex write_mu_;  // guards staged_, appended_, records_
  /// Task frames appended since the last write(2), laid end to end: the
  /// only records the writer holds in memory.
  std::string staged_;
  std::uint64_t appended_ = 0;  // records appended through this writer
  std::size_t records_ = 0;

  std::mutex sync_mu_;  // serializes write(2) + fdatasync and compaction;
                        // guards every member below
  int fd_ = -1;
  std::string writing_;  // the tail being written; swapped with staged_
  std::uint64_t synced_ = 0;  // appends made durable (fdatasync/snapshot)
  std::uint64_t compacted_at_ = 0;  // appends the live snapshot covers
  std::uint64_t generation_ = 1;
  std::uint64_t snapshot_base_ = 0;  // records in the live snapshot
};

std::string header_to_json(const StoreHeader& header);

}  // namespace qelect::campaign
