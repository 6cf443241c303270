// The campaign engine: sharded, fault-isolated, resumable execution.
//
// run_campaign builds the spec's TaskSpace (task.hpp), loads the result
// store, skips every task whose key already has a terminal record, and
// executes the remainder on a pool of worker shards (dynamic claiming, so
// one expensive task never serializes a block of cheap ones behind it).
// The engine keeps only the pending task indices; a worker fills each
// task it claims from the space.  Each task attempt runs
// under a cooperative deadline and full exception isolation: a throwing or
// timed-out task is retried up to the configured budget and then committed
// as `failed`/`timeout` with its error text -- sibling shards never notice.
//
// Such a record used all `retries + 1` attempts of its budget, so a run
// under the same or a smaller `retries` runs none of them.  A run under a
// larger `retries` (and, for timeouts, a longer deadline) runs exactly
// those tasks again, and the store resolves each key to its later record.
// A run's `retries` is EngineOptions::retries, else the spec's -- not the
// budget the records were written under, which the store does not keep.
//
// Batch-eligible specs (batch.hpp) claim slabs instead of single tasks:
// up to kMaxSlabReplicas adjacent pending tasks of one instance, run in
// lockstep and staged as one group, with the scalar path's records.
//
// Shards only stage their completions, in completion order -- so a
// finished task never waits on a slower earlier one.  One commit thread
// per run makes everything staged durable every 10 ms (one write and one
// fdatasync, whatever the shard count), and once more after the shards
// join; only then are those records acknowledged, in staging order.  A
// kill loses at most the last ~10 ms of completions.  Each record carries
// its task_index, and the engine tracks the low-water mark (every task
// below it is terminal).  Any kill point leaves a store whose records
// are an exact logical subset of the campaign: resuming runs exactly the
// missing tasks, so `qelect export` of an interrupted-then-resumed store is
// byte-identical to an uninterrupted one (with deterministic == true
// zeroing wall-clock durations, the one nondeterministic field).
//
// Live progress streams through the qelect_trace sink API: begin_run
// carries the campaign shape (label = name, max_steps = task count,
// agent_count = shards), the commit thread fires one TaskOk/TaskFail event
// per durable record (step = acknowledgement index, agent = shard, node =
// task index), and end_run summarizes (total_moves = ok count,
// total_board_accesses = failures).
// Attach a JsonlSink for a machine-readable progress feed or a
// CountingSink for per-shard throughput, exactly as with simulator runs.
#pragma once

#include <cstddef>
#include <string>

#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/store.hpp"

namespace qelect::trace {
class TraceSink;
}  // namespace qelect::trace

namespace qelect::campaign {

/// The most worker shards run_campaign starts; it refuses more.
inline constexpr unsigned kMaxShards = 256;

struct EngineOptions {
  /// Worker shards; 0 = hardware concurrency (clamped to the task count).
  /// At most kMaxShards.
  unsigned shards = 0;
  /// Override spec.retries when >= 0.  A stored failed or timed-out
  /// record with at most this many attempts runs again.
  int retries = -1;
  /// Override spec.timeout_seconds when >= 0.
  double timeout_seconds = -1;
  /// Write duration_seconds as 0 so stores are byte-reproducible.
  bool deterministic = false;
  /// Stage exactly this many newly executed tasks, then stop; the final
  /// commit makes them durable (0 = run to completion).  The simulated
  /// mid-run kill: the store is left a valid prefix checkpoint, exactly
  /// like a crash between commits.
  std::size_t stop_after = 0;
  /// Live progress sink (see header comment); may be null.
  trace::TraceSink* progress = nullptr;
  /// Print one status line per `echo_every` durable records and per
  /// failure to stdout (0 = silent).
  std::size_t echo_every = 0;
  /// Store auto-compaction threshold (see StoreOptions::compact_every);
  /// 0 disables compaction during the run.
  std::size_t compact_every = 0;
};

struct CampaignResult {
  std::size_t total = 0;     // tasks in the expansion
  std::size_t skipped = 0;   // already terminal in the store (not re-run)
  std::size_t executed = 0;  // made durable by this invocation
  std::size_t ok = 0;        // of executed
  std::size_t failed = 0;    // of executed (exhausted retries)
  std::size_t timeout = 0;   // of executed (deadline tripped, all attempts)
  std::size_t retried = 0;   // extra attempts beyond the first, summed
  bool stopped_early = false;
  /// Every task with index < low_water is terminal in the store (tasks at
  /// or above it may also be done -- commits land out of order).
  std::size_t low_water = 0;
  bool complete() const { return skipped + executed == total; }
  double wall_seconds = 0;
};

/// Runs (or resumes -- the store decides) a campaign against the store at
/// `store_path`.  A store whose intact header embeds JSON that parses equal
/// to `spec` (e.g. one that still carries "backend") keeps that header.
/// Throws CheckError for spec/store mismatches and store I/O errors (the
/// first error cancels the run and is rethrown once every thread has
/// joined), and for options.shards above kMaxShards before it opens the
/// store or starts a thread; task failures never throw.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const std::string& store_path,
                            const EngineOptions& options = {});

}  // namespace qelect::campaign
