#include "qelect/campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "qelect/campaign/batch.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resolves a requested shard count: 0 picks hardware_concurrency(), and
/// the result is clamped to `units` (never more shards than claim units).
unsigned resolve_shards(unsigned requested, std::size_t units) {
  if (requested == 0) {
    requested = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::min<std::size_t>(requested, units));
}

/// How often the commit thread makes staged records durable: a kill loses
/// at most about this much of a run's completions, which resume re-runs.
constexpr std::chrono::milliseconds kCommitInterval{10};

/// A staged record as the commit thread acknowledges it, queued beside
/// its frame.  At least 10 ms of completions queue at once (several
/// thousand records on a many-seed elect campaign), and the queues keep
/// their peak capacity, so an ok record keeps only what the counts and the
/// progress event need: staging whole TaskRecords costs such campaigns
/// peak memory and CPU per task.
struct Staged {
  std::size_t task_index = 0;
  int attempts = 1;
  std::unique_ptr<TaskRecord> not_ok;  // the record, when it is echoed
};

/// One shard's completions since the commit thread last took them: their
/// encoded frames and, in the same order, their acknowledgement entries.
/// Only the shard and the commit thread lock it, and each stage has cache
/// lines of its own, so shards share no lock and no written line.
struct alignas(64) ShardStage {
  std::mutex mu;
  StagedFrames frames;
  std::vector<Staged> entries;
};

/// One task, all attempts.  Exceptions never escape: every failure mode
/// becomes a record.
TaskRecord execute_task(const TaskSpec& task, const CampaignSpec& spec,
                        int retries, double timeout_seconds,
                        bool deterministic) {
  TaskRecord record;
  record.key = task.key;
  const Clock::time_point t0 = Clock::now();
  bool last_was_timeout = false;
  for (int attempt = 1; attempt <= retries + 1; ++attempt) {
    record.attempts = attempt;
    try {
      if (!spec.inject.match.empty() && attempt <= spec.inject.fail_attempts &&
          task.key.find(spec.inject.match) != std::string::npos) {
        throw std::runtime_error("injected failure (attempt " +
                                 std::to_string(attempt) + ")");
      }
      const CancelSource deadline =
          CancelSource::with_timeout(timeout_seconds);
      record.metrics = run_task(task, deadline.token());
      record.outcome = "ok";
      record.error.clear();
      break;
    } catch (const Cancelled& e) {
      last_was_timeout = true;
      record.error = e.what();
    } catch (const std::exception& e) {
      last_was_timeout = false;
      record.error = e.what();
    } catch (...) {
      last_was_timeout = false;
      record.error = "unknown exception";
    }
    record.outcome = last_was_timeout ? "timeout" : "failed";
    record.metrics.clear();
  }
  record.duration_seconds = deterministic ? 0 : seconds_since(t0);
  return record;
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec,
                            const std::string& store_path,
                            const EngineOptions& options) {
  QELECT_CHECK(options.shards <= kMaxShards,
               "run_campaign: " + std::to_string(options.shards) +
                   " shards is above the limit of " +
                   std::to_string(kMaxShards));
  const Clock::time_point wall0 = Clock::now();
  const TaskSpace space(spec);
  const std::size_t total = space.size();

  StoreHeader header;
  header.name = spec.name;
  header.spec_json = spec.to_json();
  header.spec_hash = spec.spec_hash();

  // Load-before-write: terminal records are skipped, everything else runs.
  const LoadedStore prior = load_store(store_path);
  // An intact header whose JSON serializes differently but describes this
  // very spec (a dropped field such as "backend") keeps its own hash.
  if (prior.has_header && prior.header.spec_hash != header.spec_hash &&
      spec_json_hash(prior.header.spec_json) == prior.header.spec_hash &&
      CampaignSpec::from_json_text(prior.header.spec_json) == spec) {
    header = prior.header;
  }
  const int retries = options.retries >= 0 ? options.retries : spec.retries;

  // Each stored record must be the task its task_index names, and the
  // store is refused before the writer touches it.  (The writer refuses a
  // store of another spec by its hash.)  A failed or timed-out record used
  // every attempt of the budget it ran under, so it runs again only under
  // a larger `retries`, and its new record wins.
  CampaignResult result;
  result.total = total;
  std::vector<bool> terminal(total, false);
  if (prior.header.spec_hash == header.spec_hash) {
    check_store_records(space, prior, store_path);
    for (const TaskRecord& r : prior.records) {
      if (r.ok() || r.attempts > retries) {
        terminal[r.task_index] = true;
        if (!r.ok()) ++result.skipped_not_ok;
      }
    }
  }
  // Task indices in task order; a store without records needs no scan.
  std::vector<std::size_t> pending(total);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  if (!prior.records.empty()) {
    std::erase_if(pending, [&](std::size_t i) { return terminal[i]; });
  }
  result.skipped = total - pending.size();

  StoreWriter writer(store_path, header, prior);

  const double timeout_seconds = options.timeout_seconds >= 0
                                     ? options.timeout_seconds
                                     : spec.timeout_seconds;
  const bool batch = batch_eligible(spec, timeout_seconds);

  // Claim units are contiguous ranges of `pending`: unit u is slots
  // [bounds[u], bounds[u + 1]).  A scalar unit is one task; a slab is a run
  // of adjacent tasks of one instance (they differ only in color seed),
  // capped at kMaxSlabReplicas.  Completions commit as they finish -- the
  // WAL records task_index, so resume identity holds at logical-task
  // granularity without task-order commits.
  std::vector<std::size_t> bounds{0};
  for (std::size_t slot = 0; slot < pending.size();) {
    const std::size_t instance = space.instance_of(pending[slot]);
    std::size_t end = slot + 1;
    while (batch && end < pending.size() && end - slot < kMaxSlabReplicas &&
           space.instance_of(pending[end]) == instance) {
      ++end;
    }
    bounds.push_back(end);
    slot = end;
  }
  const std::size_t units = bounds.size() - 1;

  const unsigned shards =
      resolve_shards(options.shards, units == 0 ? 1 : units);

  if (options.progress != nullptr) {
    trace::RunMetadata meta;
    meta.label = spec.name;
    meta.node_count = total;
    meta.agent_count = shards;
    meta.policy = "campaign";
    meta.seed = header.spec_hash;
    meta.max_steps = total;
    options.progress->begin_run(meta);
  }

  // Workers only stage: each shard encodes its completed records into its
  // own stage and queues their acknowledgement entries beside them.  One
  // commit thread takes every stage in shard order each kCommitInterval,
  // has the writer make them durable with one fdatasync for them all,
  // and only then acknowledges them -- counts, progress event, echo line
  // -- in that order.  Records carry their task_index, so commit order
  // need not be task order; the low-water mark tracks the longest
  // acknowledged task prefix.  `mu` guards only workers_done and
  // first_error.
  std::vector<ShardStage> stages(shards);
  std::mutex mu;
  std::condition_variable workers_done_cv;
  bool workers_done = false;
  std::exception_ptr first_error;
  std::size_t low_water = 0;
  while (low_water < total && terminal[low_water]) ++low_water;
  CancelSource stop;
  const CancelToken stop_token = stop.token();
  std::atomic<std::size_t> next_claim{0};
  // The records the units asked to stage, counted against
  // options.stop_after: it passes the budget only when some unit's records
  // did not all fit, that is when the run stopped early.
  std::atomic<std::size_t> budget_claimed{0};

  // The first exception from any thread cancels the run; run_campaign
  // rethrows it once every thread has joined.
  auto fail = [&](std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::move(error);
    }
    stop.cancel();
  };

  // Commit thread only: `s`, staged by `shard`, is durable now.
  auto acknowledge = [&](const Staged& s, unsigned shard) {
    terminal[s.task_index] = true;
    while (low_water < total && terminal[low_water]) ++low_water;
    ++result.executed;
    const bool ok = s.not_ok == nullptr;
    if (ok) {
      ++result.ok;
    } else if (s.not_ok->outcome == "timeout") {
      ++result.timeout;
    } else {
      ++result.failed;
    }
    result.retried += static_cast<std::size_t>(s.attempts - 1);
    if (options.progress != nullptr) {
      trace::TraceEvent event;
      event.step = result.executed - 1;
      event.agent = shard;
      event.kind = ok ? trace::TraceEvent::Kind::TaskOk
                      : trace::TraceEvent::Kind::TaskFail;
      event.node = static_cast<graph::NodeId>(s.task_index);
      options.progress->on_event(event);
    }
    if (options.echo_every > 0 &&
        (!ok || result.executed % options.echo_every == 0 ||
         result.executed == pending.size())) {
      if (ok) {
        std::printf("  [%zu/%zu] ok (%zu failed, %zu timeout)\n",
                    result.executed, pending.size(), result.failed,
                    result.timeout);
      } else {
        std::printf("  [%zu/%zu] %s %s: %s\n", result.executed,
                    pending.size(), s.not_ok->outcome.c_str(),
                    s.not_ok->key.c_str(), s.not_ok->error.c_str());
      }
      std::fflush(stdout);
    }
  };

  // Swaps each stage with a spare of its own, so both sides keep their
  // capacity, and writes the frames straight from the spares.
  auto committer = [&] {
    std::vector<StagedFrames> frames(shards);
    std::vector<std::vector<Staged>> entries(shards);
    bool last = false;
    try {
      while (!last) {
        {
          std::unique_lock<std::mutex> lock(mu);
          workers_done_cv.wait_for(lock, kCommitInterval,
                                   [&] { return workers_done; });
          last = workers_done;
        }
        bool staged = false;
        for (unsigned shard = 0; shard < shards; ++shard) {
          ShardStage& stage = stages[shard];
          const std::lock_guard<std::mutex> lock(stage.mu);
          frames[shard].swap(stage.frames);
          entries[shard].swap(stage.entries);
          staged |= !entries[shard].empty();
        }
        if (!staged) continue;
        writer.commit(frames);
        for (unsigned shard = 0; shard < shards; ++shard) {
          for (const Staged& s : entries[shard]) acknowledge(s, shard);
          entries[shard].clear();
        }
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };

  // Runs `slab` (a claimed unit's filled tasks) into `records`.  The
  // slab runner re-runs a replica that failed in batch on the scalar
  // World itself; a slab that throws as a whole runs task by task on the
  // scalar path, so the worst case equals the scalar path plus one failed
  // attempt.
  auto execute_slab = [&](std::span<const TaskSpec> slab,
                          std::vector<TaskRecord>& records) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<std::pair<std::string, double>>> metrics;
    try {
      metrics = run_elect_slab(slab);
    } catch (const std::exception&) {
      batch_stats().scalar_fallbacks.fetch_add(slab.size(),
                                               std::memory_order_relaxed);
      for (const TaskSpec& task : slab) {
        records.push_back(execute_task(task, spec, retries, timeout_seconds,
                                       options.deterministic));
      }
      return;
    }
    const double share =
        options.deterministic
            ? 0
            : seconds_since(t0) / static_cast<double>(slab.size());
    for (std::size_t i = 0; i < slab.size(); ++i) {
      TaskRecord& record = records.emplace_back();
      record.key = slab[i].key;
      record.outcome = "ok";
      record.attempts = 1;
      record.duration_seconds = share;
      record.metrics = std::move(metrics[i]);
    }
  };

  // Stages at most stop_after records in all: a unit claims its share of
  // the budget at once, stages what fits, and the unit that would pass
  // the budget cancels the run.  Each claimed unit is filled from `space`
  // into `claimed`, whose TaskSpecs keep their buffers from claim to claim.
  auto worker = [&](unsigned shard) {
    ShardStage& stage = stages[shard];
    std::vector<TaskSpec> claimed;
    std::vector<TaskRecord> records;
    try {
      for (;;) {
        if (stop_token.cancelled()) return;
        const std::size_t unit =
            next_claim.fetch_add(1, std::memory_order_relaxed);
        if (unit >= units) return;
        const std::size_t begin = bounds[unit];
        const std::size_t end = bounds[unit + 1];
        if (claimed.size() < end - begin) claimed.resize(end - begin);
        for (std::size_t slot = begin; slot < end; ++slot) {
          space.fill(pending[slot], claimed[slot - begin]);
        }
        records.clear();
        if (batch) {
          execute_slab(std::span<const TaskSpec>(claimed.data(), end - begin),
                       records);
        } else {
          records.push_back(execute_task(claimed[0], spec, retries,
                                         timeout_seconds,
                                         options.deterministic));
        }
        std::size_t fits = end - begin;
        if (options.stop_after > 0) {
          const std::size_t before =
              budget_claimed.fetch_add(fits, std::memory_order_relaxed);
          if (before + fits > options.stop_after) {
            fits = before < options.stop_after ? options.stop_after - before
                                               : 0;
            stop.cancel();
          }
        }
        const std::lock_guard<std::mutex> lock(stage.mu);
        for (std::size_t i = 0; i < fits; ++i) {
          TaskRecord& record = records[i];
          record.task_index = pending[begin + i];
          stage.frames.append(record);
          Staged& s = stage.entries.emplace_back();
          s.task_index = record.task_index;
          s.attempts = record.attempts;
          if (!record.ok()) {
            s.not_ok = std::make_unique<TaskRecord>(std::move(record));
          }
        }
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };

  std::thread commit_thread(committer);
  if (shards <= 1 || units <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(shards);
    for (unsigned t = 0; t < shards; ++t) pool.emplace_back(worker, t);
    for (std::thread& th : pool) th.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    workers_done = true;
  }
  workers_done_cv.notify_one();
  commit_thread.join();
  if (first_error) std::rethrow_exception(first_error);

  result.stopped_early =
      options.stop_after > 0 && budget_claimed.load() > options.stop_after;
  result.low_water = low_water;
  result.wall_seconds = seconds_since(wall0);
  if (options.progress != nullptr) {
    trace::RunSummary summary;
    summary.steps = result.executed;
    summary.total_moves = result.ok;
    summary.total_board_accesses = result.failed + result.timeout;
    summary.completed = result.complete();
    summary.step_limit = result.stopped_early;
    options.progress->end_run(summary);
  }
  return result;
}

}  // namespace qelect::campaign
