#include "qelect/campaign/engine.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "qelect/campaign/batch.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/parallel.hpp"

namespace qelect::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// How often the commit thread makes staged records durable: a kill loses
/// at most about this much of a run's completions, which resume re-runs.
constexpr std::chrono::milliseconds kCommitInterval{10};

/// A staged record as the commit thread acknowledges it.  At least 10 ms
/// of completions queue at once (several thousand records on a many-seed
/// elect campaign), and the two queues keep their peak capacity, so an ok
/// record keeps only what the counts and the progress event need: staging
/// whole TaskRecords costs such campaigns peak memory and CPU per task.
struct Staged {
  std::size_t task_index = 0;
  unsigned shard = 0;
  int attempts = 1;
  std::unique_ptr<TaskRecord> not_ok;  // the record, when it is echoed
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

  // Load-before-write: terminal keys are skipped, everything else runs.
  const LoadedStore prior = load_store(store_path);
  // An intact header whose JSON serializes differently but describes this
  // very spec (a dropped field such as "backend") keeps its own hash.
  if (prior.has_header && prior.header.spec_hash != header.spec_hash &&
      spec_json_hash(prior.header.spec_json) == prior.header.spec_hash &&
      CampaignSpec::from_json_text(prior.header.spec_json) == spec) {
    header = prior.header;
  }
  const int retries = options.retries >= 0 ? options.retries : spec.retries;

  // Task indices in task order; only a store that already holds records
  // needs keys formatted before the run.  A failed or timed-out record
  // used every attempt of the budget it ran under, so it runs again only
  // under a larger `retries`, and its new record wins.
  std::vector<std::size_t> pending;
  std::vector<bool> terminal(total, false);
  if (prior.records.empty()) {
    pending.resize(total);
    std::iota(pending.begin(), pending.end(), std::size_t{0});
  } else {
    const auto done = prior.by_key();
    for (std::size_t i = 0; i < total; ++i) {
      const auto it = done.find(space.key(i));
      if (it == done.end() ||
          (!it->second->ok() && it->second->attempts <= retries)) {
        pending.push_back(i);
      } else {
        terminal[i] = true;
      }
    }
  }

  CampaignResult result;
  result.total = total;
  result.skipped = total - pending.size();

  StoreOptions store_options;
  store_options.compact_every = options.compact_every;
  StoreWriter writer(store_path, header, store_options);

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
      resolve_parallel_threads(options.shards, units == 0 ? 1 : units);

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

  // Workers only stage: each completed record is appended to the writer
  // (encoded, not yet durable) and queued for acknowledgement, both under
  // `mu`.  One commit thread makes the staged records durable every
  // kCommitInterval and only then acknowledges them -- counts, progress
  // event, echo line -- in staging order.  Records carry their
  // task_index, so commit order need not be task order; the low-water
  // mark tracks the longest acknowledged task prefix.
  std::mutex mu;
  std::condition_variable workers_done_cv;
  bool workers_done = false;
  std::vector<Staged> staged;
  std::size_t staged_count = 0;
  std::exception_ptr first_error;
  std::size_t low_water = 0;
  while (low_water < total && terminal[low_water]) ++low_water;
  CancelSource stop;
  const CancelToken stop_token = stop.token();
  std::atomic<std::size_t> next_claim{0};

  // The first exception from any thread cancels the run; run_campaign
  // rethrows it once every thread has joined.
  auto fail = [&](std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::move(error);
    }
    stop.cancel();
  };

  // Commit thread only: `s` is durable now.
  auto acknowledge = [&](const Staged& s) {
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
      event.agent = s.shard;
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

  auto committer = [&] {
    std::vector<Staged> batch;
    bool last = false;
    try {
      while (!last) {
        {
          std::unique_lock<std::mutex> lock(mu);
          workers_done_cv.wait_for(lock, kCommitInterval,
                                   [&] { return workers_done; });
          last = workers_done;
          batch.swap(staged);
        }
        if (batch.empty()) continue;
        writer.commit();
        for (const Staged& s : batch) acknowledge(s);
        batch.clear();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };

  // Runs `slab` (a claimed unit's filled tasks) into `records`; any task
  // whose replica failed (and the whole slab if compilation throws) falls
  // back to the scalar path, so worst case equals the scalar path plus one
  // failed attempt.
  auto execute_slab = [&](std::span<const TaskSpec> slab,
                          std::vector<TaskRecord>& records) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::optional<std::vector<std::pair<std::string, double>>>>
        metrics;
    try {
      metrics = run_elect_slab(slab);
    } catch (const std::exception&) {
      metrics.assign(slab.size(), std::nullopt);
      batch_stats().scalar_fallbacks.fetch_add(slab.size(),
                                               std::memory_order_relaxed);
    }
    const double share =
        options.deterministic
            ? 0
            : seconds_since(t0) / static_cast<double>(slab.size());
    for (std::size_t i = 0; i < slab.size(); ++i) {
      if (!metrics[i].has_value()) {
        records.push_back(execute_task(slab[i], spec, retries,
                                       timeout_seconds,
                                       options.deterministic));
        continue;
      }
      TaskRecord& record = records.emplace_back();
      record.key = slab[i].key;
      record.outcome = "ok";
      record.attempts = 1;
      record.duration_seconds = share;
      record.metrics = std::move(*metrics[i]);
    }
  };

  // Stages at most stop_after records in all: the one that would pass it
  // cancels the run instead.  Each claimed unit is filled from `space`
  // into `claimed`, whose TaskSpecs keep their buffers from claim to claim.
  auto worker = [&](unsigned shard) {
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
        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t slot = begin; slot < end; ++slot) {
          if (options.stop_after > 0 && staged_count >= options.stop_after) {
            result.stopped_early = true;
            stop.cancel();
            break;
          }
          TaskRecord& record = records[slot - begin];
          record.task_index = pending[slot];
          writer.append(record);
          ++staged_count;
          Staged& s = staged.emplace_back();
          s.task_index = pending[slot];
          s.shard = shard;
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
