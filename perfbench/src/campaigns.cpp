// The campaign workloads (landscape, elect-sweep, fault-sweep): the
// untraced engine run, the traced per-task loop, and the kernel pass.
//
// Every call goes through the campaign engine's public surface:
// run_campaign with a progress TraceSink, expand_tasks, run_task,
// StoreWriter and load_store, and the caches' stats() accessors.  Counter
// structs are read field by field through `requires` checks, so a renamed
// field reads as missing instead of breaking the build.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "probe.hpp"
#include "qelect/campaign/batch.hpp"
#include "qelect/campaign/builtin.hpp"
#include "qelect/campaign/engine.hpp"
#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/store.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/campaign/world_pool.hpp"
#include "qelect/cayley/recognition.hpp"
#include "qelect/cayley/translation.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/elect_batch_cache.hpp"
#include "qelect/fault/injector.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/cert_cache.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/cancel.hpp"

namespace perfbench {

using qelect::campaign::CampaignSpec;
using qelect::campaign::TaskRecord;
using qelect::campaign::TaskSpec;

namespace {

/// Color seeds per variant: the elect sweep's seed count fills a run; the
/// fault sweep scales the built-in degradation spec.
std::size_t elect_seeds(bool small) { return small ? 4 : 1024; }
std::size_t fault_seeds(bool small) { return small ? 1 : 64; }

std::vector<std::uint64_t> seed_window(std::uint64_t variant,
                                       std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(variant * count + i + 1);
  return seeds;
}

}  // namespace

CampaignSpec workload_spec(const std::string& workload, std::uint64_t seed,
                           bool small) {
  namespace c = qelect::campaign;
  const std::uint64_t variant = seed % kVariants;
  // serve-mix's read set is the landscape's instances.
  if (workload == "landscape" || workload == "serve-mix") {
    return c::builtin_spec(small ? "landscape-n5" : "landscape");
  }
  if (workload == "elect-sweep") {
    CampaignSpec spec;
    spec.name = "perfbench-elect-sweep";
    spec.workload = "elect";
    spec.graphs.push_back({"ring", 6, small ? 8u : 14u, {}});
    spec.graphs.push_back({"hypercube", 3, 3, {}});
    spec.placements.mode = c::PlacementAxis::Mode::Random;
    spec.placements.agents_min = 2;
    spec.placements.agents_max = 3;
    spec.placements.seeds = 4;
    spec.scheduler = "counter";
    spec.color_seeds = seed_window(variant, elect_seeds(small));
    return spec;
  }
  if (workload == "fault-sweep") {
    CampaignSpec spec = c::builtin_spec("degradation");
    spec.name = "perfbench-fault-sweep";
    spec.color_seeds = seed_window(variant, fault_seeds(small));
    return spec;
  }
  throw std::runtime_error("unknown campaign workload '" + workload + "'");
}

std::size_t max_degree(const qelect::graph::Graph& g) {
  std::size_t degree = 0;
  for (qelect::graph::NodeId x = 0; x < g.node_count(); ++x) {
    degree = std::max(degree, g.degree(x));
  }
  return degree;
}

namespace {

/// The options `qelect run --echo 0` resolves to, at a fixed shard count.
qelect::campaign::EngineOptions engine_options(unsigned shards) {
  qelect::campaign::EngineOptions options;
  options.shards = shards;
  options.echo_every = 0;
  options.compact_every = 131072;
  return options;
}

/// Marks the engine's phases: begin_run ends set-up, end_run ends the run.
class PhaseClock : public qelect::trace::TraceSink {
 public:
  void begin_run(const qelect::trace::RunMetadata&) override {
    begin_ns = now_ns();
    cpu_begin = self_cpu_seconds();
  }
  void on_event(const qelect::trace::TraceEvent&) override {}
  void end_run(const qelect::trace::RunSummary&) override {
    end_ns = now_ns();
    cpu_end = self_cpu_seconds();
    peak_rss_mib = self_peak_rss_mib();
  }

  std::int64_t begin_ns = 0, end_ns = 0;
  double cpu_begin = 0, cpu_end = 0, peak_rss_mib = 0;
};

template <typename S>
void put_cache_stats(JsonObject& o, const std::string& prefix, const S& s) {
  if constexpr (requires { s.hits; }) o.num(prefix + "hits", double(s.hits));
  if constexpr (requires { s.misses; }) {
    o.num(prefix + "misses", double(s.misses));
  }
  if constexpr (requires { s.evictions; }) {
    o.num(prefix + "evictions", double(s.evictions));
  }
  if constexpr (requires { s.compiles; }) {
    o.num(prefix + "compiles", double(s.compiles));
  }
}

template <typename B>
void put_batch_stats(JsonObject& o, const B& b) {
  if constexpr (requires { b.slabs_run.load(); }) {
    o.num("batch_slabs", double(b.slabs_run.load()));
  }
  if constexpr (requires { b.replicas_run.load(); }) {
    o.num("batch_replicas", double(b.replicas_run.load()));
  }
  if constexpr (requires { b.scalar_fallbacks.load(); }) {
    o.num("batch_scalar_fallbacks", double(b.scalar_fallbacks.load()));
  }
}

template <typename F>
void put_fault_stats(JsonObject& o, const F& f) {
  if constexpr (requires { f.faulted_runs.load(); }) {
    o.num("fault_runs", double(f.faulted_runs.load()));
  }
  if constexpr (requires { f.events_by_axis[0].load(); }) {
    double events = 0;
    for (const auto& axis : f.events_by_axis) events += double(axis.load());
    o.num("fault_events", events);
  }
}

/// Every process-wide counter the ledger reads, sampled now.
JsonObject counters_now() {
  JsonObject o;
  put_cache_stats(o, "cert_cache_", qelect::iso::CertificateCache::global().stats());
  put_cache_stats(o, "plan_cache_",
                  qelect::core::ElectBatchPlanCache::global().stats());
  put_cache_stats(o, "world_pool_", qelect::campaign::WorldPool::local().stats());
  put_batch_stats(o, qelect::campaign::batch_stats());
  put_fault_stats(o, qelect::fault::fault_stats());
  o.num("syncs", double(sync_calls()));
  return o;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Output totals the run is checked against (pins.json holds the
/// expected values per workload, size and variant).
struct Totals {
  std::uint64_t tasks = 0, ok = 0, not_ok = 0, attempts = 0;
  std::uint64_t oracle_mismatches = 0;
  /// Order-independent digest of which tasks ended ok.
  std::uint64_t outcomes = 0;
  double moves = 0, steps = 0;
  std::map<std::string, std::uint64_t> classes;

  void add(const TaskRecord& r, const std::string& workload) {
    ++tasks;
    attempts += static_cast<std::uint64_t>(r.attempts);
    outcomes += mix_seed(r.task_index, r.ok() ? 1 : 2);
    if (!r.ok()) {
      ++not_ok;
      return;
    }
    ++ok;
    moves += r.metric_or("moves", 0);
    steps += r.metric_or("steps", 0);
    if (workload == "elect-sweep" && r.metric_or("matches_oracle", 0) != 1) {
      ++oracle_mismatches;
    }
    if (workload == "landscape") {
      ++classes[qelect::campaign::classification_name(r.metric_or("class", -1))];
    }
  }

  JsonObject json() const {
    JsonObject c;
    for (const auto& [name, count] : classes) c.integer(name, std::int64_t(count));
    JsonObject o;
    o.integer("tasks", std::int64_t(tasks))
        .integer("ok", std::int64_t(ok))
        .integer("not_ok", std::int64_t(not_ok))
        .integer("attempts", std::int64_t(attempts))
        .integer("oracle_mismatches", std::int64_t(oracle_mismatches))
        .str("outcomes", hex64(outcomes))
        .num("moves", moves)
        .num("steps", steps)
        .object("classes", c);
    return o;
  }
};

Totals totals_of(const std::vector<TaskRecord>& records,
                 const std::string& workload) {
  Totals t;
  for (const TaskRecord& r : records) t.add(r, workload);
  return t;
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += file_bytes(entry.path().string());
  }
  return bytes;
}

/// The store header run_campaign writes for `spec`.
qelect::campaign::StoreHeader header_of(const CampaignSpec& spec) {
  qelect::campaign::StoreHeader header;
  header.name = spec.name;
  header.spec_json = spec.to_json();
  header.spec_hash = spec.spec_hash();
  return header;
}

/// One task with the engine's attempt loop: retries after a throwing
/// attempt, `timeout` when the deadline trips, the last error kept.  (The
/// engine's fail-injection hook is left out: no benchmark spec sets it.)
TaskRecord execute_like_engine(const TaskSpec& task, const CampaignSpec& spec,
                               std::uint64_t index) {
  TaskRecord record;
  record.key = task.key;
  record.task_index = index;
  bool timed_out = false;
  for (int attempt = 1; attempt <= spec.retries + 1; ++attempt) {
    record.attempts = attempt;
    try {
      const qelect::CancelSource deadline =
          qelect::CancelSource::with_timeout(spec.timeout_seconds);
      record.metrics = qelect::campaign::run_task(task, deadline.token());
      record.outcome = "ok";
      record.error.clear();
      return record;
    } catch (const qelect::Cancelled& e) {
      timed_out = true;
      record.error = e.what();
    } catch (const std::exception& e) {
      timed_out = false;
      record.error = e.what();
    }
    record.outcome = timed_out ? "timeout" : "failed";
    record.metrics.clear();
  }
  return record;
}

bool same_record(const TaskRecord& a, const TaskRecord& b) {
  return a.key == b.key && a.outcome == b.outcome &&
         a.attempts == b.attempts && a.error == b.error &&
         a.metrics == b.metrics && a.task_index == b.task_index;
}

/// Records sorted by task index (stores keep commit order).
std::vector<TaskRecord> by_index(std::vector<TaskRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TaskRecord& a, const TaskRecord& b) {
              return a.task_index < b.task_index;
            });
  return records;
}

}  // namespace

int cmd_campaign(const Args& args) {
  const std::string workload = args.get("workload", "");
  const std::uint64_t seed = args.get_u64("seed", 0);
  const bool small = args.get("size", "full") == "small";
  const unsigned shards = static_cast<unsigned>(args.get_u64("shards", 4));
  const std::string dir = args.get("dir", "");
  if (dir.empty()) throw std::runtime_error("campaign needs --dir");
  const CampaignSpec spec = workload_spec(workload, seed, small);
  make_dirs(dir);
  const std::string store = dir + "/run.qws";

  const HostTicks host0 = host_ticks();
  const JsonObject before = counters_now();
  PhaseClock clock;
  qelect::campaign::EngineOptions options = engine_options(shards);
  options.progress = &clock;
  const std::int64_t t0 = now_ns();
  const qelect::campaign::CampaignResult result =
      qelect::campaign::run_campaign(spec, store, options);
  const JsonObject after = counters_now();
  const HostTicks host1 = host_ticks();
  const std::uint64_t store_bytes = tree_bytes(dir);

  const Totals totals =
      totals_of(qelect::campaign::load_store(store).records, workload);
  remove_tree(dir);

  JsonObject out;
  out.str("workload", workload)
      .integer("variant", std::int64_t(seed % kVariants))
      .integer("variants", std::int64_t(kVariants))
      .integer("shards", shards)
      .integer("tasks", std::int64_t(result.total))
      .integer("executed", std::int64_t(result.executed))
      .num("setup_s", double(clock.begin_ns - t0) * 1e-9)
      .num("run_s", double(clock.end_ns - clock.begin_ns) * 1e-9)
      .num("cpu_s", clock.cpu_end - clock.cpu_begin)
      .num("peak_rss_mib", clock.peak_rss_mib)
      .integer("store_bytes", std::int64_t(store_bytes))
      .boolean("syncs_elided", syncs_elided())
      .num("steal_share", steal_share(host0, host1))
      .object("totals", totals.json())
      .object("counters_before", before)
      .object("counters_after", after);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_trace_campaign(const Args& args) {
  const std::string workload = args.get("workload", "");
  const std::uint64_t seed = args.get_u64("seed", 0);
  const bool small = args.get("size", "full") == "small";
  const std::string dir = args.get("dir", "");
  const std::string spans_path = args.get("spans", "");
  if (dir.empty() || spans_path.empty()) {
    throw std::runtime_error("trace-campaign needs --dir and --spans");
  }
  const CampaignSpec spec = workload_spec(workload, seed, small);
  make_dirs(dir);

  SpanRecorder rec(true);
  const HostTicks host0 = host_ticks();
  const std::int64_t origin = now_ns();
  JsonObject snap_start = counters_now();

  std::vector<TaskSpec> tasks;
  {
    ScopedSpan s(rec, "campaign.expand");
    tasks = qelect::campaign::expand_tasks(spec);
  }
  JsonObject snap_expanded = counters_now();
  std::vector<TaskRecord> records;
  records.reserve(tasks.size());
  std::int64_t loop_begin = 0, loop_end = 0;
  {
    std::int64_t open_span = rec.open("store.open");
    qelect::campaign::StoreWriter writer(dir + "/loop.qws", header_of(spec));
    rec.close(open_span);
    loop_begin = now_ns();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto id = static_cast<std::int64_t>(i);
      ScopedSpan task_span(rec, "campaign.task", -1, id);
      TaskRecord record;
      {
        ScopedSpan s(rec, "campaign.run_task", task_span.index(), id);
        record = execute_like_engine(tasks[i], spec, i);
      }
      {
        ScopedSpan s(rec, "store.append", task_span.index(), id);
        writer.append(record);
      }
      {
        ScopedSpan s(rec, "store.commit", task_span.index(), id);
        writer.commit();
      }
      records.push_back(std::move(record));
    }
    loop_end = now_ns();
  }
  const std::int64_t traced_end = now_ns();
  JsonObject snap_loop = counters_now();
  const HostTicks host1 = host_ticks();

  // The decomposition must do the engine's work: its records equal a
  // deterministic run_campaign's, task by task.
  qelect::campaign::EngineOptions options = engine_options(4);
  options.deterministic = true;
  qelect::campaign::run_campaign(spec, dir + "/engine.qws", options);
  const std::vector<TaskRecord> engine =
      by_index(qelect::campaign::load_store(dir + "/engine.qws").records);
  const std::vector<TaskRecord> looped =
      by_index(qelect::campaign::load_store(dir + "/loop.qws").records);
  std::string mismatch;
  if (engine.size() != looped.size()) {
    mismatch = "engine wrote " + std::to_string(engine.size()) +
               " records, the loop " + std::to_string(looped.size());
  } else {
    for (std::size_t i = 0; i < engine.size(); ++i) {
      if (!same_record(engine[i], looped[i])) {
        mismatch = "record " + std::to_string(i) + " differs: " + engine[i].key;
        break;
      }
    }
  }
  remove_tree(dir);
  rec.write_jsonl(spans_path, origin);

  const Totals totals = totals_of(records, workload);
  JsonObject out;
  out.str("workload", workload)
      .integer("variant", std::int64_t(seed % kVariants))
      .integer("tasks", std::int64_t(tasks.size()))
      .num("traced_s", double(traced_end - origin) * 1e-9)
      .num("loop_s", double(loop_end - loop_begin) * 1e-9)
      .boolean("records_match", mismatch.empty())
      .str("mismatch", mismatch)
      .num("steal_share", steal_share(host0, host1))
      .object("totals", totals.json())
      .object("counters_start", snap_start)
      .object("counters_expanded", snap_expanded)
      .object("counters_loop", snap_loop);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_kernels(const Args& args) {
  const std::string workload = args.get("workload", "");
  const std::uint64_t seed = args.get_u64("seed", 0);
  const bool small = args.get("size", "full") == "small";
  const std::string spans_path = args.get("spans", "");
  const CampaignSpec spec = workload_spec(workload, seed, small);
  const std::vector<TaskSpec> tasks = qelect::campaign::expand_tasks(spec);

  // Distinct instances in first-use order: the order the analyze workload
  // meets them.
  std::vector<const TaskSpec*> instances;
  std::set<std::pair<std::string, std::vector<qelect::graph::NodeId>>> seen;
  for (const TaskSpec& t : tasks) {
    if (seen.emplace(t.graph.label(), t.home_bases).second) {
      instances.push_back(&t);
    }
  }

  SpanRecorder rec(true);
  const std::int64_t origin = now_ns();
  double build_s = 0, plan_s = 0, recognize_s = 0, labeling_s = 0;
  std::uint64_t recognized = 0, searched = 0;
  const auto timed = [&](const char* name, std::int64_t parent,
                         std::int64_t id, double* total, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    rec.add(Span{name, t0, t1, parent, id, nullptr});
    *total += double(t1 - t0) * 1e-9;
  };
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const TaskSpec& t = *instances[i];
    const auto id = static_cast<std::int64_t>(i);
    ScopedSpan inst(rec, "kernel.instance", -1, id);
    qelect::graph::Graph g;
    timed("graph.build", inst.index(), id, &build_s,
          [&] { g = t.graph.build(); });
    const qelect::graph::Placement p(g.node_count(), t.home_bases);
    std::uint64_t gcd = 0;
    timed("core.protocol_plan", inst.index(), id, &plan_s,
          [&] { gcd = qelect::core::protocol_plan(g, p).final_gcd; });
    if (gcd == 1) continue;
    bool cayley = false;
    ++recognized;
    timed("cayley.recognize", inst.index(), id, &recognize_s, [&] {
      const auto r = qelect::cayley::recognize_cayley(g);
      cayley = r.is_cayley;
      if (cayley) {
        qelect::cayley::max_translation_obstruction(r.regular_subgroups, p);
      }
    });
    if (cayley) continue;
    const std::size_t alphabet = max_degree(g);
    if (qelect::campaign::labeling_count(g, alphabet) > spec.labeling_budget) {
      continue;
    }
    ++searched;
    timed("views.labeling_search", inst.index(), id, &labeling_s, [&] {
      qelect::core::impossibility_by_exhaustive_labelings(g, p, alphabet);
    });
  }
  const std::int64_t end = now_ns();
  if (!spans_path.empty()) rec.write_jsonl(spans_path, origin);

  JsonObject out;
  out.str("workload", workload)
      .integer("instances", std::int64_t(instances.size()))
      .integer("recognized", std::int64_t(recognized))
      .integer("searched", std::int64_t(searched))
      .num("pass_s", double(end - origin) * 1e-9)
      .num("graph_build_s", build_s)
      .num("protocol_plan_s", plan_s)
      .num("recognize_s", recognize_s)
      .num("labeling_search_s", labeling_s)
      .object("counters", counters_now());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
