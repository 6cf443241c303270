// Campaign subsystem tests: deterministic expansion, spec round-trips, the
// result store as a crash-tolerant checkpoint, kill/resume logical
// identity (asserted over the JSONL export, which sorts by task_index --
// WAL bytes land in commit order and are not comparable across runs),
// fault isolation (injected failures, timeouts), the commit thread
// (acknowledged means durable; store I/O errors throw at any shard
// count), and the Table 1 matrix agreeing with the directly computed
// verdicts.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine_flags.hpp"
#include "qelect/campaign/batch.hpp"
#include "qelect/campaign/builtin.hpp"
#include "qelect/campaign/engine.hpp"
#include "qelect/campaign/json.hpp"
#include "qelect/campaign/report.hpp"
#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/store.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/baselines.hpp"
#include "qelect/graph/families.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/iso/enumerate.hpp"
#include "qelect/trace/sink.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/hash.hpp"

namespace qelect::campaign {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path dir;
  explicit ScratchDir(const std::string& name)
      : dir(fs::temp_directory_path() /
            ("qelect_campaign_test_" + name +
             std::to_string(::getpid()))) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~ScratchDir() { fs::remove_all(dir); }
  std::string path(const std::string& file) const {
    return (dir / file).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The store's logical content: the JSONL export (header + records in
/// task_index order).  Two stores with the same export are the same
/// campaign state, whatever order their WAL frames landed in.
std::string export_of(const std::string& path) {
  return store_to_jsonl(load_store(path));
}

/// The store's records by key (load_store keeps one record per key).
std::map<std::string, const TaskRecord*> records_by_key(
    const LoadedStore& store) {
  std::map<std::string, const TaskRecord*> out;
  for (const TaskRecord& r : store.records) out.emplace(r.key, &r);
  return out;
}

/// Byte offset just past the first `frames` WAL frames (the generation
/// header counts as one), for staging kill points at frame boundaries.
std::size_t wal_offset_after(const std::string& bytes, int frames) {
  std::size_t off = 4;  // magic
  for (int i = 0; i < frames; ++i) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off, 4);
    off += 8 + len;
  }
  return off;
}

/// Small, fast live-protocol campaign: ELECT on rings n in [3, 6] with
/// every 1- and 2-agent placement (52 tasks).
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "test-rings";
  spec.workload = "elect";
  spec.graphs.push_back({"ring", 3, 6, {}});
  spec.placements.mode = PlacementAxis::Mode::Enumerate;
  spec.placements.agents_min = 1;
  spec.placements.agents_max = 2;
  return spec;
}

/// ELECT on rings 6 .. 5 + `instances`, home bases {0, 2}, color seeds
/// 1..`seeds`: one instance per ring, its seeds adjacent in the expansion.
CampaignSpec seed_sweep(std::size_t instances, std::uint64_t seeds) {
  CampaignSpec spec;
  spec.name = "test-seed-sweep";
  spec.workload = "elect";
  spec.graphs.push_back({"ring", 6, 5 + instances, {}});
  spec.placements.mode = PlacementAxis::Mode::Fixed;
  spec.placements.fixed = {0, 2};
  spec.color_seeds.clear();
  for (std::uint64_t s = 1; s <= seeds; ++s) spec.color_seeds.push_back(s);
  return spec;
}

/// `spec` as JSON from when specs carried a backend: the field sat right
/// after the scheduler.
std::string with_backend(const CampaignSpec& spec,
                         const std::string& backend) {
  std::string json = spec.to_json();
  json.insert(json.find(",\"max_steps\""),
              ",\"backend\":\"" + backend + "\"");
  return json;
}

/// The store header run_campaign writes for `spec`.
StoreHeader header_of(const CampaignSpec& spec) {
  StoreHeader header;
  header.name = spec.name;
  header.spec_json = spec.to_json();
  header.spec_hash = spec.spec_hash();
  return header;
}

TEST(CampaignSpec, JsonRoundTripIsExact) {
  CampaignSpec spec = small_spec();
  spec.color_seeds = {1, 9};
  spec.retries = 3;
  spec.timeout_seconds = 2.5;
  spec.inject = {"ring(4)", 1};
  const std::string json = spec.to_json();
  const CampaignSpec back = CampaignSpec::from_json_text(json);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.to_json(), json);          // canonical form is a fixpoint
  EXPECT_EQ(back.spec_hash(), spec.spec_hash());
}

TEST(CampaignSpec, FaultsAxisRoundTripsAndEmptyPreservesHash) {
  // A fault-free spec must serialize without any "faults" key at all, so
  // stores written before the fault subsystem existed still hash-match.
  const CampaignSpec bare = small_spec();
  EXPECT_EQ(bare.to_json().find("faults"), std::string::npos);

  CampaignSpec spec = small_spec();
  spec.workload = "degradation";
  FaultPoint control;
  control.label = "none";
  FaultPoint crashy;
  crashy.label = "crash-0.01";
  crashy.plan.fault_seed = 7;
  crashy.plan.crash_rate = 0.01;
  crashy.plan.edge_wormhole_rate = 0.5;
  FaultPoint every;
  every.label = "every-rate";
  every.plan.fault_seed = 11;
  // A distinct nonzero value per rate, so a key read into the wrong rate
  // fails the round trip too.
  for (std::size_t i = 0; i < std::size(fault::kRateFields); ++i) {
    every.plan.*fault::kRateFields[i].rate =
        0.0625 * static_cast<double>(i + 1);
  }
  spec.faults = {control, crashy, every};
  const std::string json = spec.to_json();
  const CampaignSpec back = CampaignSpec::from_json_text(json);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.spec_hash(), spec.spec_hash());
  EXPECT_NE(back.spec_hash(), bare.spec_hash());
}

TEST(CampaignSpec, DegradationTasksCarryFaultKeySegments) {
  CampaignSpec spec = small_spec();
  spec.name = "deg";
  spec.workload = "degradation";
  FaultPoint control;
  control.label = "none";
  FaultPoint crashy;
  crashy.label = "crash-0.01";
  crashy.plan.crash_rate = 0.01;
  spec.faults = {control, crashy};
  const auto tasks = expand_tasks(spec);
  ASSERT_FALSE(tasks.empty());
  std::size_t with_control = 0, with_crashy = 0;
  for (const auto& t : tasks) {
    if (t.key.ends_with("/f=none")) ++with_control;
    if (t.key.ends_with("/f=crash-0.01")) ++with_crashy;
  }
  EXPECT_EQ(with_control + with_crashy, tasks.size());
  EXPECT_EQ(with_control, with_crashy);  // full grid per fault point

  // Degradation without a faults axis is a spec error, not a silent
  // fault-free sweep.
  CampaignSpec no_faults = spec;
  no_faults.faults.clear();
  EXPECT_THROW(expand_tasks(no_faults), CheckError);
}

TEST(CampaignSpec, FaultsAxisIsRefusedWhereNoRunTakesThePlan) {
  // analyze runs no simulation and quantitative never attaches the plan,
  // so a fault point there would record its fault-free twin's metrics.
  for (const std::string workload : {"analyze", "quantitative", "table1"}) {
    CampaignSpec spec = small_spec();
    spec.workload = workload;
    FaultPoint crashy;
    crashy.label = "crash-0.5";
    crashy.plan.crash_rate = 0.5;
    spec.faults = {crashy};
    try {
      expand_tasks(spec);
      ADD_FAILURE() << workload << " accepted a faults axis";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("the " + workload +
                                           " workload has no faults axis"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignReport, RejectsStoreWhoseSpecNoLongerMatchesTheBuiltin) {
  // A store written under an older definition of a built-in campaign must
  // make `qelect report` fail with a clear message (nonzero exit), not
  // mis-group records under the current definition.
  ScratchDir scratch("report_mismatch");
  const std::string path = scratch.path("stale.qws");
  CampaignSpec stale = builtin_spec("rings-smoke");
  stale.max_steps = 123456;  // "the catalog changed since"
  StoreHeader header;
  header.name = stale.name;
  header.spec_hash = stale.spec_hash();
  header.spec_json = stale.to_json();
  { StoreWriter writer(path, header); }
  try {
    print_report(path);
    FAIL() << "expected CheckError for a stale built-in store";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("no longer matches"),
              std::string::npos)
        << e.what();
  }
}

// Two 4-shard runs of one spec commit their records in different orders,
// yet status lists the same failures: the first ten in task order.
TEST(CampaignReport, StatusListsFailuresInTaskOrder) {
  ScratchDir scratch("failure_order");
  CampaignSpec spec = small_spec();
  spec.inject = {"ring(5)", 100};  // every attempt of 15 tasks throws
  spec.retries = 0;
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 4;
  const TaskSpace space(spec);
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < space.size() && expected.size() < 10; ++i) {
    const std::string key = space.key(i);
    if (key.find("ring(5)") != std::string::npos) {
      expected.push_back("  failed " + key + ": injected failure (attempt 1)");
    }
  }
  ASSERT_EQ(expected.size(), 10u);
  for (const char* name : {"first.qws", "second.qws"}) {
    const std::string path = scratch.path(name);
    run_campaign(spec, path, opts);
    testing::internal::CaptureStdout();
    print_status(path);
    std::istringstream out(testing::internal::GetCapturedStdout());
    std::vector<std::string> listed;
    bool omitted = false;
    for (std::string line; std::getline(out, line);) {
      if (line.rfind("  failed ", 0) == 0) listed.push_back(line);
      omitted |= line == "  ... (further failures omitted)";
    }
    EXPECT_EQ(listed, expected) << name;
    EXPECT_TRUE(omitted) << name;
  }
}

// A failed record has no n metric.  It lands in its graph's row, by the
// graph's node count: hypercube(3) has 8 nodes and torus(3,3) 9, though
// both labels open with a 3.
TEST(CampaignReport, FailedRecordsLandInTheirGraphsRow) {
  ScratchDir scratch("failed_rows");
  CampaignSpec spec;
  spec.name = "test-failed-rows";
  spec.workload = "analyze";
  spec.graphs.push_back({"hypercube", 3, 3, {}});
  spec.graphs.push_back({"torus", 0, 0, {3, 3}});
  spec.placements.mode = PlacementAxis::Mode::Enumerate;
  spec.placements.agents_min = 2;
  spec.placements.agents_max = 2;
  spec.retries = 0;
  spec.inject = {"/p=0.1/", 5};  // home bases {0, 1}: one task per graph
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 1;
  const std::string path = scratch.path("results.qws");
  EXPECT_EQ(run_campaign(spec, path, opts).failed, 2u);
  const std::vector<LandscapeRow> rows =
      landscape_rows(load_checked_store(path));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].n, 8u);
  EXPECT_EQ(rows[0].graphs, 1u);
  EXPECT_EQ(rows[0].instances, 27u);
  EXPECT_EQ(rows[0].failed, 1u);
  EXPECT_EQ(rows[1].n, 9u);
  EXPECT_EQ(rows[1].graphs, 1u);
  EXPECT_EQ(rows[1].instances, 35u);
  EXPECT_EQ(rows[1].failed, 1u);
}

// One run's records committed into a second store in reverse order: the
// exports are equal, and so is the survival matrix, whose means are
// floating-point sums taken in task order.
TEST(CampaignReport, SurvivalMatrixIgnoresCommitOrder) {
  ScratchDir scratch("survival_order");
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 1;
  const std::string forward = scratch.path("forward.qws");
  run_campaign(builtin_spec("degradation-smoke"), forward, opts);
  const LoadedStore store = load_store(forward);
  const std::string reversed = scratch.path("reversed.qws");
  {
    StoreWriter writer(reversed, store.header);
    StagedFrames stage;
    for (auto r = store.records.rbegin(); r != store.records.rend(); ++r) {
      stage.append(*r);
    }
    writer.commit(std::span(&stage, 1));
  }
  ASSERT_NE(slurp(forward), slurp(reversed));
  ASSERT_EQ(export_of(forward), export_of(reversed));
  auto survival = [](const std::string& path) {
    return degradation_json("degradation-smoke",
                            degradation_rows(load_checked_store(path)));
  };
  EXPECT_EQ(survival(forward), survival(reversed));
}

TEST(CampaignReport, RejectsStoreWithTamperedHeader) {
  ScratchDir scratch("report_tampered");
  const std::string path = scratch.path("tampered.qws");
  CampaignSpec spec = small_spec();
  StoreHeader header;
  header.name = spec.name;
  header.spec_hash = spec.spec_hash() ^ 1;  // header edited or corrupted
  header.spec_json = spec.to_json();
  { StoreWriter writer(path, header); }
  EXPECT_THROW(print_report(path), CheckError);
}

TEST(CampaignSpec, RejectsUnknownKeys) {
  EXPECT_THROW(CampaignSpec::from_json_text(
                   R"({"name":"x","workload":"elect","grpahs":[]})"),
               CheckError);
}

TEST(CampaignSpec, BuiltinsExpandAndHaveUniqueKeys) {
  for (const std::string& name : builtin_names()) {
    const CampaignSpec spec = builtin_spec(name);
    const auto tasks = expand_tasks(spec);
    EXPECT_FALSE(tasks.empty()) << name;
    std::set<std::string> keys;
    for (const auto& t : tasks) EXPECT_TRUE(keys.insert(t.key).second);
    // Determinism: a second expansion produces the identical key sequence.
    const auto again = expand_tasks(spec);
    ASSERT_EQ(again.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(again[i].key, tasks[i].key);
    }
  }
}

// A reference expansion that builds the whole task list: every TaskSpec
// made up front, its key by ostream, and every key checked through one
// std::set.  The task space must reproduce it index by index.
namespace reference {

std::vector<GraphRef> expand_axis(const GraphAxis& axis) {
  std::vector<GraphRef> out;
  const bool ranged = axis.n_max >= axis.n_min && axis.n_max > 0;
  if (axis.family == "all-connected") {
    for (std::size_t n = axis.n_min; n <= axis.n_max; ++n) {
      static std::map<std::size_t, std::size_t> classes;
      if (!classes.contains(n)) {
        classes[n] = iso::all_connected_graphs(n).size();
      }
      for (std::size_t idx = 0; idx < classes[n]; ++idx) {
        out.push_back({axis.family, {n, idx}});
      }
    }
    return out;
  }
  if (axis.family == "random") {
    const std::size_t seed_count = axis.params.empty() ? 1 : axis.params[0];
    for (std::size_t n = axis.n_min; n <= axis.n_max; ++n) {
      for (std::size_t s = 0; s < seed_count; ++s) {
        GraphRef ref{axis.family, {n, s}};
        if (axis.params.size() >= 2) ref.params.push_back(axis.params[1]);
        out.push_back(std::move(ref));
      }
    }
    return out;
  }
  if (!ranged) {
    out.push_back({axis.family, axis.params});
    return out;
  }
  for (std::size_t n = axis.n_min; n <= axis.n_max; ++n) {
    GraphRef ref{axis.family, {n}};
    ref.params.insert(ref.params.end(), axis.params.begin(),
                      axis.params.end());
    out.push_back(std::move(ref));
  }
  return out;
}

std::vector<std::vector<graph::NodeId>> expand_placements(
    const PlacementAxis& axis, const graph::Graph& g) {
  std::vector<std::vector<graph::NodeId>> out;
  const std::size_t n = g.node_count();
  const std::size_t hi =
      axis.agents_max == 0 ? n : std::min(axis.agents_max, n);
  switch (axis.mode) {
    case PlacementAxis::Mode::Fixed:
      out.push_back(axis.fixed);
      break;
    case PlacementAxis::Mode::Enumerate:
      for (std::size_t r = axis.agents_min; r <= hi; ++r) {
        for (const auto& p : graph::enumerate_placements(n, r)) {
          out.push_back(p.home_bases());
        }
      }
      break;
    case PlacementAxis::Mode::Random:
      for (std::size_t r = axis.agents_min; r <= hi; ++r) {
        std::set<std::vector<graph::NodeId>> seen;
        for (std::uint64_t s = 0; s < axis.seeds; ++s) {
          auto bases = graph::random_placement(n, r, s).home_bases();
          if (seen.insert(bases).second) out.push_back(std::move(bases));
        }
      }
      break;
  }
  return out;
}

TaskSpec make_task(const CampaignSpec& spec, std::string workload,
                   std::string key_prefix, GraphRef graph,
                   std::vector<graph::NodeId> home_bases,
                   std::uint64_t color_seed,
                   const FaultPoint* fault = nullptr) {
  TaskSpec task;
  task.workload = std::move(workload);
  task.graph = std::move(graph);
  task.home_bases = std::move(home_bases);
  task.color_seed = color_seed;
  task.scheduler = spec.scheduler;
  task.max_steps = spec.max_steps;
  task.labeling_budget = spec.labeling_budget;
  std::ostringstream key;
  key << key_prefix << '/' << task.graph.label() << "/p=";
  for (std::size_t i = 0; i < task.home_bases.size(); ++i) {
    if (i > 0) key << '.';
    key << task.home_bases[i];
  }
  key << "/s=" << color_seed;
  if (fault != nullptr) {
    task.fault_label = fault->label;
    task.faults = fault->plan;
    key << "/f=" << fault->label;
  }
  task.key = key.str();
  return task;
}

std::vector<TaskSpec> expand_table1(const CampaignSpec& spec) {
  std::vector<TaskSpec> tasks;
  tasks.push_back(make_task(spec, "anon-lockstep", "table1/anonymous",
                            {"ring", {6}}, {0, 3}, 1));
  tasks.push_back(make_task(spec, "k2-exhaustive", "table1/k2",
                            {"complete", {2}}, {0, 1}, 1));
  tasks.push_back(make_task(spec, "petersen-witness", "table1/petersen",
                            {"petersen", {}}, {0, 5}, 3));
  for (const Table1Instance& inst : table1_instances()) {
    tasks.push_back(make_task(spec, "cayley-dichotomy",
                              "table1/cayley/" + inst.name, inst.graph,
                              inst.home_bases, 7));
    tasks.push_back(make_task(spec, "elect", "table1/elect/" + inst.name,
                              inst.graph, inst.home_bases, 7));
    tasks.push_back(make_task(spec, "quantitative",
                              "table1/quant/" + inst.name, inst.graph,
                              inst.home_bases, 11));
  }
  return tasks;
}

std::vector<TaskSpec> expand_tasks(const CampaignSpec& spec) {
  std::vector<TaskSpec> tasks;
  if (spec.workload == "table1") {
    tasks = expand_table1(spec);
  } else {
    for (const GraphAxis& axis : spec.graphs) {
      for (GraphRef& ref : expand_axis(axis)) {
        const graph::Graph g = ref.build();
        for (auto& bases : expand_placements(spec.placements, g)) {
          if (bases.size() > g.node_count()) continue;
          for (const std::uint64_t seed : spec.color_seeds) {
            if (spec.faults.empty()) {
              tasks.push_back(make_task(spec, spec.workload, spec.workload,
                                        ref, bases, seed));
            } else {
              for (const FaultPoint& fault : spec.faults) {
                tasks.push_back(make_task(spec, spec.workload, spec.workload,
                                          ref, bases, seed, &fault));
              }
            }
          }
        }
      }
    }
  }
  std::set<std::string> keys;
  for (const TaskSpec& t : tasks) {
    QELECT_CHECK(keys.insert(t.key).second,
                 "campaign expansion produced duplicate key " + t.key);
  }
  return tasks;
}

}  // namespace reference

/// perfbench's elect-sweep (variant 0): rings 6..14 and Q3, 2-3 agents at
/// 4 random placements, 1,024 counter seeds -- 77,824 tasks.
CampaignSpec elect_sweep_shaped() {
  CampaignSpec spec;
  spec.name = "perfbench-elect-sweep";
  spec.workload = "elect";
  spec.graphs.push_back({"ring", 6, 14, {}});
  spec.graphs.push_back({"hypercube", 3, 3, {}});
  spec.placements.mode = PlacementAxis::Mode::Random;
  spec.placements.agents_min = 2;
  spec.placements.agents_max = 3;
  spec.placements.seeds = 4;
  spec.scheduler = "counter";
  spec.color_seeds.clear();
  for (std::uint64_t s = 1; s <= 1024; ++s) spec.color_seeds.push_back(s);
  return spec;
}

/// perfbench's fault-sweep (variant 0): the degradation built-in with 64
/// color seeds -- 25,792 tasks.
CampaignSpec fault_sweep_shaped() {
  CampaignSpec spec = builtin_spec("degradation");
  spec.name = "perfbench-fault-sweep";
  spec.color_seeds.clear();
  for (std::uint64_t s = 1; s <= 64; ++s) spec.color_seeds.push_back(s);
  return spec;
}

/// FNV-1a over the bytes of `qelect tasks` output: each key, then '\n'.
std::uint64_t key_digest(const TaskSpace& space) {
  std::uint64_t h = util::kFnvBasis;
  for (std::size_t i = 0; i < space.size(); ++i) {
    h = util::fnv1a64("\n", util::fnv1a64(space.key(i), h));
  }
  return h;
}

TEST(CampaignSpec, TaskSpaceMatchesTheTaskListIndexByIndex) {
  std::vector<CampaignSpec> specs;
  for (const std::string& name : builtin_names()) {
    specs.push_back(builtin_spec(name));
  }
  specs.push_back(elect_sweep_shaped());
  specs.push_back(fault_sweep_shaped());
  // One buffer for every index of every spec, as a worker reuses it from
  // claim to claim: a field left over from an earlier task shows here.
  TaskSpec got;
  for (const CampaignSpec& spec : specs) {
    SCOPED_TRACE(spec.name);
    const std::vector<TaskSpec> want = reference::expand_tasks(spec);
    const TaskSpace space(spec);
    ASSERT_EQ(space.size(), want.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want.size() && mismatches < 5; ++i) {
      space.fill(i, got);
      const TaskSpec& w = want[i];
      const bool same =
          space.key(i) == w.key && got.key == w.key &&
          got.workload == w.workload && got.graph == w.graph &&
          got.home_bases == w.home_bases && got.color_seed == w.color_seed &&
          got.scheduler == w.scheduler && got.max_steps == w.max_steps &&
          got.labeling_budget == w.labeling_budget &&
          got.fault_label == w.fault_label && got.faults == w.faults;
      if (!same) {
        ++mismatches;
        ADD_FAILURE() << "task " << i << ": " << got.key << " vs " << w.key;
      }
    }
    // expand_tasks is the space filled at every index.
    const std::vector<TaskSpec> expanded = expand_tasks(spec);
    ASSERT_EQ(expanded.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(expanded[i].key, want[i].key) << i;
    }
  }
}

TEST(CampaignSpec, BuiltinKeySequencesArePinned) {
  // Digests of each built-in's `qelect tasks` output from before the task
  // space.  A key that drifts makes every existing store of that campaign
  // re-run from scratch on resume.
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"table1", 0x0666079bfbd96957ull},
      {"landscape", 0xc67c02c12103dbceull},
      {"landscape-n5", 0x4ddeb350cda12c94ull},
      {"th31a", 0x154ebc191fcb785full},
      {"th31b", 0x42d8c2c665771cb4ull},
      {"rings-smoke", 0x8ac0e53f7ac1c528ull},
      {"degradation", 0x29a95c5987ffe500ull},
      {"degradation-smoke", 0x6104496a3f6fd707ull},
  };
  ASSERT_EQ(std::size(pins), builtin_names().size());
  for (const auto& [name, digest] : pins) {
    EXPECT_EQ(key_digest(TaskSpace(builtin_spec(name))), digest) << name;
  }
  EXPECT_EQ(key_digest(TaskSpace(elect_sweep_shaped())),
            0x0e21823d2be2c629ull);
  EXPECT_EQ(key_digest(TaskSpace(fault_sweep_shaped())),
            0xcabd151b8f3688b1ull);
}

TEST(CampaignSpec, DuplicateKeysAreRejectedOnEveryAxis) {
  const auto expect_duplicate = [](const CampaignSpec& spec,
                                   const std::string& key) {
    try {
      (void)TaskSpace(spec);
      ADD_FAILURE() << "expected a duplicate-key CheckError naming " << key;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate key " + key),
                std::string::npos)
          << e.what();
    }
  };
  CampaignSpec seeds = seed_sweep(2, 3);
  seeds.color_seeds = {1, 2, 1};
  expect_duplicate(seeds, "elect/ring(6)/p=0.2/s=1");

  CampaignSpec rings = seed_sweep(3, 2);  // rings 6..8
  rings.graphs.push_back({"ring", 8, 9, {}});
  expect_duplicate(rings, "elect/ring(8)/p=0.2/s=1");

  CampaignSpec labels = seed_sweep(1, 2);
  labels.workload = "degradation";
  FaultPoint none;
  none.label = "none";
  FaultPoint crash;
  crash.label = "crash-0.01";
  crash.plan.crash_rate = 0.01;
  labels.faults = {none, crash, none};
  expect_duplicate(labels, "degradation/ring(6)/p=0.2/s=1/f=none");

  // With no task at all, nothing is duplicated.
  CampaignSpec empty = seeds;
  empty.placements.fixed = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(TaskSpace(empty).size(), 0u);
}

TEST(CampaignSpec, RejectsIntegersThatWouldWrap) {
  const std::string head = R"({"name":"x","workload":"elect",)";
  const std::string ring = R"("graphs":[{"family":"ring","n":[4,4]}])";
  const struct {
    const char* field;
    std::string json;
  } cases[] = {
      {"n", head + R"("graphs":[{"family":"ring","n":[-1,4]}]})"},
      {"params", head + R"("graphs":[{"family":"torus","params":[3,-3]}]})"},
      {"agents",
       head + ring + R"(,"placements":{"mode":"enumerate","agents":[1,-2]}})"},
      {"seeds", head + ring + R"(,"placements":{"mode":"random","seeds":-1}})"},
      {"fixed",
       head + ring + R"(,"placements":{"mode":"fixed","fixed":[0,4294967297]}})"},
      {"color_seeds", head + ring + R"(,"color_seeds":[-1]})"},
      {"max_steps", head + ring + R"(,"max_steps":-5})"},
      {"retries", head + ring + R"(,"retries":4294967297})"},
      {"fail_attempts",
       head + ring + R"(,"inject":{"match":"ring","fail_attempts":-1}})"},
      {"seed", head + ring + R"(,"faults":[{"label":"a","seed":-1}]})"},
  };
  for (const auto& c : cases) {
    try {
      (void)CampaignSpec::from_json_text(c.json);
      ADD_FAILURE() << c.field << " accepted: " << c.json;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + c.field + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // Past int64 the reader refuses the literal instead of saturating it.
  EXPECT_THROW(CampaignSpec::from_json_text(
                   head + ring + R"(,"color_seeds":[9223372036854775808]})"),
               CheckError);
  EXPECT_THROW(parse_json("-9223372036854775809"), CheckError);
  EXPECT_EQ(parse_json("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(CampaignSpec, RandomPlacementAxisEndsOnceEveryPlacementIsSeen) {
  // ring(6) has C(6, 2) = 15 two-agent placements; a trillion draws must
  // give exactly the placements, in the order, that 10,000 draws give.
  CampaignSpec spec;
  spec.name = "random-bound";
  spec.workload = "elect";
  spec.graphs.push_back({"ring", 6, 6, {}});
  spec.placements.mode = PlacementAxis::Mode::Random;
  spec.placements.agents_min = 2;
  spec.placements.agents_max = 2;
  spec.placements.seeds = 10000;
  const TaskSpace bounded(spec);
  spec.placements.seeds = 1000000000000ull;
  const TaskSpace huge(spec);
  ASSERT_EQ(bounded.size(), 15u);
  ASSERT_EQ(huge.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_EQ(huge.key(i), bounded.key(i));
}

TEST(CampaignSpec, AllConnectedIndexesEveryClassUpToSixNodes) {
  EXPECT_EQ((GraphRef{"all-connected", {6, 111}}.build().edge_count()), 15u);
  EXPECT_THROW((GraphRef{"all-connected", {6, 112}}.build()), CheckError);
  EXPECT_THROW((GraphRef{"all-connected", {7, 0}}.build()), CheckError);
  EXPECT_THROW((GraphRef{"all-connected", {0, 0}}.build()), CheckError);
}

TEST(CampaignLandscape, UpToFiveNodesMatchesExperiments) {
  // The n = 2..5 rows of EXPERIMENTS.md § LAND, through the real engine.
  // The n = 6 rows run in CI and in the benchmark.
  ScratchDir scratch("landscape");
  EngineOptions opts;
  opts.deterministic = true;
  const CampaignResult result = run_campaign(
      builtin_spec("landscape-n5"), scratch.path("results.qws"), opts);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.failed + result.timeout, 0u);
  const std::vector<LandscapeRow> rows =
      landscape_rows(load_checked_store(scratch.path("results.qws")));
  ASSERT_EQ(rows.size(), 4u);
  struct Expected {
    std::size_t n, graphs, instances, elect, imposs_cayley, imposs_labeling;
  };
  const Expected expected[] = {{2, 1, 3, 2, 1, 0},
                               {3, 2, 14, 13, 1, 0},
                               {4, 6, 90, 70, 14, 6},
                               {5, 21, 651, 649, 2, 0}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LandscapeRow& row = rows[i];
    const Expected& want = expected[i];
    SCOPED_TRACE("n = " + std::to_string(want.n));
    EXPECT_EQ(row.n, want.n);
    EXPECT_EQ(row.graphs, want.graphs);
    EXPECT_EQ(row.instances, want.instances);
    EXPECT_EQ(row.elect, want.elect);
    EXPECT_EQ(row.imposs_cayley, want.imposs_cayley);
    EXPECT_EQ(row.imposs_labeling, want.imposs_labeling);
    EXPECT_EQ(row.open, 0u);
    EXPECT_EQ(row.violations, 0u);
    EXPECT_EQ(row.failed, 0u);
  }
}

TEST(CampaignStore, ToleratesTornTailAndResumesOverIt) {
  ScratchDir scratch("torn");
  const std::string path = scratch.path("store.qws");
  const CampaignSpec spec = small_spec();
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 2;
  run_campaign(spec, path, opts);
  const std::string clean = slurp(path);
  const std::string clean_export = export_of(path);

  // Tear the final frame mid-record, as a crash mid-write would.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << clean.substr(0, clean.size() - 17);
  }
  const LoadedStore torn = load_store(path);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.records.size(), expand_tasks(spec).size() - 1);

  // Resuming truncates the torn tail and re-runs exactly the lost task.
  const CampaignResult resumed = run_campaign(spec, path, opts);
  EXPECT_EQ(resumed.executed, 1u);
  EXPECT_EQ(resumed.skipped, resumed.total - 1);
  EXPECT_EQ(export_of(path), clean_export);
}

TEST(CampaignStore, RejectsMismatchedSpec) {
  ScratchDir scratch("mismatch");
  const std::string path = scratch.path("store.jsonl");
  run_campaign(small_spec(), path, {});
  CampaignSpec other = small_spec();
  other.color_seeds = {2};
  EXPECT_THROW(run_campaign(other, path, {}), CheckError);
}

TEST(CampaignEngine, KilledThenResumedStoreIsLogicallyIdentical) {
  ScratchDir scratch("resume");
  const std::string uninterrupted = scratch.path("full.qws");
  const std::string killed = scratch.path("killed.qws");
  const CampaignSpec spec = small_spec();
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 4;

  const CampaignResult full = run_campaign(spec, uninterrupted, opts);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.failed + full.timeout, 0u);
  const std::string full_export = export_of(uninterrupted);

  // Simulated kill after 13 commits: commits land out of order, so the
  // surviving records are an arbitrary 13-task subset -- but each one must
  // equal its counterpart in the uninterrupted run exactly.  Exactly those
  // 13 are acknowledged to the progress sink.
  EngineOptions kill = opts;
  kill.stop_after = 13;
  trace::VectorSink sink;
  kill.progress = &sink;
  const CampaignResult partial = run_campaign(spec, killed, kill);
  EXPECT_TRUE(partial.stopped_early);
  EXPECT_EQ(partial.executed, 13u);
  EXPECT_EQ(sink.events().size(), 13u);
  const LoadedStore killed_store = load_store(killed);
  EXPECT_EQ(killed_store.records.size(), 13u);
  const LoadedStore full_store = load_store(uninterrupted);
  const auto full_by_key = records_by_key(full_store);
  for (const TaskRecord& r : killed_store.records) {
    const auto it = full_by_key.find(r.key);
    ASSERT_NE(it, full_by_key.end()) << r.key;
    EXPECT_EQ(r.to_json(), it->second->to_json());
    EXPECT_EQ(r.task_index, it->second->task_index);
  }

  // Resume: skips all 13 committed tasks, re-executes zero of them, and
  // the merged store exports byte-identically to the uninterrupted run.
  const CampaignResult resumed = run_campaign(spec, killed, opts);
  EXPECT_EQ(resumed.skipped, 13u);
  EXPECT_EQ(resumed.executed, resumed.total - 13);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.low_water, resumed.total);
  EXPECT_EQ(export_of(killed), full_export);

  // Resuming a complete store is a no-op that changes nothing.
  const CampaignResult noop = run_campaign(spec, killed, opts);
  EXPECT_EQ(noop.executed, 0u);
  EXPECT_EQ(noop.skipped, noop.total);
  EXPECT_EQ(export_of(killed), full_export);
}

TEST(CampaignEngine, ResumeRefusesARecordThatIsNotItsTask) {
  // Keys are a pure function of (spec, index), so a record whose key is
  // not the key of its task_index can only be forged or corrupt.
  // run_campaign, the `qelect resume` path (the spec read back out of the
  // header), status and report all refuse it, naming the key and the
  // index, before the writer opens the store: not even its torn tail is
  // truncated.
  ScratchDir scratch("forged");
  const CampaignSpec spec = small_spec();
  const TaskSpace space(spec);
  EngineOptions opts;
  opts.deterministic = true;
  EngineOptions stop = opts;
  stop.stop_after = 5;
  const std::string honest = scratch.path("honest.qws");
  run_campaign(spec, honest, stop);
  const LoadedStore stopped = load_store(honest);
  ASSERT_EQ(stopped.records.size(), 5u);

  // One store per forgery: the honest records, the forged one, and a
  // one-byte torn tail.
  auto forge = [&](const std::string& name, std::uint64_t index,
                   const std::string& key) {
    const std::string path = scratch.path(name + ".qws");
    {
      StoreWriter writer(path, header_of(spec));
      for (const TaskRecord& r : stopped.records) writer.append(r);
      TaskRecord forged = stopped.records[0];
      forged.task_index = index;
      forged.key = key;
      writer.append(forged);
      writer.commit();
    }
    std::ofstream(path, std::ios::binary | std::ios::app) << '\x05';
    return path;
  };
  // Every reader of the store refuses it through the one shared check,
  // with one message: run_campaign, the resume path, status and report.
  auto expect_refused = [&](const std::string& path, std::uint64_t index,
                            const std::string& key) {
    const std::string before = slurp(path);
    ASSERT_TRUE(load_store(path).torn_tail);
    const CampaignSpec stored =
        CampaignSpec::from_json_text(load_store_header(path)->spec_json);
    const std::vector<std::function<void()>> readers = {
        [&] { run_campaign(spec, path, opts); },
        [&] { run_campaign(stored, path, opts); },
        [&] { check_store_records(TaskSpace(stored), load_store(path), path); },
        [&] { load_checked_store(path); },
        [&] { print_status(path); },
        [&] { print_report(path); },
    };
    std::set<std::string> messages;
    for (const std::function<void()>& read : readers) {
      try {
        read();
        ADD_FAILURE() << path << " was accepted";
      } catch (const CheckError& e) {
        const std::string what = e.what();
        messages.insert(what);
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
        EXPECT_NE(what.find("task index " + std::to_string(index)),
                  std::string::npos)
            << what;
      }
      EXPECT_EQ(slurp(path), before) << path;
    }
    EXPECT_EQ(messages.size(), 1u);
  };
  const std::size_t total = space.size();
  // A task's key at an index past the expansion.
  expect_refused(forge("past-the-end", total + 7, space.key(9)), total + 7,
                 space.key(9));
  // Another task's key at an index of the expansion.
  expect_refused(forge("other-key", 2, space.key(11)), 2, space.key(11));

  // The honest stop-and-resume of the same spec still completes, as an
  // uninterrupted run does.
  const CampaignResult resumed = run_campaign(spec, honest, opts);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.skipped, 5u);
  const std::string full = scratch.path("full.qws");
  run_campaign(spec, full, opts);
  EXPECT_EQ(export_of(honest), export_of(full));
}

// Slab claims stop as exactly as scalar ones: at 4 shards a unit claims
// its share of the budget at once and stages only the part that fits.
TEST(CampaignEngine, StopAfterIsExactAtFourShardsWithSlabs) {
  ScratchDir scratch("stop_slabs");
  const CampaignSpec spec = seed_sweep(2, 70);  // slabs of 64 and 6 tasks
  ASSERT_TRUE(batch_eligible(spec, spec.timeout_seconds));
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 4;
  const std::string full = scratch.path("full.qws");
  run_campaign(spec, full, opts);

  EngineOptions stop = opts;
  stop.stop_after = 100;  // not a multiple of kMaxSlabReplicas
  trace::VectorSink sink;
  stop.progress = &sink;
  const std::string killed = scratch.path("killed.qws");
  const CampaignResult partial = run_campaign(spec, killed, stop);
  EXPECT_TRUE(partial.stopped_early);
  EXPECT_EQ(partial.executed, 100u);
  EXPECT_EQ(sink.events().size(), 100u);
  EXPECT_EQ(load_store(killed).records.size(), 100u);

  const CampaignResult resumed = run_campaign(spec, killed, opts);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.skipped, 100u);
  EXPECT_EQ(export_of(killed), export_of(full));
}

TEST(CampaignEngine, TruncationAtFrameBoundaryResumesLogicallyIdentical) {
  ScratchDir scratch("truncate");
  const std::string path = scratch.path("store.qws");
  const CampaignSpec spec = small_spec();
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 3;
  run_campaign(spec, path, opts);
  const std::string full_bytes = slurp(path);
  const std::string full_export = export_of(path);

  // Chop the store to the generation header + 7 records (a kill between
  // commits that happens to land on a frame boundary).
  const std::size_t pos = wal_offset_after(full_bytes, 1 + 7);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full_bytes.substr(0, pos);
  }
  const CampaignResult resumed = run_campaign(spec, path, opts);
  EXPECT_EQ(resumed.skipped, 7u);
  EXPECT_EQ(resumed.executed, resumed.total - 7);
  EXPECT_EQ(export_of(path), full_export);
}

TEST(CampaignEngine, InjectedFailureIsRetriedThenSucceeds) {
  ScratchDir scratch("retry");
  CampaignSpec spec = small_spec();
  spec.inject = {"ring(5)/p=0.2/s=1", 1};  // first attempt throws
  spec.retries = 2;
  const CampaignResult result =
      run_campaign(spec, scratch.path("store.jsonl"), {});
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.retried, 1u);
  const auto store = load_store(scratch.path("store.jsonl"));
  const auto* record = records_by_key(store).at("elect/ring(5)/p=0.2/s=1");
  EXPECT_EQ(record->outcome, "ok");
  EXPECT_EQ(record->attempts, 2);
}

TEST(CampaignEngine, ExhaustedRetriesRecordFailedWithoutPoisoningSiblings) {
  ScratchDir scratch("fail");
  const std::string path = scratch.path("store.qws");
  CampaignSpec spec = small_spec();
  spec.inject = {"ring(4)", 100};  // every attempt throws, all ring(4) tasks
  spec.retries = 1;
  EngineOptions opts;
  opts.shards = 4;
  opts.deterministic = true;
  const CampaignResult result = run_campaign(spec, path, opts);
  EXPECT_TRUE(result.complete());
  EXPECT_GT(result.failed, 0u);
  const auto store = load_store(path);
  std::set<std::size_t> failed;
  for (const TaskRecord& r : store.records) {
    if (r.key.find("ring(4)") != std::string::npos) {
      EXPECT_EQ(r.outcome, "failed");
      EXPECT_EQ(r.attempts, 2);  // 1 + retries
      EXPECT_NE(r.error.find("injected failure"), std::string::npos);
      failed.insert(r.task_index);
    } else {
      EXPECT_EQ(r.outcome, "ok") << r.key;
    }
  }
  // Failed records are terminal under the budget they used: resume
  // re-executes nothing.
  const CampaignResult resumed = run_campaign(spec, path, opts);
  EXPECT_EQ(resumed.executed, 0u);

  // A run without an override uses the spec's budget, not the one the
  // records were written under: failures committed under `retries = 0`
  // run again under the spec's 1.
  EngineOptions fewer = opts;
  fewer.retries = 0;
  run_campaign(spec, scratch.path("fewer.qws"), fewer);
  EXPECT_EQ(run_campaign(spec, scratch.path("fewer.qws"), opts).executed,
            failed.size());

  // A larger budget runs exactly the failed tasks again, and their new
  // records win: the store exports what a fresh run under it writes.
  EngineOptions more = opts;
  more.retries = 2;
  run_campaign(spec, scratch.path("fresh.qws"), more);
  trace::VectorSink sink;
  more.progress = &sink;
  const CampaignResult rerun = run_campaign(spec, path, more);
  EXPECT_EQ(rerun.executed, failed.size());
  std::set<std::size_t> ran;
  for (const trace::TraceEvent& e : sink.events()) ran.insert(e.node);
  EXPECT_EQ(ran, failed);
  EXPECT_EQ(export_of(path), export_of(scratch.path("fresh.qws")));
}

// A run counts the failed records it skips, so `qelect run`/`resume` can
// exit 1 while failures remain in the store; a rerun that clears them
// counts none.
TEST(CampaignEngine, SkippedFailuresAreCountedUntilARerunClearsThem) {
  ScratchDir scratch("skipped");
  const std::string path = scratch.path("store.qws");
  CampaignSpec spec = small_spec();
  spec.inject = {"ring(4)", 2};  // the first two attempts throw
  spec.retries = 1;
  EngineOptions opts;
  opts.deterministic = true;
  const CampaignResult first = run_campaign(spec, path, opts);
  ASSERT_GT(first.failed, 0u);
  EXPECT_EQ(first.skipped_not_ok, 0u);

  const CampaignResult same = run_campaign(spec, path, opts);
  EXPECT_EQ(same.executed, 0u);
  EXPECT_EQ(same.skipped, same.total);
  EXPECT_EQ(same.skipped_not_ok, first.failed);

  EngineOptions more = opts;
  more.retries = 2;
  const CampaignResult rerun = run_campaign(spec, path, more);
  EXPECT_EQ(rerun.executed, first.failed);
  EXPECT_EQ(rerun.ok, first.failed);
  EXPECT_EQ(rerun.skipped_not_ok, 0u);
  EXPECT_EQ(run_campaign(spec, path, more).skipped_not_ok, 0u);
}

TEST(CampaignEngine, ExpiredDeadlineRecordsTimeout) {
  ScratchDir scratch("timeout");
  const std::string path = scratch.path("store.qws");
  CampaignSpec spec = small_spec();
  spec.retries = 1;
  spec.timeout_seconds = 1e-9;  // expired before the first poll
  EngineOptions opts;
  opts.deterministic = true;
  const CampaignResult result = run_campaign(spec, path, opts);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.timeout, result.total);
  const auto store = load_store(path);
  for (const TaskRecord& r : store.records) {
    EXPECT_EQ(r.outcome, "timeout");
    EXPECT_EQ(r.attempts, 2);
  }
  const CampaignResult skipped = run_campaign(spec, path, opts);
  EXPECT_EQ(skipped.executed, 0u);
  EXPECT_EQ(skipped.skipped_not_ok, result.total);

  // A larger budget with the deadline off runs every timed-out task again.
  EngineOptions more = opts;
  more.retries = 2;
  more.timeout_seconds = 0;
  const CampaignResult rerun = run_campaign(spec, path, more);
  EXPECT_EQ(rerun.executed, result.total);
  EXPECT_EQ(rerun.ok, result.total);
  run_campaign(spec, scratch.path("fresh.qws"), more);
  EXPECT_EQ(export_of(path), export_of(scratch.path("fresh.qws")));
}

TEST(CampaignEngine, ProgressStreamsThroughTraceSinks) {
  ScratchDir scratch("progress");
  const CampaignSpec spec = small_spec();
  trace::VectorSink sink;
  EngineOptions opts;
  opts.progress = &sink;
  opts.shards = 2;
  const CampaignResult result =
      run_campaign(spec, scratch.path("store.jsonl"), opts);
  EXPECT_EQ(sink.metadata().label, spec.name);
  EXPECT_EQ(sink.metadata().policy, "campaign");
  EXPECT_EQ(sink.metadata().node_count, result.total);
  ASSERT_EQ(sink.events().size(), result.executed);
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    EXPECT_EQ(sink.events()[i].step, i);  // commits arrive in order
    EXPECT_EQ(sink.events()[i].kind, trace::TraceEvent::Kind::TaskOk);
  }
  EXPECT_EQ(sink.summary().steps, result.executed);
  EXPECT_TRUE(sink.summary().completed);
}

/// A progress sink that, on every event, reloads the store from disk and
/// looks for the acknowledged record there.
class DurabilityProbe : public trace::TraceSink {
 public:
  explicit DurabilityProbe(std::string path) : path_(std::move(path)) {}
  void on_event(const trace::TraceEvent& event) override {
    ++events;
    for (const TaskRecord& r : load_store(path_).records) {
      if (r.task_index == event.node) {
        ++durable;
        return;
      }
    }
  }
  std::size_t events = 0;
  std::size_t durable = 0;

 private:
  std::string path_;
};

TEST(CampaignEngine, AcknowledgedRecordIsAlreadyDurable) {
  for (const unsigned shards : {1u, 4u}) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    ScratchDir scratch("durable" + std::to_string(shards));
    const std::string path = scratch.path("store.qws");
    DurabilityProbe probe(path);
    EngineOptions opts;
    opts.shards = shards;
    opts.progress = &probe;
    const CampaignResult result = run_campaign(small_spec(), path, opts);
    EXPECT_EQ(probe.events, result.executed);
    EXPECT_EQ(probe.durable, probe.events);
  }
}

TEST(CampaignEngine, EveryRecordIsAcknowledgedOnceInStagingOrder) {
  ScratchDir scratch("ack");
  const std::string path = scratch.path("store.qws");
  trace::VectorSink sink;
  EngineOptions opts;
  opts.shards = 4;
  opts.progress = &sink;
  const CampaignResult result =
      run_campaign(builtin_spec("landscape-n5"), path, opts);
  EXPECT_TRUE(result.complete());
  // Staging order is the WAL's append order, so the i-th event names the
  // i-th record on disk.
  const LoadedStore store = load_store(path);
  ASSERT_EQ(store.records.size(), result.total);
  ASSERT_EQ(sink.events().size(), result.total);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    const trace::TraceEvent& event = sink.events()[i];
    EXPECT_EQ(event.step, i);
    EXPECT_EQ(event.node, store.records[i].task_index) << i;
    EXPECT_LT(event.agent, 4u);
    EXPECT_TRUE(seen.insert(event.node).second) << event.node;
  }
  EXPECT_EQ(seen.size(), result.total);
}

TEST(CampaignEngine, StoreWriteFailureThrowsAtFourShards) {
  ScratchDir scratch("fsize");
  const CampaignSpec spec = builtin_spec("landscape-n5");
  EngineOptions opts;
  opts.deterministic = true;
  opts.shards = 4;
  run_campaign(spec, scratch.path("reference.qws"), opts);
  const std::string reference = export_of(scratch.path("reference.qws"));
  constexpr rlim_t kLimit = 64 * 1024;
  ASSERT_GT(slurp(scratch.path("reference.qws")).size(), kLimit);

  // Writes past the limit fail with EFBIG instead of raising SIGXFSZ.
  // Both settings are process-wide, so they are restored before any
  // assertion can end the test.
  rlimit saved_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  struct sigaction ignore {};
  struct sigaction saved_action {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &saved_action), 0);
  rlimit limited = saved_limit;
  limited.rlim_cur = kLimit;
  const int set = ::setrlimit(RLIMIT_FSIZE, &limited);
  std::string error;
  bool other_exception = false;
  if (set == 0) {
    try {
      run_campaign(spec, scratch.path("limited.qws"), opts);
    } catch (const CheckError& e) {
      error = e.what();
    } catch (...) {
      other_exception = true;
    }
  }
  ::setrlimit(RLIMIT_FSIZE, &saved_limit);
  ::sigaction(SIGXFSZ, &saved_action, nullptr);
  ASSERT_EQ(set, 0);
  EXPECT_FALSE(other_exception);
  EXPECT_NE(error.find("write failed"), std::string::npos) << error;

  // Under normal limits the store resumes to the reference export.
  const CampaignResult resumed =
      run_campaign(spec, scratch.path("limited.qws"), opts);
  EXPECT_TRUE(resumed.complete());
  EXPECT_GT(resumed.executed, 0u);
  EXPECT_EQ(export_of(scratch.path("limited.qws")), reference);
}

/// parse_engine_flags over `args`, as `qelect run <spec> args...` passes
/// them.
tools::EngineFlags parse_flags(std::vector<std::string> args) {
  args.insert(args.begin(), {"qelect", "run", "spec"});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return tools::parse_engine_flags(static_cast<int>(argv.size()),
                                   argv.data(), 3);
}

TEST(CampaignEngineFlags, NumericFlagsAreCheckedNotWrapped) {
  const struct {
    const char* flag;
    const char* value;
  } bad[] = {
      {"--shards", "-1"},          {"--shards", "257"},
      {"--shards", "4294967296"},  {"--shards", "2x"},
      {"--retries", "-2"},         {"--retries", "2147483648"},
      {"--timeout-seconds", "nan"}, {"--timeout-seconds", "-1"},
      {"--timeout-seconds", "inf"}, {"--stop-after", "-1"},
      {"--echo", "1e3"},           {"--compact-every", ""},
  };
  for (const auto& c : bad) {
    SCOPED_TRACE(std::string(c.flag) + " " + c.value);
    try {
      parse_flags({c.flag, c.value});
      ADD_FAILURE() << "accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.flag), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_flags({"--shards"}), CheckError);
  EXPECT_THROW(parse_flags({"--shard", "2"}), CheckError);

  const tools::EngineFlags flags = parse_flags(
      {"--shards", "256", "--retries", "3", "--timeout-seconds", "0.5",
       "--stop-after", "10", "--echo", "0", "--deterministic", "--store",
       "s.qws"});
  EXPECT_EQ(flags.options.shards, kMaxShards);
  EXPECT_EQ(flags.options.retries, 3);
  EXPECT_EQ(flags.options.timeout_seconds, 0.5);
  EXPECT_EQ(flags.options.stop_after, 10u);
  EXPECT_EQ(flags.options.echo_every, 0u);
  EXPECT_TRUE(flags.options.deterministic);
  EXPECT_EQ(flags.store, "s.qws");
  const tools::EngineFlags defaults = parse_flags({});
  EXPECT_EQ(defaults.options.shards, 0u);
  EXPECT_EQ(defaults.options.retries, -1);
  EXPECT_EQ(defaults.options.echo_every, 20u);
}

TEST(CampaignEngine, RefusesMoreShardsThanTheBoundBeforeOpeningTheStore) {
  ScratchDir scratch("shards");
  EngineOptions opts;
  opts.shards = kMaxShards + 1;
  EXPECT_THROW(run_campaign(small_spec(), scratch.path("r.qws"), opts),
               CheckError);
  EXPECT_FALSE(fs::exists(scratch.path("r.qws")));
}

TEST(CampaignTable1, MatrixMatchesDirectComputation) {
  ScratchDir scratch("table1");
  const std::string path = scratch.path("store.jsonl");
  const CampaignResult result =
      run_campaign(builtin_spec("table1"), path, {});
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.failed + result.timeout, 0u);
  const Table1Matrix m = table1_matrix(load_checked_store(path));

  // The matrix cells the paper's Table 1 asserts, re-derived directly.
  EXPECT_TRUE(m.anon_holds);
  EXPECT_TRUE(m.k2_impossible);
  EXPECT_TRUE(m.qualitative_cayley_yes());
  EXPECT_TRUE(m.quantitative_yes());
  EXPECT_EQ(m.live_total, table1_instances().size());
  EXPECT_EQ(m.quant_total, table1_instances().size());
  EXPECT_TRUE(m.petersen_elect_fails);
  EXPECT_TRUE(m.petersen_adhoc_elects);
  EXPECT_EQ(m.petersen_gcd, 2u);
  EXPECT_EQ(m.missing, 0u);

  // Spot-check one cell against a direct oracle computation.
  const auto plan = core::protocol_plan(graph::complete(5),
                                        graph::Placement(5, {0, 1}));
  EXPECT_EQ(plan.final_gcd, 1u)
      << "K5{0,1} should be electable; matrix counted it live_ok";
}

TEST(CampaignWorkloads, AnalyzeClassifiesKnownInstances) {
  // C6 antipodal: the canonical Cayley-obstructed impossibility.
  TaskSpec task;
  task.key = "analyze/ring(6)/p=0.3/s=1";
  task.workload = "analyze";
  task.graph = {"ring", {6}};
  task.home_bases = {0, 3};
  TaskRecord record;
  record.metrics = run_task(task, {});
  EXPECT_GT(record.metric_or("final_gcd", 0), 1);
  EXPECT_EQ(record.metric_or("class", -1), kClassImpossCayley);

  // P3 end-to-end: asymmetric surroundings, gcd 1, electable.
  task.key = "analyze/path(3)/p=0.2/s=1";
  task.graph = {"path", {3}};
  task.home_bases = {0, 2};
  record.metrics = run_task(task, {});
  EXPECT_EQ(record.metric_or("class", -1), kClassElect);
}

TEST(CampaignSpec, LegacyBackendFieldIsParsedAndIgnored) {
  // Spec files from when slabs were opt-in still load: the field is
  // dropped, so the spec (and its hash) is as if it had never been there.
  const CampaignSpec spec = small_spec();
  EXPECT_EQ(spec.to_json().find("backend"), std::string::npos);
  EXPECT_EQ(spec_json_hash(spec.to_json()), spec.spec_hash());
  for (const char* backend : {"scalar", "batch"}) {
    const CampaignSpec back =
        CampaignSpec::from_json_text(with_backend(spec, backend));
    EXPECT_EQ(back, spec) << backend;
    EXPECT_EQ(back.spec_hash(), spec.spec_hash()) << backend;
  }
}

TEST(CampaignSpec, CounterSchedulerRoundTrips) {
  CampaignSpec spec = small_spec();
  spec.scheduler = "counter";
  const CampaignSpec back = CampaignSpec::from_json_text(spec.to_json());
  EXPECT_EQ(back.scheduler, "counter");
  EXPECT_EQ(policy_from_name("counter"), sim::SchedulerPolicy::Counter);
}

TEST(CampaignEngine, BatchBackendStoreMatchesScalarByteForByte) {
  // Elect campaigns run on batch slabs by default; their store must be the
  // one the scalar path writes.  The reference is run_task -- one
  // coroutine World per task -- over the whole expansion.  Deterministic
  // mode zeroes durations, so the exports must be identical bytes, for
  // every scheduler the batch engine supports.
  for (const std::string scheduler :
       {"random", "round-robin", "lockstep", "counter"}) {
    ScratchDir scratch("batch_parity_" + scheduler);
    CampaignSpec spec = small_spec();
    spec.scheduler = scheduler;
    spec.color_seeds = {1, 7, 12};
    EngineOptions options;
    options.deterministic = true;
    options.shards = 2;

    const std::uint64_t slabs0 = batch_stats().slabs_run.load();
    const std::string engine_store = scratch.path("engine.qws");
    const CampaignResult result = run_campaign(spec, engine_store, options);
    EXPECT_TRUE(result.complete()) << scheduler;
    EXPECT_EQ(result.failed, 0u) << scheduler;
    EXPECT_GT(batch_stats().slabs_run.load(), slabs0) << scheduler;

    const std::string scalar_store = scratch.path("scalar.qws");
    {
      StoreWriter writer(scalar_store, header_of(spec));
      const std::vector<TaskSpec> tasks = expand_tasks(spec);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        TaskRecord record;
        record.key = tasks[i].key;
        record.outcome = "ok";
        record.task_index = i;
        record.metrics = run_task(tasks[i], {});
        writer.append(record);
      }
      writer.commit();
    }
    EXPECT_EQ(export_of(engine_store), export_of(scalar_store)) << scheduler;
  }
}

TEST(CampaignEngine, BatchBackendKilledThenResumedIsLogicallyIdentical) {
  // Slab claiming must preserve the engine's crash contract: a stop_after
  // kill leaves a store holding exactly 5 records whose logical identity
  // matches the uninterrupted run, and resuming re-slabs only the pending
  // tasks and produces the identical export.
  ScratchDir scratch("batch_resume");
  CampaignSpec spec = small_spec();  // 52 instances x 3 seeds
  spec.color_seeds = {1, 7, 12};
  EngineOptions options;
  options.deterministic = true;

  const std::string uninterrupted = scratch.path("full.qws");
  run_campaign(spec, uninterrupted, options);
  const std::string full_export = export_of(uninterrupted);

  // One shard: the kill lands inside the second instance's slab.
  const std::string killed = scratch.path("killed.qws");
  EngineOptions stop = options;
  stop.shards = 1;
  stop.stop_after = 5;
  const CampaignResult partial = run_campaign(spec, killed, stop);
  EXPECT_TRUE(partial.stopped_early);
  const LoadedStore full_store = load_store(uninterrupted);
  const auto full_by_key = records_by_key(full_store);
  const LoadedStore killed_store = load_store(killed);
  EXPECT_EQ(killed_store.records.size(), 5u);
  for (const TaskRecord& r : killed_store.records) {
    const auto it = full_by_key.find(r.key);
    ASSERT_NE(it, full_by_key.end()) << r.key;
    EXPECT_EQ(r.to_json(), it->second->to_json());
  }

  BatchStats& stats = batch_stats();
  const std::uint64_t slabs0 = stats.slabs_run.load();
  const std::uint64_t replicas0 = stats.replicas_run.load();
  const CampaignResult resumed = run_campaign(spec, killed, options);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.skipped, 5u);
  EXPECT_EQ(stats.replicas_run.load() - replicas0, resumed.executed);
  // The cut slab's last replica, then the 50 untouched instances.
  EXPECT_EQ(stats.slabs_run.load() - slabs0, 51u);
  EXPECT_EQ(export_of(killed), full_export);
}

TEST(CampaignEngine, BatchStatsCountSlabsAndReplicas) {
  // Slabs hold at most kMaxSlabReplicas adjacent tasks of one instance.
  ScratchDir scratch("batch_stats");
  ASSERT_EQ(kMaxSlabReplicas, 64u);
  BatchStats& stats = batch_stats();
  EngineOptions options;
  options.deterministic = true;
  using Count = std::pair<std::uint64_t, std::uint64_t>;  // slabs, replicas
  auto run = [&](const CampaignSpec& spec, const std::string& file,
                 const EngineOptions& opts) {
    const std::uint64_t slabs0 = stats.slabs_run.load();
    const std::uint64_t replicas0 = stats.replicas_run.load();
    run_campaign(spec, scratch.path(file), opts);
    return Count(stats.slabs_run.load() - slabs0,
                 stats.replicas_run.load() - replicas0);
  };

  // 100 seeds on one instance: 2 slabs, 64 + 36.  A one-shard run that
  // stops at its first commit has run exactly the first slab.
  const CampaignSpec one = seed_sweep(1, 100);
  EngineOptions first = options;
  first.shards = 1;
  first.stop_after = 1;
  EXPECT_EQ(run(one, "first.qws", first), Count(1, 64));
  EXPECT_EQ(run(one, "one.qws", options), Count(2, 100));

  // Two instances of 70 seeds: 64 + 6 each.  A slab spanning the
  // boundary would need only 3 slabs for the 140 tasks.
  EXPECT_EQ(run(seed_sweep(2, 70), "two.qws", options), Count(4, 140));

  EXPECT_EQ(BatchStats::bucket_of(1), 0u);
  EXPECT_EQ(BatchStats::bucket_of(2), 1u);
  EXPECT_EQ(BatchStats::bucket_of(8), 3u);
  EXPECT_EQ(BatchStats::bucket_of(100), 5u);
}

TEST(CampaignEngine, BatchIneligibleSpecsFallBackToScalar) {
  // Fail injection, a per-attempt deadline, a faults axis and non-elect
  // workloads need the scalar path: none of them may run a slab.
  CampaignSpec inject = small_spec();
  inject.inject = {"ring(4)", 1};
  inject.retries = 1;
  CampaignSpec timeout = small_spec();
  timeout.timeout_seconds = 60;
  CampaignSpec faulty = small_spec();
  faulty.faults.push_back({"none", {}});
  CampaignSpec analyze = small_spec();
  analyze.workload = "analyze";
  EngineOptions options;
  options.deterministic = true;
  EngineOptions timeout_flag = options;
  timeout_flag.timeout_seconds = 60;
  const struct {
    const char* name;
    const CampaignSpec& spec;
    const EngineOptions& options;
  } cases[] = {{"inject", inject, options},
               {"timeout", timeout, options},
               {"timeout-flag", small_spec(), timeout_flag},
               {"faults", faulty, options},
               {"analyze", analyze, options}};
  for (const auto& c : cases) {
    ScratchDir scratch(std::string("batch_ineligible_") + c.name);
    const std::uint64_t slabs0 = batch_stats().slabs_run.load();
    const CampaignResult result =
        run_campaign(c.spec, scratch.path("s.qws"), c.options);
    EXPECT_TRUE(result.complete()) << c.name;
    EXPECT_EQ(batch_stats().slabs_run.load(), slabs0) << c.name;
    // The injected failure fired: slab execution would have bypassed it.
    if (c.spec.inject.fail_attempts > 0) {
      EXPECT_GT(result.retried, 0u);
    }
  }
}

TEST(CampaignEngine, StoreWithLegacyBackendHeaderResumes) {
  // A store begun from a spec file that set "backend":"batch" embeds that
  // JSON, and its hash, in its header.  It parses equal to the current
  // spec, so the engine resumes under the stored header and the report's
  // integrity check still passes.
  ScratchDir scratch("legacy_header");
  CampaignSpec spec = small_spec();
  spec.color_seeds = {1, 7};
  EngineOptions options;
  options.deterministic = true;
  const std::string full = scratch.path("full.qws");
  run_campaign(spec, full, options);
  const LoadedStore done = load_store(full);

  StoreHeader legacy;
  legacy.name = spec.name;
  legacy.spec_json = with_backend(spec, "batch");
  legacy.spec_hash = spec_json_hash(legacy.spec_json);
  auto begin_store = [&](const std::string& path, const StoreHeader& h) {
    StoreWriter writer(path, h);
    for (std::size_t i = 0; i < 5; ++i) writer.append(done.records[i]);
    writer.commit();
  };
  const std::string path = scratch.path("legacy.qws");
  begin_store(path, legacy);
  const CampaignSpec stored =
      CampaignSpec::from_json_text(load_store(path).header.spec_json);
  const CampaignResult resumed = run_campaign(stored, path, options);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.skipped, 5u);
  EXPECT_EQ(load_store(path).header.spec_json, legacy.spec_json);
  const std::string a = export_of(full);
  const std::string b = export_of(path);
  EXPECT_EQ(a.substr(a.find('\n')), b.substr(b.find('\n')));
  EXPECT_NO_THROW(print_report(path));

  // A legacy header whose hash no longer matches its text is refused.
  StoreHeader tampered = legacy;
  tampered.spec_hash ^= 1;
  const std::string bad = scratch.path("tampered.qws");
  begin_store(bad, tampered);
  EXPECT_THROW(run_campaign(stored, bad, options), CheckError);
}

}  // namespace
}  // namespace qelect::campaign
