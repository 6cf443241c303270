#include "qelect/serve/service.hpp"

#include <cstring>

#include "qelect/campaign/batch.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/core/analysis.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/core/elect_batch.hpp"
#include "qelect/core/elect_batch_cache.hpp"
#include "qelect/fault/injector.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/graph/labeling.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/cancel.hpp"
#include "qelect/views/symmetricity.hpp"
#include "qelect/views/views.hpp"

namespace qelect::serve {

namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

double metric(const Metrics& metrics, const char* key) {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  throw CheckError(std::string("workload produced no '") + key + "' metric");
}

/// Node count implied by (family, params), computed without building --
/// the guard that rejects a hostile hypercube(40) before 2^40 nodes are
/// allocated.  Unknown families return 0 and fail later in GraphRef::build
/// with its own message.
std::uint64_t estimated_nodes(const std::string& family,
                              const std::vector<std::uint64_t>& params) {
  const auto p = [&](std::size_t i) -> std::uint64_t {
    return i < params.size() ? params[i] : 0;
  };
  if (family == "hypercube") return std::uint64_t{1} << std::min<std::uint64_t>(p(0), 63);
  if (family == "ccc" || family == "wrapped-butterfly") {
    return p(0) * (std::uint64_t{1} << std::min<std::uint64_t>(p(0), 58));
  }
  if (family == "torus") {
    std::uint64_t n = 1;
    for (std::uint64_t d : params) {
      if (d != 0 && n > (std::uint64_t{1} << 40) / d) return std::uint64_t{1} << 40;
      n *= d;
    }
    return n;
  }
  if (family == "complete-bipartite") return p(0) + p(1);
  if (family == "generalized-petersen") return 2 * p(0);
  if (family == "petersen") return 10;
  // ring, path, complete, star, circulant, random, all-connected: first
  // parameter is (within +-1) the node count.
  return p(0) + 1;
}

struct BuiltInstance {
  graph::Graph g;
  graph::Placement p;
};

/// Decoded instance -> built (graph, placement), or CheckError with a
/// client-facing message.  Enforces the deployment's compute bounds.
BuiltInstance build_instance(const InstanceRef& inst,
                             const ServiceLimits& limits) {
  QELECT_CHECK(!inst.family.empty(), "empty graph family");
  for (std::uint64_t param : inst.params) {
    QELECT_CHECK(param <= limits.max_param,
                 "parameter " + std::to_string(param) + " exceeds limit " +
                     std::to_string(limits.max_param));
  }
  QELECT_CHECK(inst.family != "all-connected" ||
                   (!inst.params.empty() && inst.params[0] <= 6),
               "all-connected is served only up to 6 nodes");
  QELECT_CHECK(estimated_nodes(inst.family, inst.params) <=
                   limits.max_nodes + 1,
               "instance exceeds max_nodes = " +
                   std::to_string(limits.max_nodes));

  campaign::GraphRef ref;
  ref.family = inst.family;
  ref.params.assign(inst.params.begin(), inst.params.end());
  BuiltInstance built{ref.build(), {}};
  QELECT_CHECK(built.g.node_count() <= limits.max_nodes,
               "instance has " + std::to_string(built.g.node_count()) +
                   " nodes, max_nodes = " + std::to_string(limits.max_nodes));
  built.p = graph::Placement(
      built.g.node_count(),
      std::vector<graph::NodeId>(inst.home_bases.begin(),
                                 inst.home_bases.end()));
  return built;
}

/// Shared RUN_ELECT validation.  The immediate path and the coalesced
/// path BOTH funnel through this helper because QELECT_CHECK embeds the
/// check's expression and source location in its message: one call site
/// is what makes a rejected request's error bytes identical whichever
/// path served it.
BuiltInstance validate_run_elect(const RunElectRequest& req,
                                 const ServiceLimits& limits) {
  QELECT_CHECK(!req.instance.home_bases.empty(),
               "RUN_ELECT needs at least one home base");
  QELECT_CHECK(req.scheduler == "random" || req.scheduler == "round-robin" ||
                   req.scheduler == "lockstep" || req.scheduler == "counter",
               "unknown scheduler '" + req.scheduler + "'");
  return build_instance(req.instance, limits);
}

campaign::TaskSpec task_for(const InstanceRef& inst, const char* workload) {
  campaign::TaskSpec task;
  task.workload = workload;
  task.graph.family = inst.family;
  task.graph.params.assign(inst.params.begin(), inst.params.end());
  task.home_bases.assign(inst.home_bases.begin(), inst.home_bases.end());
  task.key = std::string("serve/") + workload + "/" + task.graph.label();
  return task;
}

std::uint32_t response_status(const std::vector<std::uint8_t>& response) {
  WireReader r(response);
  return r.u32();
}

}  // namespace

// ---- ResponseCache -------------------------------------------------------

std::string ResponseCache::key(std::uint16_t opcode,
                               const std::vector<std::uint8_t>& payload) {
  std::string key;
  key.reserve(2 + payload.size());
  key.push_back(static_cast<char>(opcode & 0xFF));
  key.push_back(static_cast<char>(opcode >> 8));
  key.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return key;
}

// ---- Service -------------------------------------------------------------

Service::Service(ServiceLimits limits) : limits_(limits) {
  for (auto& r : requests_) r.store(0, std::memory_order_relaxed);
}

std::vector<std::uint8_t> Service::handle(
    std::uint16_t opcode, const std::vector<std::uint8_t>& payload,
    ResponseCache* cache,
    const std::vector<std::pair<std::string, std::uint64_t>>* extra) {
  if (opcode < kOpcodeSlots) {
    requests_[opcode].fetch_add(1, std::memory_order_relaxed);
  }
  if (!known_opcode(opcode)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return encode_error_response(
        kStatusUnknownOpcode, "unknown opcode " + std::to_string(opcode));
  }
  const Opcode op = static_cast<Opcode>(opcode);
  if (op == Opcode::kStats) return run_stats(cache, extra);
  if (op == Opcode::kPing) {
    WireWriter w;
    w.u32(kStatusOk);
    return w.take();
  }

  std::string key;
  if (cache != nullptr) {
    key = ResponseCache::key(opcode, payload);
    if (const auto hit = cache->lookup(key)) return *hit;
  }

  std::vector<std::uint8_t> response;
  try {
    response = execute(op, payload);
  } catch (const CheckError& e) {
    // Library preconditions double as request validation: an unknown
    // family or an out-of-range home base surfaces here.
    response = encode_error_response(kStatusBadRequest, e.what());
  } catch (const std::exception& e) {
    response = encode_error_response(kStatusError, e.what());
  }
  if (response_status(response) == kStatusOk) {
    if (cache != nullptr) cache->insert(key, response);
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

std::vector<std::uint8_t> Service::execute(
    Opcode op, const std::vector<std::uint8_t>& payload) {
  switch (op) {
    case Opcode::kElectable: {
      InstanceRef inst;
      if (!decode_electable_request(payload, &inst)) {
        return encode_error_response(kStatusBadRequest,
                                     "malformed ELECTABLE payload");
      }
      return run_electable(inst);
    }
    case Opcode::kSigma: {
      SigmaRequest req;
      if (!decode_sigma_request(payload, &req)) {
        return encode_error_response(kStatusBadRequest,
                                     "malformed SIGMA payload");
      }
      return run_sigma(req);
    }
    case Opcode::kViewClasses: {
      InstanceRef inst;
      if (!decode_electable_request(payload, &inst)) {
        return encode_error_response(kStatusBadRequest,
                                     "malformed VIEW_CLASSES payload");
      }
      return run_view_classes(inst);
    }
    case Opcode::kRunElect: {
      RunElectRequest req;
      if (!decode_run_elect_request(payload, &req)) {
        return encode_error_response(kStatusBadRequest,
                                     "malformed RUN_ELECT payload");
      }
      return run_run_elect(req);
    }
    default:
      return encode_error_response(kStatusUnknownOpcode, "unhandled opcode");
  }
}

std::vector<std::uint8_t> Service::run_electable(const InstanceRef& inst) {
  QELECT_CHECK(!inst.home_bases.empty(),
               "ELECTABLE needs at least one home base");
  const BuiltInstance built = build_instance(inst, limits_);
  // The cheap Theorem 3.1 side runs at any served size; the impossibility
  // machinery (Cayley recognition, exhaustive labelings) is the campaign
  // "analyze" workload and is only attempted at classification scale.
  const std::uint64_t gcd = core::final_gcd(built.g, built.p);
  double classification = campaign::kClassElect;
  if (gcd != 1) {
    if (built.g.node_count() <= limits_.max_deep_nodes) {
      const Metrics metrics =
          campaign::run_task(task_for(inst, "analyze"), CancelToken());
      classification = metric(metrics, "class");
    } else {
      classification = campaign::kClassOpen;  // proofs skipped at this size
    }
  }
  WireWriter w;
  w.u32(kStatusOk);
  w.u8(gcd == 1 ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(classification));
  w.u64(gcd);
  w.u64(built.g.node_count());
  return w.take();
}

std::vector<std::uint8_t> Service::run_sigma(const SigmaRequest& req) {
  const BuiltInstance built = build_instance(req.instance, limits_);
  std::size_t max_degree = 0;
  for (graph::NodeId x = 0; x < built.g.node_count(); ++x) {
    max_degree = std::max(max_degree, built.g.degree(x));
  }
  const std::uint32_t alphabet =
      req.alphabet == 0 ? static_cast<std::uint32_t>(max_degree)
                        : req.alphabet;
  QELECT_CHECK(alphabet >= max_degree,
               "alphabet " + std::to_string(alphabet) +
                   " is smaller than the max degree " +
                   std::to_string(max_degree));
  const double labelings = campaign::labeling_count(built.g, alphabet);
  if (labelings > limits_.sigma_budget) {
    return encode_error_response(
        kStatusTooLarge,
        "SIGMA would enumerate " + std::to_string(labelings) +
            " labelings (budget " + std::to_string(limits_.sigma_budget) +
            ")");
  }
  const std::size_t sigma =
      views::max_symmetricity_exhaustive(built.g, built.p, alphabet);
  WireWriter w;
  w.u32(kStatusOk);
  w.u64(sigma);
  w.u32(alphabet);
  w.u64(static_cast<std::uint64_t>(labelings));
  return w.take();
}

std::vector<std::uint8_t> Service::run_view_classes(const InstanceRef& inst) {
  const BuiltInstance built = build_instance(inst, limits_);
  const graph::EdgeLabeling l = graph::EdgeLabeling::from_ports(built.g);
  const auto classes = views::view_classes(built.g, built.p, l);
  WireWriter w;
  w.u32(kStatusOk);
  w.u64(built.g.node_count());
  w.u32(static_cast<std::uint32_t>(classes.size()));
  for (const auto& members : classes) {
    w.u32(static_cast<std::uint32_t>(members.size()));
    for (graph::NodeId x : members) w.u32(x);
  }
  return w.take();
}

std::vector<std::uint8_t> Service::run_run_elect(const RunElectRequest& req) {
  // Size validation only on the scalar path; run_task rebuilds through the
  // worker's WorldPool, so a repeated instance re-uses the pooled arena
  // instead of this copy.
  const BuiltInstance built = validate_run_elect(req, limits_);
  if (req.replicas > 1) return run_run_elect_batch(req, built.g, built.p);
  campaign::TaskSpec task = task_for(req.instance, "elect");
  task.color_seed = req.seed;
  task.scheduler = req.scheduler;
  task.key += "/s=" + std::to_string(req.seed) + "/" + req.scheduler;
  const Metrics metrics = campaign::run_task(task, CancelToken());
  WireWriter w;
  w.u32(kStatusOk);
  w.u8(metric(metrics, "completed") != 0 ? 1 : 0);
  w.u8(metric(metrics, "clean_election") != 0 ? 1 : 0);
  w.u8(metric(metrics, "clean_failure") != 0 ? 1 : 0);
  w.u8(metric(metrics, "matches_oracle") != 0 ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(metric(metrics, "final_gcd")));
  w.u64(static_cast<std::uint64_t>(metric(metrics, "moves")));
  w.u64(static_cast<std::uint64_t>(metric(metrics, "steps")));
  return w.take();
}

/// A multi-replica RUN_ELECT burst: one batch-plan compile, all replicas
/// advanced in lockstep by the batch backend.  A replica the batch model
/// refuses (it never should -- the golden gate pins parity) is re-run on
/// the scalar engine with the identical (seed, replica) counter stream, so
/// the response never degrades, only the stats note the fallback.
std::vector<std::uint8_t> Service::run_run_elect_batch(
    const RunElectRequest& req, const graph::Graph& g,
    const graph::Placement& p) {
  QELECT_CHECK(req.scheduler == "counter",
               "multi-replica RUN_ELECT requires the 'counter' scheduler");
  if (req.replicas > limits_.max_replicas) {
    return encode_error_response(
        kStatusTooLarge,
        "RUN_ELECT burst of " + std::to_string(req.replicas) +
            " replicas exceeds max_replicas = " +
            std::to_string(limits_.max_replicas));
  }
  const auto plan = core::ElectBatchPlanCache::global().plan(g, p);
  std::vector<sim::BatchReplicaConfig> replicas;
  replicas.reserve(req.replicas);
  for (std::uint32_t i = 0; i < req.replicas; ++i) {
    replicas.push_back({req.seed, i});
  }
  sim::BatchConfig config;
  config.policy = sim::SchedulerPolicy::Counter;
  const core::ElectBatchOutcome outcome =
      core::run_elect_batch(plan, replicas, config);

  auto& stats = campaign::batch_stats();
  stats.slabs_run.fetch_add(1, std::memory_order_relaxed);
  stats.replicas_run.fetch_add(req.replicas, std::memory_order_relaxed);
  stats.slab_size_hist[campaign::BatchStats::bucket_of(req.replicas)]
      .fetch_add(1, std::memory_order_relaxed);

  std::vector<ReplicaVerdict> verdicts(req.replicas);
  for (std::uint32_t i = 0; i < req.replicas; ++i) {
    sim::RunResult run;
    if (outcome.failed[i]) {
      stats.scalar_fallbacks.fetch_add(1, std::memory_order_relaxed);
      sim::World world(g, p, /*color_seed=*/req.seed);
      sim::RunConfig cfg;
      cfg.policy = sim::SchedulerPolicy::Counter;
      cfg.seed = req.seed;
      cfg.replica = i;
      run = world.run(core::make_elect_protocol(), cfg);
    } else {
      run = outcome.runs[i];
    }
    ReplicaVerdict& v = verdicts[i];
    v.completed = run.completed ? 1 : 0;
    v.clean_election = run.clean_election() ? 1 : 0;
    v.clean_failure = run.clean_failure() ? 1 : 0;
    v.matches_oracle =
        (run.completed && run.clean_election() == (plan->final_gcd == 1) &&
         run.clean_failure() == (plan->final_gcd != 1))
            ? 1
            : 0;
    v.final_gcd = plan->final_gcd;
    v.moves = run.total_moves;
    v.steps = run.steps;
  }

  WireWriter w;
  w.u32(kStatusOk);
  w.u8(verdicts[0].completed);
  w.u8(verdicts[0].clean_election);
  w.u8(verdicts[0].clean_failure);
  w.u8(verdicts[0].matches_oracle);
  w.u64(verdicts[0].final_gcd);
  w.u64(verdicts[0].moves);
  w.u64(verdicts[0].steps);
  w.u32(req.replicas);
  for (const ReplicaVerdict& v : verdicts) {
    w.u8(v.completed);
    w.u8(v.clean_election);
    w.u8(v.clean_failure);
    w.u8(v.matches_oracle);
    w.u64(v.final_gcd);
    w.u64(v.moves);
    w.u64(v.steps);
  }
  return w.take();
}

bool Service::coalescible(const RunElectRequest& req) {
  return req.replicas == 1 &&
         (req.scheduler == "random" || req.scheduler == "round-robin" ||
          req.scheduler == "lockstep" || req.scheduler == "counter");
}

void Service::note_request(std::uint16_t opcode) {
  if (opcode < kOpcodeSlots) {
    requests_[opcode].fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::vector<std::uint8_t>> Service::run_elect_coalesced(
    const std::vector<RunElectRequest>& reqs) {
  requests_[static_cast<std::uint16_t>(Opcode::kRunElect)].fetch_add(
      reqs.size(), std::memory_order_relaxed);
  std::vector<std::vector<std::uint8_t>> out(reqs.size());
  try {
    // The whole group shares (instance, scheduler), so validating the
    // head through the same helper as run_run_elect yields the exact
    // kStatusBadRequest bytes every member would have gotten alone.
    const RunElectRequest& req = reqs.front();
    const BuiltInstance built = validate_run_elect(req, limits_);
    const auto plan = core::ElectBatchPlanCache::global().plan(built.g, built.p);
    std::vector<sim::BatchReplicaConfig> replicas;
    replicas.reserve(reqs.size());
    for (const RunElectRequest& r : reqs) {
      // Replica (seed, 0): bit-equal to the scalar path's
      // run_config(task) stream, where the color seed doubles as the
      // scheduler seed and the replica index defaults to 0.
      replicas.push_back({r.seed, 0});
    }
    sim::BatchConfig config;
    config.policy = campaign::policy_from_name(req.scheduler);
    const core::ElectBatchOutcome outcome =
        core::run_elect_batch(plan, replicas, config);

    auto& stats = campaign::batch_stats();
    stats.slabs_run.fetch_add(1, std::memory_order_relaxed);
    stats.replicas_run.fetch_add(reqs.size(), std::memory_order_relaxed);
    stats.slab_size_hist[campaign::BatchStats::bucket_of(reqs.size())]
        .fetch_add(1, std::memory_order_relaxed);

    for (std::size_t i = 0; i < reqs.size(); ++i) {
      sim::RunResult run;
      if (outcome.failed[i]) {
        stats.scalar_fallbacks.fetch_add(1, std::memory_order_relaxed);
        sim::World world(built.g, built.p, /*color_seed=*/reqs[i].seed);
        sim::RunConfig cfg;
        cfg.policy = config.policy;
        cfg.seed = reqs[i].seed;
        run = world.run(core::make_elect_protocol(), cfg);
      } else {
        run = outcome.runs[i];
      }
      const bool matches =
          run.completed && run.clean_election() == (plan->final_gcd == 1) &&
          run.clean_failure() == (plan->final_gcd != 1);
      WireWriter w;
      w.u32(kStatusOk);
      w.u8(run.completed ? 1 : 0);
      w.u8(run.clean_election() ? 1 : 0);
      w.u8(run.clean_failure() ? 1 : 0);
      w.u8(matches ? 1 : 0);
      w.u64(plan->final_gcd);
      w.u64(run.total_moves);
      w.u64(run.steps);
      out[i] = w.take();
    }
  } catch (const CheckError& e) {
    const auto err = encode_error_response(kStatusBadRequest, e.what());
    for (auto& o : out) o = err;
  } catch (const std::exception& e) {
    const auto err = encode_error_response(kStatusError, e.what());
    for (auto& o : out) o = err;
  }
  for (const auto& o : out) {
    if (response_status(o) != kStatusOk) {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<std::uint8_t> Service::run_stats(
    const ResponseCache* cache,
    const std::vector<std::pair<std::string, std::uint64_t>>* extra) {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (std::uint16_t code = 0; code < kOpcodeSlots; ++code) {
    if (!known_opcode(code)) continue;
    counters.emplace_back(
        std::string("requests_") + opcode_name(static_cast<Opcode>(code)),
        requests_[code].load(std::memory_order_relaxed));
  }
  counters.emplace_back("errors", errors_.load(std::memory_order_relaxed));

  // Batch-backend counters, shared with the campaign engine: RUN_ELECT
  // bursts and campaign slabs both land here.
  const auto& batch = campaign::batch_stats();
  counters.emplace_back("batch_slabs_run",
                        batch.slabs_run.load(std::memory_order_relaxed));
  counters.emplace_back("batch_replicas_run",
                        batch.replicas_run.load(std::memory_order_relaxed));
  counters.emplace_back(
      "batch_scalar_fallbacks",
      batch.scalar_fallbacks.load(std::memory_order_relaxed));
  static const char* kSlabBucketNames[campaign::kSlabHistBuckets] = {
      "batch_slab_size_1",     "batch_slab_size_2_3",
      "batch_slab_size_4_7",   "batch_slab_size_8_15",
      "batch_slab_size_16_31", "batch_slab_size_32_plus"};
  for (std::size_t b = 0; b < campaign::kSlabHistBuckets; ++b) {
    counters.emplace_back(
        kSlabBucketNames[b],
        batch.slab_size_hist[b].load(std::memory_order_relaxed));
  }

  // Fault-injection counters (src/fault), process-wide like the batch
  // counters: any faulted run in this process reports here.
  const auto& faults = fault::fault_stats();
  counters.emplace_back("fault_runs",
                        faults.faulted_runs.load(std::memory_order_relaxed));
  for (std::size_t a = 0; a < fault::kFaultAxisCount; ++a) {
    counters.emplace_back(
        std::string("fault_events_") +
            fault::axis_name(static_cast<fault::FaultAxis>(a)),
        faults.events_by_axis[a].load(std::memory_order_relaxed));
  }

  // Batch-plan compile cache (core), shared by the coalescer, the
  // multi-replica RUN_ELECT path, and campaign slabs.
  const auto pc = core::ElectBatchPlanCache::global().stats();
  counters.emplace_back("plan_cache_hits", pc.hits);
  counters.emplace_back("plan_cache_misses", pc.misses);
  counters.emplace_back("plan_cache_compiles", pc.compiles);
  counters.emplace_back("plan_cache_evictions", pc.evictions);
  counters.emplace_back("plan_cache_entries", pc.entries);
  counters.emplace_back("plan_cache_capacity", pc.capacity);

  if (cache != nullptr) {
    const auto rc = cache->stats();
    counters.emplace_back("response_cache_hits", rc.hits);
    counters.emplace_back("response_cache_misses", rc.misses);
    counters.emplace_back("response_cache_evictions", rc.evictions);
    counters.emplace_back("response_cache_entries", rc.entries);
    counters.emplace_back("response_cache_capacity", rc.capacity);
  }
  if (extra != nullptr) {
    counters.insert(counters.end(), extra->begin(), extra->end());
  }

  WireWriter w;
  w.u32(kStatusOk);
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [key, value] : counters) {
    w.str(key);
    w.u64(value);
  }
  return w.take();
}

Service::Counters Service::counters() const {
  Counters out;
  out.requests.resize(kOpcodeSlots);
  for (std::size_t i = 0; i < kOpcodeSlots; ++i) {
    out.requests[i] = requests_[i].load(std::memory_order_relaxed);
  }
  out.errors = errors_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace qelect::serve
