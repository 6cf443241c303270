// Request execution behind the qelectd wire protocol.
//
// Service is the network-free half of the server: a decoded (opcode,
// payload) pair in, a response payload out.  It owns no sockets and no
// threads, which is what makes the whole opcode surface unit-testable
// (tests/test_serve.cpp) and reusable by an in-process bench harness.
//
// Execution reuses the layers the repo already trusts instead of
// reimplementing them:
//
//   * ELECTABLE classifies the instance it built with campaign::classify,
//     as the campaign "analyze" workload does.
//   * A single-seed RUN_ELECT handled on its own becomes a
//     campaign::TaskSpec run by campaign::run_task on the worker's
//     campaign::WorldPool, so its answer is bit-for-bit the metrics an
//     equivalent campaign task commits (tests/test_serve.cpp pins this).
//     It is the reference for the batch paths: a multi-replica RUN_ELECT
//     and a window of coalesced single-seed ones each run as one slab
//     through campaign::run_elect_replicas, the campaign slab runner.
//   * SIGMA and VIEW_CLASSES call views:: directly; SIGMA's exhaustive
//     labeling enumeration is bounded by ServiceLimits::sigma_budget and
//     refused with kStatusTooLarge beyond it (a server must not let one
//     query monopolize a core for minutes).
//
// Queries are pure functions of their payload (RUN_ELECT is deterministic
// in its seed -- the same determinism the campaign resume protocol relies
// on), so responses are memoizable: the server gives each worker thread a
// ResponseCache and handle() serves repeats straight from it.  The cache
// is per worker (like WorldPool) rather than shared, so only a STATS
// read from another worker ever contends for its lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qelect/serve/protocol.hpp"
#include "qelect/util/lru_cache.hpp"

namespace qelect::serve {

/// Compute bounds a deployment can tune (qelectd flags).  They bound the
/// *cost* of one query; the wire layer's max_payload bounds its *size*.
struct ServiceLimits {
  /// Largest instance (node count) any opcode will build.
  std::size_t max_nodes = 4096;
  /// SIGMA refuses instances whose locally-distinct labeling count
  /// exceeds this (the enumeration is exponential).
  double sigma_budget = 1e6;
};

/// Bounded LRU of encoded responses keyed by (opcode, request payload).
/// One per worker thread.
class ResponseCache
    : public util::LruCache<std::string, std::vector<std::uint8_t>> {
 public:
  using LruCache::LruCache;

  /// The memo key: opcode bytes + raw request payload (requests are
  /// canonical encodings, so byte equality is request equality).
  static std::string key(std::uint16_t opcode,
                         const std::vector<std::uint8_t>& payload);
};

class Service {
 public:
  explicit Service(ServiceLimits limits = {});

  /// Executes one request and returns the response payload (always
  /// well-formed, starting with a u32 Status; execution failures become
  /// kStatusError responses, never exceptions).  `cache`, when given,
  /// memoizes successful responses per worker; `extra` counters, when
  /// given, are appended to STATS responses (the server injects its
  /// cross-worker aggregates there).  Thread-safe: per-opcode counters are
  /// atomics and all shared state below this call is lock-protected
  /// (the util::LruCache memos) or thread-local (WorldPool).
  std::vector<std::uint8_t> handle(
      std::uint16_t opcode, const std::vector<std::uint8_t>& payload,
      ResponseCache* cache = nullptr,
      const std::vector<std::pair<std::string, std::uint64_t>>* extra =
          nullptr);

  const ServiceLimits& limits() const { return limits_; }

  /// True when `req` can join a coalesced cross-request slab: exactly one
  /// replica under a scheduler the batch backend has bit parity for.  The
  /// server only coalesces requests this admits; everything else flows
  /// through handle() unchanged.
  static bool coalescible(const RunElectRequest& req);

  /// Executes a window's worth of coalesced single-seed RUN_ELECT
  /// requests as ONE batch slab and returns one response payload per
  /// request, in order.  Every request must share (instance, scheduler) --
  /// the server groups by instance before calling -- and each response is
  /// byte-identical to what handle() would have produced for that request
  /// alone: replica (seed, 0) of the slab is bit-equal to the scalar
  /// (seed, replica=0) run (the golden parity gate), and validation
  /// errors depend only on the shared instance.  Counts requests/errors
  /// itself; never throws.
  std::vector<std::vector<std::uint8_t>> run_elect_coalesced(
      const std::vector<RunElectRequest>& reqs);

  /// Counts a request the server answered without handle() -- the
  /// coalescing path's response-cache hits -- so STATS request totals
  /// stay exact.
  void note_request(std::uint16_t opcode);

  /// Requests seen per opcode (index = raw opcode) plus error responses
  /// issued, for STATS and tests.
  struct Counters {
    std::vector<std::uint64_t> requests;  // by raw opcode value
    std::uint64_t errors = 0;
  };
  Counters counters() const;

 private:
  std::vector<std::uint8_t> execute(Opcode op,
                                    const std::vector<std::uint8_t>& payload);
  std::vector<std::uint8_t> run_electable(const InstanceRef& inst);
  std::vector<std::uint8_t> run_sigma(const SigmaRequest& req);
  std::vector<std::uint8_t> run_view_classes(const InstanceRef& inst);
  std::vector<std::uint8_t> run_run_elect(const RunElectRequest& req);
  std::vector<std::uint8_t> run_stats(
      const ResponseCache* cache,
      const std::vector<std::pair<std::string, std::uint64_t>>* extra);

  ServiceLimits limits_;
  static constexpr std::size_t kOpcodeSlots = 8;
  std::atomic<std::uint64_t> requests_[kOpcodeSlots];
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace qelect::serve
