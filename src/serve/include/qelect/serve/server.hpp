// qelectd's network engine: epoll event loop, acceptor, worker shards.
//
// Threading model (thread-per-core, shared-nothing on the hot path):
//
//   * one acceptor thread owns the listen socket; accepted connections are
//     handed to workers round-robin through a small locked queue plus an
//     eventfd wakeup -- the lock is touched once per connection, never per
//     request;
//   * each worker thread owns an epoll instance and the full lifecycle of
//     its connections: read, frame decode, Service::handle, write.  A
//     connection never migrates, so per-connection buffers need no locks;
//   * frame handling is pipelined: one readable event drains the socket
//     and decodes *every* complete frame before any response is written,
//     and queued responses leave in a single vectored writev.  Responses
//     are sequenced through per-connection FIFO slots, so a request
//     parked in the coalescer can never be overtaken by a later request
//     on the same connection;
//   * each worker runs a micro-batching coalescer for single-seed
//     RUN_ELECT: requests for the same instance arriving within a
//     bounded window (ServerOptions::coalesce_window_us) are executed as
//     one batch slab via Service::run_elect_coalesced, with byte-identical
//     per-request responses.  Deadlines ride the epoll timeout
//     (epoll_pwait2 for sub-millisecond windows where available);
//   * each worker owns a ResponseCache (memoized encoded responses) and its
//     thread-local campaign::WorldPool; the only cross-thread state on a
//     query's path is the process-wide memos (plans, routes, Cayley
//     recognition), each a mutex-guarded util::LruCache.
//
// Workers publish their thread-local pool counters to relaxed atomics
// after each request, and the worker that handles a STATS request folds
// them, and every shard's response-cache counters (read under that
// cache's lock), into the response.
//
// Protocol-level failures (bad magic, bad checksum, payload over the
// limit) poison the stream's framing, so the connection is closed --
// after, where a valid header allows it, an error response.  Semantic
// failures (unknown opcode, bad instance) are ordinary error responses on
// a healthy connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qelect/serve/service.hpp"

namespace qelect::serve {

/// The most worker shards a Server starts; start() refuses more.
inline constexpr std::size_t kMaxWorkers = 256;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see Server::port()).
  std::uint16_t port = 0;
  /// Worker shards; 0 = hardware_concurrency (capped at 16).  At most
  /// kMaxWorkers.
  std::size_t workers = 0;
  /// Per-worker ResponseCache capacity (entries).
  std::size_t response_cache_capacity = 4096;
  /// Largest accepted request payload.
  std::size_t max_payload = kMaxPayload;
  /// Cross-request RUN_ELECT coalescing window, in microseconds.  Within
  /// one window a worker collects concurrent single-seed RUN_ELECTs for
  /// the same instance -- across connections -- and runs them as one
  /// batch slab.  0 disables coalescing (every request executes
  /// immediately, exactly the pre-coalescing path).
  std::uint64_t coalesce_window_us = 200;
  /// Largest coalesced slab; a full group flushes early instead of
  /// waiting out the window.  Clamped to kMaxReplicas.
  std::uint32_t coalesce_max = 128;
  ServiceLimits limits;
};

/// A running qelectd instance.  start() binds and spawns threads; stop()
/// (or destruction) shuts down, closing every connection.  Usable both by
/// the daemon binary and in-process (tests, the bench load generator).
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the acceptor + workers.  Throws
  /// qelect::CheckError on bind/listen failure, and before opening any
  /// socket when options.workers exceeds kMaxWorkers.
  void start();
  /// Idempotent; joins all threads and closes all sockets.
  void stop();

  /// The bound TCP port (resolves option port 0 to the real one).
  std::uint16_t port() const { return port_; }
  std::size_t worker_count() const { return workers_.size(); }

  Service& service() { return service_; }

  /// Totals since start(), for tests and logs.
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct Worker;
  struct PendingElect;
  struct CoalesceGroup;

  void acceptor_loop();
  void worker_loop(Worker& w);
  int wait_events(Worker& w, void* events, int max_events);
  void handle_readable(Worker& w, Connection& c);
  void dispatch_request(Worker& w, Connection& c, std::uint16_t opcode,
                        std::uint64_t request_id,
                        std::vector<std::uint8_t> payload);
  void emit_ready(Connection& c);
  void flush_group(Worker& w, CoalesceGroup group);
  void flush_due_groups(Worker& w, bool force);
  bool flush_writes(Worker& w, Connection& c);
  void close_connection(Worker& w, Connection& c);
  void publish_worker_stats(Worker& w);
  std::vector<std::pair<std::string, std::uint64_t>> aggregate_stats() const;

  ServerOptions options_;
  Service service_;

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::size_t> next_worker_{0};
};

}  // namespace qelect::serve
