#include "qelect/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "qelect/campaign/world_pool.hpp"
#include "qelect/util/assert.hpp"

// epoll_pwait2 (nanosecond timeouts, needed for sub-millisecond coalescing
// windows) has a glibc wrapper since 2.35; pre-5.11 kernels report ENOSYS
// at runtime and we fall back to millisecond epoll_wait.
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 35)
#define QELECT_HAVE_EPOLL_PWAIT2 1
#endif
#endif

namespace qelect::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Past this much un-acked response data the worker stops reading from the
/// connection (backpressure) instead of buffering without bound.
constexpr std::size_t kMaxOutBacklog = 8 << 20;

/// iovecs per writev call; longer output queues loop.
constexpr int kMaxIov = 64;

void wake(int event_fd) {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
}

void drain(int event_fd) {
  std::uint64_t value = 0;
  [[maybe_unused]] ssize_t n = ::read(event_fd, &value, sizeof(value));
}

/// Coalescing-group identity: everything of a RunElectRequest except the
/// seed (which becomes the replica axis of the slab).
std::string group_key_of(const RunElectRequest& req) {
  std::ostringstream out;
  out << req.instance.family;
  for (const std::uint64_t p : req.instance.params) out << ',' << p;
  out << '|';
  for (const std::uint32_t b : req.instance.home_bases) out << b << ',';
  out << '|' << req.scheduler;
  return out.str();
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  /// Worker-unique generation: a PendingElect parked in the coalescer
  /// names its connection as (fd, gen), so a response for a connection
  /// that died mid-window can never land on a reused fd.
  std::uint64_t gen = 0;
  std::vector<std::uint8_t> in;

  /// FIFO response sequencing.  Every decoded request reserves one slot,
  /// in arrival order; immediate requests fill theirs at dispatch,
  /// coalesced ones when their slab flushes.  Only the contiguous ready
  /// prefix moves to `out`, so responses never reorder within a
  /// connection whatever the coalescer does.
  struct Slot {
    bool ready = false;
    std::vector<std::uint8_t> frame;
  };
  std::deque<Slot> slots;
  std::uint64_t slots_base = 0;  // slot id of slots.front()
  std::uint64_t next_slot_id = 0;

  /// Encoded frames awaiting the socket, flushed with one writev.
  std::deque<std::vector<std::uint8_t>> out;
  std::size_t out_pos = 0;    // bytes of out.front() already sent
  std::size_t out_bytes = 0;  // unsent bytes across all of `out`
  bool want_write = false;    // EPOLLOUT armed
  bool paused = false;        // EPOLLIN disarmed (output backpressure)
  bool closing = false;       // close once slots resolve and `out` drains
};

/// One request parked in a worker's coalescer, with everything needed to
/// scatter the response back after the slab runs.
struct Server::PendingElect {
  int fd = -1;
  std::uint64_t gen = 0;
  std::uint64_t slot = 0;
  std::uint64_t request_id = 0;
  std::string cache_key;
  RunElectRequest req;
};

struct Server::CoalesceGroup {
  std::vector<PendingElect> reqs;
  Clock::time_point deadline;
  bool full = false;  // flushed because it hit coalesce_max, not the window
};

struct Server::Worker {
  explicit Worker(std::size_t index, std::size_t cache_capacity)
      : index(index), cache(cache_capacity) {}

  std::size_t index;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  ResponseCache cache;

  std::mutex mu;
  std::vector<int> pending;  // fds handed over by the acceptor

  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::uint64_t next_gen = 0;

  // Micro-batching coalescer (worker-owned, no locks): open groups by
  // instance key, plus groups that hit coalesce_max mid-drain and wait
  // for the event batch to finish before flushing.
  std::unordered_map<std::string, CoalesceGroup> coalesce;
  std::vector<CoalesceGroup> full_groups;

  // Published (relaxed) after every request so any shard can aggregate.
  std::atomic<std::uint64_t> pool_hits{0}, pool_misses{0}, pool_evictions{0},
      pool_entries{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> coalesce_slabs{0}, coalesce_requests{0},
      coalesce_window_flushes{0}, coalesce_full_flushes{0};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.limits) {}

Server::~Server() { stop(); }

void Server::start() {
  QELECT_CHECK(!started_, "server already started");
  QELECT_CHECK(options_.workers <= kMaxWorkers,
               "workers " + std::to_string(options_.workers) +
                   " is above the limit of " + std::to_string(kMaxWorkers));

  options_.coalesce_max =
      std::clamp<std::uint32_t>(options_.coalesce_max, 1, kMaxReplicas);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  QELECT_CHECK(listen_fd_ >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  QELECT_CHECK(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
               "invalid listen address '" + options_.host + "'");
  QELECT_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(" + options_.host + ":" + std::to_string(options_.port) +
                   ") failed: " + std::strerror(errno));
  QELECT_CHECK(::listen(listen_fd_, 512) == 0,
               std::string("listen() failed: ") + std::strerror(errno));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  QELECT_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "getsockname() failed");
  port_ = ntohs(bound.sin_port);

  accept_wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  QELECT_CHECK(accept_wake_fd_ >= 0, "eventfd() failed");

  std::size_t n_workers = options_.workers;
  if (n_workers == 0) {
    n_workers = std::max<std::size_t>(1u, std::thread::hardware_concurrency());
    n_workers = std::min<std::size_t>(n_workers, 16);
  }
  for (std::size_t i = 0; i < n_workers; ++i) {
    auto w = std::make_unique<Worker>(i, options_.response_cache_capacity);
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    QELECT_CHECK(w->epoll_fd >= 0, "epoll_create1() failed");
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    QELECT_CHECK(w->wake_fd >= 0, "eventfd() failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    QELECT_CHECK(::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) == 0,
                 "epoll_ctl(wake) failed");
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_loop(*worker); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  started_ = true;
}

void Server::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  wake(accept_wake_fd_);
  for (auto& w : workers_) wake(w->wake_fd);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
    if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    if (w->wake_fd >= 0) ::close(w->wake_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (accept_wake_fd_ >= 0) ::close(accept_wake_fd_);
  listen_fd_ = accept_wake_fd_ = -1;
  started_ = false;
}

// ---- acceptor ------------------------------------------------------------

void Server::acceptor_loop() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  while (!stopping_.load(std::memory_order_acquire)) {
    epoll_event events[8];
    const int n = ::epoll_wait(epoll_fd, events, 8, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == accept_wake_fd_) {
        drain(accept_wake_fd_);
        continue;
      }
      while (true) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN, or a transient accept failure
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        active_.fetch_add(1, std::memory_order_relaxed);
        Worker& w = *workers_[next_worker_.fetch_add(
                                 1, std::memory_order_relaxed) %
                             workers_.size()];
        {
          std::lock_guard<std::mutex> lock(w.mu);
          w.pending.push_back(fd);
        }
        wake(w.wake_fd);
      }
    }
  }
  ::close(epoll_fd);
}

// ---- worker --------------------------------------------------------------

/// epoll_wait whose timeout is the earliest open coalescing deadline; a
/// quiet socket therefore still flushes its window on time.  Blocks
/// indefinitely when no group is open.
int Server::wait_events(Worker& w, void* events_raw, int max_events) {
  epoll_event* events = static_cast<epoll_event*>(events_raw);
  if (w.coalesce.empty()) {
    return ::epoll_wait(w.epoll_fd, events, max_events, -1);
  }
  Clock::time_point earliest = Clock::time_point::max();
  for (const auto& [key, group] : w.coalesce) {
    earliest = std::min(earliest, group.deadline);
  }
  const Clock::time_point now = Clock::now();
  if (earliest <= now) {
    return ::epoll_wait(w.epoll_fd, events, max_events, 0);
  }
  const auto remaining = earliest - now;
#ifdef QELECT_HAVE_EPOLL_PWAIT2
  static std::atomic<bool> pwait2_missing{false};
  if (!pwait2_missing.load(std::memory_order_relaxed)) {
    timespec ts;
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(remaining);
    ts.tv_sec = secs.count();
    ts.tv_nsec =
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining - secs)
            .count();
    const int n = ::epoll_pwait2(w.epoll_fd, events, max_events, &ts, nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    pwait2_missing.store(true, std::memory_order_relaxed);  // pre-5.11 kernel
  }
#endif
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count() +
      1;  // ceil: waking early busy-polls, waking late only stretches a window
  const int timeout =
      static_cast<int>(std::min<long long>(ms, 1000));
  return ::epoll_wait(w.epoll_fd, events, max_events, timeout);
}

void Server::worker_loop(Worker& w) {
  bool running = true;
  while (running) {
    epoll_event events[64];
    const int n = wait_events(w, events, 64);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == w.wake_fd) {
        drain(w.wake_fd);
        if (stopping_.load(std::memory_order_acquire)) {
          running = false;
          continue;
        }
        std::vector<int> fresh;
        {
          std::lock_guard<std::mutex> lock(w.mu);
          fresh.swap(w.pending);
        }
        for (int conn_fd : fresh) {
          auto conn = std::make_unique<Connection>();
          conn->fd = conn_fd;
          conn->gen = ++w.next_gen;
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = conn_fd;
          if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, conn_fd, &ev) != 0) {
            ::close(conn_fd);
            active_.fetch_sub(1, std::memory_order_relaxed);
            continue;
          }
          w.conns.emplace(conn_fd, std::move(conn));
        }
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;  // closed earlier in this batch
      Connection& c = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(w, c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush_writes(w, c)) continue;  // connection closed
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(w, c);
    }
    // Groups run only here, after the whole event batch drained into
    // them -- never while handle_readable holds a Connection reference.
    flush_due_groups(w, /*force=*/false);
  }
  // Answer whatever the coalescer still holds, then close everything on
  // the owning thread (leftover pending fds were never registered).
  flush_due_groups(w, /*force=*/true);
  {
    std::lock_guard<std::mutex> lock(w.mu);
    for (int fd : w.pending) {
      ::close(fd);
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
    w.pending.clear();
  }
  for (auto& [fd, conn] : w.conns) {
    ::close(fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
  w.conns.clear();
}

void Server::handle_readable(Worker& w, Connection& c) {
  bool eof = false;
  while (!c.paused) {
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(w, c);
    return;
  }

  // Pipelined: decode and dispatch EVERY complete frame before touching
  // the socket again; responses accumulate in the slot queue and leave in
  // one writev below.
  std::size_t offset = 0;
  while (!c.closing && offset < c.in.size()) {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    std::size_t consumed = 0;
    const DecodeStatus st =
        decode_frame(c.in.data() + offset, c.in.size() - offset, &header,
                     &payload, &consumed, options_.max_payload);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kOk) {
      offset += consumed;
      dispatch_request(w, c, header.opcode, header.request_id,
                       std::move(payload));
      continue;
    }
    // Framing is lost: answer what the header allows, then hang up.
    if (st == DecodeStatus::kOversized) {
      const std::uint64_t slot_id = c.next_slot_id++;
      c.slots.emplace_back();
      Connection::Slot& slot = c.slots[slot_id - c.slots_base];
      slot.ready = true;
      slot.frame = encode_frame(
          static_cast<Opcode>(header.opcode), header.request_id,
          encode_error_response(
              kStatusTooLarge,
              "payload of " + std::to_string(header.payload_size) +
                  " bytes exceeds the limit of " +
                  std::to_string(options_.max_payload)));
    }
    c.closing = true;
  }
  if (offset > 0) {
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  emit_ready(c);
  if (!flush_writes(w, c)) return;  // connection closed
  if (eof) {
    // Half-close with requests still parked in the coalescer: keep the
    // connection until their slab answers them, then close on drain.
    c.closing = true;
    if (c.out_bytes == 0 && c.slots.empty()) close_connection(w, c);
  }
}

/// Routes one decoded request: coalescible RUN_ELECTs are answered from
/// the response cache or parked in the worker's coalescer; everything
/// else executes immediately.  Either way the request's response slot is
/// reserved here, so per-connection response order is arrival order.
void Server::dispatch_request(Worker& w, Connection& c, std::uint16_t opcode,
                              std::uint64_t request_id,
                              std::vector<std::uint8_t> payload) {
  const std::uint64_t slot_id = c.next_slot_id++;
  c.slots.emplace_back();

  if (options_.coalesce_window_us > 0 &&
      opcode == static_cast<std::uint16_t>(Opcode::kRunElect)) {
    RunElectRequest req;
    if (decode_run_elect_request(payload, &req) && Service::coalescible(req)) {
      std::string key = ResponseCache::key(opcode, payload);
      if (const auto hit = w.cache.lookup(key)) {
        service_.note_request(opcode);
        Connection::Slot& slot = c.slots[slot_id - c.slots_base];
        slot.ready = true;
        slot.frame = encode_frame(Opcode::kRunElect, request_id, *hit);
        w.requests.fetch_add(1, std::memory_order_relaxed);
        publish_worker_stats(w);
        return;
      }
      const std::string gkey = group_key_of(req);
      CoalesceGroup& group = w.coalesce[gkey];
      if (group.reqs.empty()) {
        group.deadline =
            Clock::now() +
            std::chrono::microseconds(options_.coalesce_window_us);
      }
      group.reqs.push_back(PendingElect{c.fd, c.gen, slot_id, request_id,
                                        std::move(key), std::move(req)});
      if (group.reqs.size() >= options_.coalesce_max) {
        group.full = true;
        w.full_groups.push_back(std::move(group));
        w.coalesce.erase(gkey);
      }
      return;
    }
  }

  std::vector<std::uint8_t> response;
  if (opcode == static_cast<std::uint16_t>(Opcode::kStats)) {
    const auto extra = aggregate_stats();
    response = service_.handle(opcode, payload, nullptr, &extra);
  } else {
    response = service_.handle(opcode, payload, &w.cache);
  }
  Connection::Slot& slot = c.slots[slot_id - c.slots_base];
  slot.ready = true;
  slot.frame =
      encode_frame(static_cast<Opcode>(opcode), request_id, response);
  w.requests.fetch_add(1, std::memory_order_relaxed);
  publish_worker_stats(w);
}

/// Moves the contiguous ready prefix of the slot queue into the write
/// queue.  Anything behind an unfilled (coalesced) slot stays put.
void Server::emit_ready(Connection& c) {
  while (!c.slots.empty() && c.slots.front().ready) {
    c.out_bytes += c.slots.front().frame.size();
    c.out.push_back(std::move(c.slots.front().frame));
    c.slots.pop_front();
    ++c.slots_base;
  }
}

/// Runs one coalesced group as a single batch slab and scatters the
/// responses back to their (possibly many) connections.
void Server::flush_group(Worker& w, CoalesceGroup group) {
  std::vector<RunElectRequest> reqs;
  reqs.reserve(group.reqs.size());
  for (PendingElect& p : group.reqs) reqs.push_back(std::move(p.req));
  const std::vector<std::vector<std::uint8_t>> responses =
      service_.run_elect_coalesced(reqs);

  w.coalesce_slabs.fetch_add(1, std::memory_order_relaxed);
  w.coalesce_requests.fetch_add(reqs.size(), std::memory_order_relaxed);
  (group.full ? w.coalesce_full_flushes : w.coalesce_window_flushes)
      .fetch_add(1, std::memory_order_relaxed);
  w.requests.fetch_add(reqs.size(), std::memory_order_relaxed);

  std::vector<std::pair<int, std::uint64_t>> touched;
  for (std::size_t i = 0; i < group.reqs.size(); ++i) {
    const PendingElect& p = group.reqs[i];
    WireReader status(responses[i]);
    if (status.u32() == kStatusOk) w.cache.insert(p.cache_key, responses[i]);
    auto it = w.conns.find(p.fd);
    if (it == w.conns.end() || it->second->gen != p.gen) continue;
    Connection& c = *it->second;
    Connection::Slot& slot = c.slots[p.slot - c.slots_base];
    slot.ready = true;
    slot.frame = encode_frame(Opcode::kRunElect, p.request_id, responses[i]);
    if (std::find(touched.begin(), touched.end(),
                  std::make_pair(p.fd, p.gen)) == touched.end()) {
      touched.emplace_back(p.fd, p.gen);
    }
  }
  for (const auto& [fd, gen] : touched) {
    auto it = w.conns.find(fd);
    if (it == w.conns.end() || it->second->gen != gen) continue;
    Connection& c = *it->second;
    emit_ready(c);
    flush_writes(w, c);
  }
  publish_worker_stats(w);
}

/// Flushes every group past its deadline (all of them when forced), plus
/// any group that filled up during the last event batch.
void Server::flush_due_groups(Worker& w, bool force) {
  std::vector<CoalesceGroup> due;
  due.swap(w.full_groups);
  if (!w.coalesce.empty()) {
    const Clock::time_point now = Clock::now();
    for (auto it = w.coalesce.begin(); it != w.coalesce.end();) {
      if (force || it->second.deadline <= now) {
        due.push_back(std::move(it->second));
        it = w.coalesce.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (CoalesceGroup& group : due) flush_group(w, std::move(group));
}

/// Writes as much of `c.out` as the socket accepts, one writev per
/// syscall.  Returns false when the connection was closed (fatal write
/// error, or fully drained while `closing`).
bool Server::flush_writes(Worker& w, Connection& c) {
  while (c.out_bytes > 0) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t skip = c.out_pos;
    for (const std::vector<std::uint8_t>& buf : c.out) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(buf.data()) + skip;
      iov[iovcnt].iov_len = buf.size() - skip;
      ++iovcnt;
      skip = 0;
    }
    ssize_t n = ::writev(c.fd, iov, iovcnt);
    if (n > 0) {
      c.out_bytes -= static_cast<std::size_t>(n);
      while (n > 0) {
        const std::size_t front_left = c.out.front().size() - c.out_pos;
        if (static_cast<std::size_t>(n) >= front_left) {
          n -= static_cast<ssize_t>(front_left);
          c.out.pop_front();
          c.out_pos = 0;
        } else {
          c.out_pos += static_cast<std::size_t>(n);
          n = 0;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_connection(w, c);
    return false;
  }
  if (c.out_bytes == 0 && c.closing && c.slots.empty()) {
    close_connection(w, c);
    return false;
  }

  const bool want_write = c.out_bytes > 0;
  const bool paused = c.out_bytes > kMaxOutBacklog;
  if (want_write != c.want_write || paused != c.paused) {
    c.want_write = want_write;
    c.paused = paused;
    epoll_event ev{};
    ev.events = (paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }
  return true;
}

void Server::close_connection(Worker& w, Connection& c) {
  const int fd = c.fd;
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  w.conns.erase(fd);  // destroys c; parked PendingElects die via gen check
  active_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::publish_worker_stats(Worker& w) {
  const auto pool = campaign::WorldPool::local().stats();
  w.pool_hits.store(pool.hits, std::memory_order_relaxed);
  w.pool_misses.store(pool.misses, std::memory_order_relaxed);
  w.pool_evictions.store(pool.evictions, std::memory_order_relaxed);
  w.pool_entries.store(pool.entries, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>> Server::aggregate_stats()
    const {
  std::uint64_t rc_hits = 0, rc_misses = 0, rc_evictions = 0, rc_entries = 0;
  std::uint64_t wp_hits = 0, wp_misses = 0, wp_evictions = 0, wp_entries = 0;
  std::uint64_t co_slabs = 0, co_requests = 0, co_window = 0, co_full = 0;
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& w : workers_) {
    const util::CacheStats rc = w->cache.stats();  // under the cache's lock
    rc_hits += rc.hits;
    rc_misses += rc.misses;
    rc_evictions += rc.evictions;
    rc_entries += rc.entries;
    wp_hits += w->pool_hits.load(std::memory_order_relaxed);
    wp_misses += w->pool_misses.load(std::memory_order_relaxed);
    wp_evictions += w->pool_evictions.load(std::memory_order_relaxed);
    wp_entries += w->pool_entries.load(std::memory_order_relaxed);
    co_slabs += w->coalesce_slabs.load(std::memory_order_relaxed);
    co_requests += w->coalesce_requests.load(std::memory_order_relaxed);
    co_window += w->coalesce_window_flushes.load(std::memory_order_relaxed);
    co_full += w->coalesce_full_flushes.load(std::memory_order_relaxed);
  }
  out = {
      {"workers", workers_.size()},
      {"connections_accepted", accepted_.load(std::memory_order_relaxed)},
      {"connections_active", active_.load(std::memory_order_relaxed)},
      {"response_cache_hits", rc_hits},
      {"response_cache_misses", rc_misses},
      {"response_cache_evictions", rc_evictions},
      {"response_cache_entries", rc_entries},
      {"world_pool_hits", wp_hits},
      {"world_pool_misses", wp_misses},
      {"world_pool_evictions", wp_evictions},
      {"world_pool_entries", wp_entries},
      {"coalesce_window_us", options_.coalesce_window_us},
      {"coalesce_slabs", co_slabs},
      {"coalesce_requests", co_requests},
      {"coalesce_window_flushes", co_window},
      {"coalesce_full_flushes", co_full},
  };
  // Per-worker request totals: the thread-per-core scaling signal the
  // worker-scaling bench reads.
  for (const auto& w : workers_) {
    out.emplace_back("worker_" + std::to_string(w->index) + "_requests",
                     w->requests.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace qelect::serve
