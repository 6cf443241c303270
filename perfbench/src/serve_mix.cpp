// serve-mix: the real qelectd, run as a child process, under a
// single-threaded open-loop generator with at most four pipelined
// connections.
//
// Traffic: Zipf-popular reads (ELECTABLE, SIGMA, VIEW_CLASSES over the
// landscape's instances, a set larger than one worker's response cache,
// so a share of reads misses) and bursts of fresh-seed single-replica
// RUN_ELECTs for one instance at a time (never cacheable; the server
// parks them and coalesces them into batch slabs).  Arrivals are Poisson
// at a fixed offered rate, one read or one burst per arrival; each
// request is timed from its due time.  No recorded client session backs
// the mix's shape: the RUN_ELECT share, the burst size and the Zipf
// exponent below are assumptions.
//
// qelectd's CPU comes from /proc, its counters from the STATS opcode (read
// by key, so a renamed counter reads as missing).  Every response is
// checked: status OK, reads identical to an in-process Service::handle of
// the same request, RUN_ELECT payloads byte-equal to it.  A request with
// no answer by the drain deadline is not an error; it counts against the
// phase's ok share.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>

#include "common.hpp"
#include "probe.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/serve/protocol.hpp"
#include "qelect/serve/server.hpp"
#include "qelect/serve/service.hpp"

extern char** environ;

namespace perfbench {

using namespace qelect::serve;

namespace {

constexpr int kConnections = 4;
// Assumed, not taken from a measured client: see the file comment.
constexpr std::size_t kBurst = 8;     // RUN_ELECTs per burst
constexpr double kElectShare = 0.25;  // of offered requests
constexpr double kZipfExponent = 1.0;
constexpr double kSigmaMaxLabelings = 64;  // SIGMA only where cheap
/// Seconds the open loop waits for answers after the last due time.
constexpr double kDrainSeconds = 2.0;
/// The fixed offered-rate ladder of the traced latency curve (req/s).
constexpr double kLadder[] = {2000, 4000, 8000, 16000, 32000};

const char* opcode_label(std::uint16_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kElectable: return "electable";
    case Opcode::kSigma: return "sigma";
    case Opcode::kViewClasses: return "view_classes";
    case Opcode::kRunElect: return "run_elect";
    case Opcode::kStats: return "stats";
    default: return "other";
  }
}

// ---- the mix --------------------------------------------------------------

struct ReadKey {
  std::uint16_t opcode = 0;
  std::vector<std::uint8_t> payload;
};

/// The request population: fixed per size, independent of the seed.
struct Mix {
  std::vector<ReadKey> reads;     // popularity rank order
  std::vector<double> cdf;        // Zipf CDF over ranks
  std::vector<InstanceRef> elect; // RUN_ELECT instances
};

InstanceRef instance_of(const qelect::campaign::TaskSpec& t) {
  InstanceRef inst;
  inst.family = t.graph.family;
  inst.params.assign(t.graph.params.begin(), t.graph.params.end());
  inst.home_bases.assign(t.home_bases.begin(), t.home_bases.end());
  return inst;
}

Mix build_mix(bool small) {
  namespace c = qelect::campaign;
  Mix mix;
  const c::CampaignSpec land = workload_spec("landscape", 0, small);
  // One read key per landscape instance; the opcode rotates with the
  // instance's position, falling back to VIEW_CLASSES where the rotated
  // opcode would be costly: SIGMA beyond kSigmaMaxLabelings labelings, and
  // ELECTABLE on 6-node instances small enough for the exhaustive
  // Theorem 2.1 search (tens of milliseconds each).
  const std::vector<c::TaskSpec> tasks = c::expand_tasks(land);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const c::TaskSpec& t = tasks[i];
    const InstanceRef inst = instance_of(t);
    const qelect::graph::Graph g = t.graph.build();
    const double labelings = c::labeling_count(g, max_degree(g));
    if (i % 3 == 0 && labelings <= kSigmaMaxLabelings) {
      SigmaRequest req;
      req.instance = inst;
      mix.reads.push_back(
          {std::uint16_t(Opcode::kSigma), encode_sigma_request(req)});
    } else if (i % 3 == 1 && (g.node_count() <= 5 ||
                              labelings > land.labeling_budget)) {
      mix.reads.push_back({std::uint16_t(Opcode::kElectable),
                           encode_electable_request(inst)});
    } else {
      mix.reads.push_back({std::uint16_t(Opcode::kViewClasses),
                           encode_view_classes_request(inst)});
    }
  }
  // Popularity is a fixed pseudo-random permutation of the keys.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::size_t i = 0; i < mix.reads.size(); ++i) {
    const ReadKey& k = mix.reads[i];
    order.emplace_back(
        mix_seed(payload_checksum(k.payload.data(), k.payload.size()), k.opcode),
        i);
  }
  std::sort(order.begin(), order.end());
  std::vector<ReadKey> ranked;
  for (const auto& [h, i] : order) ranked.push_back(std::move(mix.reads[i]));
  mix.reads = std::move(ranked);

  double total = 0;
  for (std::size_t r = 0; r < mix.reads.size(); ++r) {
    total += 1.0 / std::pow(double(r + 1), kZipfExponent);
    mix.cdf.push_back(total);
  }
  for (double& v : mix.cdf) v /= total;

  // RUN_ELECT targets the elect sweep's instances, one task per instance.
  c::CampaignSpec sweep = workload_spec("elect-sweep", 0, small);
  sweep.color_seeds = {1};
  for (const c::TaskSpec& t : c::expand_tasks(sweep)) {
    mix.elect.push_back(instance_of(t));
  }
  return mix;
}

// ---- the open-loop schedule -----------------------------------------------

/// One arrival: a read of rank `index` on connection `seed` mod 4, or a
/// RUN_ELECT burst on elect instance `index` whose seeds derive from
/// `seed`.
struct Event {
  std::int64_t due_ns = 0;
  bool burst = false;
  std::uint32_t index = 0;
  std::uint64_t seed = 0;
};

/// Poisson arrivals at `rate` requests/s for `seconds`: a pure function of
/// its arguments (and the mix's shape).
std::vector<Event> make_schedule(std::uint64_t seed, double rate,
                                 double seconds, const Mix& mix) {
  SplitMix rng(mix_seed(seed, 0x5eed5c4edull));
  const double read_rate = rate * (1 - kElectShare);
  const double burst_rate = rate * kElectShare / double(kBurst);
  const double event_rate = read_rate + burst_rate;
  std::vector<Event> events;
  double t = 0;
  for (;;) {
    t += rng.exponential(event_rate);
    if (t >= seconds) break;
    Event e;
    e.due_ns = static_cast<std::int64_t>(t * 1e9);
    e.burst = rng.uniform() * event_rate < burst_rate;
    e.seed = rng.next();
    if (e.burst) {
      e.index = static_cast<std::uint32_t>(rng.next() % mix.elect.size());
    } else {
      const auto rank =
          std::lower_bound(mix.cdf.begin(), mix.cdf.end(), rng.uniform()) -
          mix.cdf.begin();
      e.index = static_cast<std::uint32_t>(
          std::min<std::size_t>(std::size_t(rank), mix.reads.size() - 1));
    }
    events.push_back(e);
  }
  return events;
}

/// One request on the wire.
struct Request {
  std::int64_t due_ns = 0;
  std::uint16_t opcode = 0;
  int conn = 0;
  std::int64_t rank = -1;  // read rank, -1 for RUN_ELECT
  std::vector<std::uint8_t> payload;
};

/// A single-replica `counter` RUN_ELECT on elect instance `instance`.
Request run_elect_request(const Mix& mix, std::size_t instance,
                          std::uint64_t seed, int conn, std::int64_t due_ns) {
  RunElectRequest req;
  req.instance = mix.elect[instance];
  req.seed = seed;
  req.scheduler = "counter";
  return Request{due_ns, std::uint16_t(Opcode::kRunElect), conn, -1,
                 encode_run_elect_request(req)};
}

/// Expands events into requests.  Every RUN_ELECT gets a fresh seed, so
/// none is ever cacheable.
std::vector<Request> expand_events(const std::vector<Event>& events,
                                   const Mix& mix) {
  std::vector<Request> reqs;
  for (const Event& e : events) {
    if (!e.burst) {
      const ReadKey& key = mix.reads[e.index];
      reqs.push_back(Request{e.due_ns, key.opcode,
                             static_cast<int>(e.seed % kConnections),
                             std::int64_t(e.index), key.payload});
      continue;
    }
    for (std::size_t j = 0; j < kBurst; ++j) {
      reqs.push_back(run_elect_request(mix, e.index, mix_seed(e.seed, j),
                                       static_cast<int>(j % kConnections),
                                       e.due_ns));
    }
  }
  return reqs;
}

// ---- the daemon -----------------------------------------------------------

/// A qelectd child process.  The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, int workers, const std::string& log_path) {
    spawn_ns_ = now_ns();
    int out[2];
    if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const std::string w = std::to_string(workers);
    const char* argv[] = {binary.c_str(), "--host", "127.0.0.1", "--port",
                          "0", "--workers", w.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
      ::close(out[0]);
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    // The daemon prints "qelectd listening on HOST:PORT (N workers)".
    std::string line;
    pollfd pfd{out[0], POLLIN, 0};
    while (line.find('\n') == std::string::npos) {
      if (poll(&pfd, 1, 20000) <= 0) break;
      char buf[256];
      const ssize_t n = ::read(out[0], buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<std::size_t>(n));
    }
    ::close(out[0]);
    const auto colon = line.rfind(':', line.find(" ("));
    if (line.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
      stop();
      throw std::runtime_error("qelectd did not report its port: " + line);
    }
    port_ = static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Stops the daemon; true when it exited cleanly with status 0.
  bool stop() {
    if (pid_ <= 0) return clean_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {  // up to 5 s for a clean shutdown
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        clean_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return clean_;
      }
      usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    clean_ = false;
    return clean_;
  }

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  std::int64_t spawn_ns() const { return spawn_ns_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::int64_t spawn_ns_ = 0;
  bool clean_ = false;
};

// ---- the generator --------------------------------------------------------

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  /// Requests in `out` not yet fully written: (end offset, request index).
  std::deque<std::pair<std::size_t, std::size_t>> unwritten;
  std::vector<std::uint8_t> in;
};

/// Per-request outcome, indexed like the request vector of a phase.
struct Outcome {
  std::int64_t written_ns = -1;
  std::int64_t decoded_ns = -1;
  std::uint32_t status = 0xFFFFFFFFu;
  std::vector<std::uint8_t> response;  // kept for RUN_ELECT checks
};

/// The generator's connections and its single event loop.
class Generator {
 public:
  Generator(std::uint16_t port, int connections) {
    for (int i = 0; i < connections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) != 0) {
        if (fd >= 0) ::close(fd);
        throw std::runtime_error("cannot connect to qelectd");
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(Conn{fd, {}, 0, {}, {}});
    }
  }
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Open loop: request i is written at origin + reqs[i].due_ns (or as soon
  /// after as the loop gets to it), whatever is outstanding.  Returns once
  /// every response arrived or `drain_s` after the last due time.
  std::vector<Outcome> open_loop(const std::vector<Request>& reqs,
                                 std::int64_t origin, double drain_s) {
    begin(reqs);
    std::size_t next = 0;
    const std::int64_t last_due = reqs.empty() ? 0 : reqs.back().due_ns;
    const std::int64_t deadline =
        origin + last_due + static_cast<std::int64_t>(drain_s * 1e9);
    while (received_ < reqs.size()) {
      std::int64_t now = now_ns();
      if (now > deadline) break;
      while (next < reqs.size() && origin + reqs[next].due_ns <= now) {
        enqueue(next++);
      }
      flush(now);
      std::int64_t wait = 1000000;  // 1 ms while draining
      if (next < reqs.size()) wait = origin + reqs[next].due_ns - now;
      poll_and_read(std::max<std::int64_t>(wait, 0));
    }
    return std::move(outcomes_);
  }

  /// Closed loop: at most `window` requests outstanding per connection;
  /// stops issuing at `stop_ns` (0 = never) and returns once every issued
  /// request was answered (or 30 s passed).
  std::vector<Outcome> closed_loop(const std::vector<Request>& reqs,
                                   std::size_t window, std::int64_t stop_ns) {
    begin(reqs);
    std::vector<std::vector<std::size_t>> queue(conns_.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      queue[static_cast<std::size_t>(reqs[i].conn)].push_back(i);
    }
    std::vector<std::size_t> head(conns_.size(), 0);
    std::size_t issued = 0;
    const std::int64_t give_up = now_ns() + 30'000'000'000;
    for (;;) {
      const std::int64_t now = now_ns();
      const bool stopping = stop_ns > 0 && now >= stop_ns;
      for (std::size_t c = 0; c < conns_.size() && !stopping; ++c) {
        while (head[c] < queue[c].size() && in_flight_[c] < window) {
          enqueue(queue[c][head[c]++]);
          ++issued;
        }
      }
      flush(now);
      if (received_ >= issued && (stopping || issued == reqs.size())) break;
      if (now > give_up) break;
      poll_and_read(1000000);
    }
    return std::move(outcomes_);
  }

  /// One blocking round trip (no other request may be outstanding).
  std::vector<std::uint8_t> roundtrip(Opcode op,
                                      const std::vector<std::uint8_t>& payload) {
    const std::vector<Request> one{Request{0, std::uint16_t(op), 0, -1, payload}};
    std::vector<Outcome> out = closed_loop(one, 1, 0);
    if (out[0].decoded_ns < 0) throw std::runtime_error("no STATS answer");
    return std::move(out[0].response);
  }

  std::size_t protocol_errors() const { return protocol_errors_; }

 private:
  void begin(const std::vector<Request>& reqs) {
    // Bytes a previous phase left unwritten still go out, but they belong
    // to that phase's requests.
    for (Conn& c : conns_) c.unwritten.clear();
    reqs_ = &reqs;
    outcomes_.assign(reqs.size(), Outcome{});
    in_flight_.assign(conns_.size(), 0);
    received_ = 0;
    base_id_ = next_id_;
    next_id_ += reqs.size();
  }

  void enqueue(std::size_t i) {
    const Request& r = (*reqs_)[i];
    Conn& c = conns_[static_cast<std::size_t>(r.conn)];
    const std::vector<std::uint8_t> frame =
        encode_frame(static_cast<Opcode>(r.opcode), base_id_ + i, r.payload);
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    c.unwritten.emplace_back(c.out.size(), i);
    outcomes_[i].written_ns = 0;  // issued; flush() stamps the write time
    ++in_flight_[static_cast<std::size_t>(r.conn)];
  }

  /// Writes what the sockets accept; a request counts as written once
  /// its last byte is.
  void flush(std::int64_t now) {
    for (Conn& c : conns_) {
      while (c.out_pos < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.out_pos,
                                  c.out.size() - c.out_pos);
        if (n <= 0) break;
        c.out_pos += static_cast<std::size_t>(n);
      }
      while (!c.unwritten.empty() && c.unwritten.front().first <= c.out_pos) {
        outcomes_[c.unwritten.front().second].written_ns = now;
        c.unwritten.pop_front();
      }
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
    }
  }

  void poll_and_read(std::int64_t wait_ns) {
    pollfd fds[kConnections];
    const std::size_t n = conns_.size();
    for (std::size_t c = 0; c < n; ++c) {
      fds[c] = pollfd{conns_[c].fd, POLLIN, 0};
      if (conns_[c].out_pos < conns_[c].out.size()) fds[c].events |= POLLOUT;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds, n, &ts, nullptr) <= 0) return;
    for (std::size_t c = 0; c < n; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_conn(c);
    }
  }

  void read_conn(std::size_t c) {
    Conn& conn = conns_[c];
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof buf);
      if (n <= 0) break;
      conn.in.insert(conn.in.end(), buf, buf + n);
    }
    const std::int64_t now = now_ns();
    std::size_t offset = 0;
    for (;;) {
      FrameHeader header;
      std::vector<std::uint8_t> payload;
      std::size_t consumed = 0;
      const DecodeStatus st =
          decode_frame(conn.in.data() + offset, conn.in.size() - offset,
                       &header, &payload, &consumed);
      if (st == DecodeStatus::kNeedMore) break;
      if (st != DecodeStatus::kOk) {
        ++protocol_errors_;
        offset = conn.in.size();
        break;
      }
      offset += consumed;
      if (header.request_id >= 1 && header.request_id < base_id_) {
        continue;  // a late answer to an earlier phase's request
      }
      const std::uint64_t i = header.request_id - base_id_;
      if (header.request_id < base_id_ || i >= outcomes_.size() ||
          outcomes_[i].decoded_ns >= 0 ||
          header.opcode != (*reqs_)[i].opcode) {
        ++protocol_errors_;
        continue;
      }
      Outcome& o = outcomes_[i];
      o.decoded_ns = now;
      WireReader r(payload);
      o.status = r.u32();
      o.response = std::move(payload);
      ++received_;
      --in_flight_[c];
    }
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  std::vector<Conn> conns_;
  const std::vector<Request>* reqs_ = nullptr;
  std::vector<Outcome> outcomes_;
  std::vector<std::size_t> in_flight_;
  std::size_t received_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t base_id_ = 1;
  std::size_t protocol_errors_ = 0;
};

/// STATS counters by key; the last occurrence of a key wins (the server
/// appends its cross-worker aggregates after the handling worker's own).
std::map<std::string, double> fetch_stats(Generator& gen) {
  const std::vector<std::uint8_t> payload =
      gen.roundtrip(Opcode::kStats, {});
  StatsResponse resp;
  std::map<std::string, double> out;
  if (!decode_stats_response(payload, &resp) || resp.head.status != kStatusOk) {
    throw std::runtime_error("STATS failed");
  }
  for (const auto& [key, value] : resp.counters) out[key] = double(value);
  return out;
}

JsonObject stats_delta(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after) {
  JsonObject o;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    o.num(key, value - (it == before.end() ? 0 : it->second));
  }
  return o;
}

/// The requests that touch every distinct instance of the mix once: each
/// read key, and one RUN_ELECT per elect instance (seed 0, outside the
/// fresh-seed stream).
std::vector<Request> warm_requests(const Mix& mix) {
  std::vector<Request> reqs;
  for (std::size_t r = 0; r < mix.reads.size(); ++r) {
    reqs.push_back(Request{0, mix.reads[r].opcode,
                           static_cast<int>(r % kConnections),
                           static_cast<std::int64_t>(r), mix.reads[r].payload});
  }
  for (std::size_t e = 0; e < mix.elect.size(); ++e) {
    reqs.push_back(run_elect_request(mix, e, 0,
                                     static_cast<int>(e % kConnections), 0));
  }
  return reqs;
}

/// Checks every response of a phase; returns the number of wrong answers
/// and records the first in `why`.  Reads must equal the in-process answer
/// (memoized per rank in `expected`), RUN_ELECTs must be byte-equal to an
/// in-process Service::handle of the same request and match the oracle.
/// A request with no answer adds to `*unanswered` when that is given (an
/// open-loop phase, whose drain deadline may pass first) and is a wrong
/// answer otherwise.
struct ElectTotals {
  double answers = 0, moves = 0, steps = 0;
};

std::size_t check_phase(const std::vector<Request>& reqs,
                        const std::vector<Outcome>& outcomes, Service& local,
                        std::map<std::int64_t, std::vector<std::uint8_t>>& expected,
                        std::string* why, std::size_t* unanswered = nullptr,
                        ElectTotals* elect = nullptr) {
  std::size_t failed = 0;
  const auto fail = [&](const std::string& msg) {
    if (failed++ == 0) *why = msg;
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    const Outcome& o = outcomes[i];
    if (o.decoded_ns < 0) {
      if (unanswered != nullptr) {
        ++*unanswered;
      } else {
        fail(std::string("no answer to a ") + opcode_label(r.opcode) +
             " request");
      }
      continue;
    }
    if (o.status != kStatusOk) {
      fail(std::string(opcode_label(r.opcode)) + " answered " +
           status_name(o.status));
      continue;
    }
    if (r.rank >= 0) {
      auto it = expected.find(r.rank);
      if (it == expected.end()) {
        it = expected.emplace(r.rank, local.handle(r.opcode, r.payload)).first;
      }
      if (o.response != it->second) {
        fail(std::string(opcode_label(r.opcode)) +
             " response differs from the in-process answer");
      }
      continue;
    }
    if (o.response != local.handle(r.opcode, r.payload)) {
      fail("RUN_ELECT response differs from the in-process answer");
      continue;
    }
    RunElectResponse resp;
    if (!decode_run_elect_response(o.response, &resp) ||
        resp.matches_oracle != 1) {
      fail("RUN_ELECT result does not match the oracle");
      continue;
    }
    if (elect != nullptr) {
      elect->answers += 1;
      elect->moves += double(resp.moves);
      elect->steps += double(resp.steps);
    }
  }
  return failed;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, i == 0 ? "%.1f" : ",%.1f", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Latency samples (µs from due time) of a phase, split by traffic class,
/// plus the generator's lateness (µs from due to written).
JsonObject latency_json(const std::vector<Request>& reqs,
                        const std::vector<Outcome>& outcomes,
                        std::int64_t origin) {
  std::vector<double> read, elect, late;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.decoded_ns < 0) continue;
    const double lat = double(o.decoded_ns - origin - reqs[i].due_ns) * 1e-3;
    (reqs[i].rank >= 0 ? read : elect).push_back(lat);
    late.push_back(double(o.written_ns - origin - reqs[i].due_ns) * 1e-3);
  }
  JsonObject o;
  o.raw("read_us", json_array(read))
      .raw("elect_us", json_array(elect))
      .raw("late_us", json_array(late));
  return o;
}

std::size_t answered(const std::vector<Outcome>& outcomes) {
  std::size_t n = 0;
  for (const Outcome& o : outcomes) n += o.decoded_ns >= 0 ? 1 : 0;
  return n;
}

struct RepConfig {
  std::string qelectd;
  std::string dir;
  double rate = 0;
  double phase_s = 0;
  std::uint64_t seed = 0;
  bool trace = false;
  bool small = false;
};

/// Spans of one open-loop phase: client.request (due → decoded) with its
/// client.queue (due → written, the generator's lateness) and
/// serve.roundtrip (written → decoded: the server and the loopback) parts.
void record_request_spans(SpanRecorder& rec, const std::vector<Request>& reqs,
                          const std::vector<Outcome>& outcomes,
                          std::int64_t origin) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.decoded_ns < 0) continue;
    const std::int64_t due = origin + reqs[i].due_ns;
    const auto id = static_cast<std::int64_t>(i);
    const char* cls = opcode_label(reqs[i].opcode);
    const std::int64_t parent =
        rec.add(Span{"client.request", due, o.decoded_ns, -1, id, cls});
    rec.add(Span{"client.queue", due, o.written_ns, parent, id, cls});
    rec.add(Span{"serve.roundtrip", o.written_ns, o.decoded_ns, parent, id, cls});
  }
}

/// In-process Service::handle over a request stream, one ResponseCache per
/// server worker (connection c lands on worker c mod 2, as qelectd's
/// round-robin accept assigns them): the per-opcode cost of a hit and of a
/// miss.
JsonObject handle_costs(const std::vector<Request>& warm,
                        const std::vector<Request>& reqs) {
  Service local;
  const std::size_t capacity = ServerOptions{}.response_cache_capacity;
  ResponseCache caches[2] = {ResponseCache(capacity), ResponseCache(capacity)};
  for (const Request& r : warm) {
    local.handle(r.opcode, r.payload, &caches[r.conn % 2]);
  }
  std::map<std::string, std::pair<double, double>> cost;  // seconds, count
  for (const Request& r : reqs) {
    ResponseCache& cache = caches[r.conn % 2];
    const std::uint64_t hits = cache.stats().hits;
    const std::int64_t t0 = now_ns();
    local.handle(r.opcode, r.payload, &cache);
    const std::int64_t t1 = now_ns();
    const bool hit = cache.stats().hits > hits;
    auto& c = cost[std::string(opcode_label(r.opcode)) + (hit ? ".hit" : ".miss")];
    c.first += double(t1 - t0) * 1e-9;
    c.second += 1;
  }
  JsonObject o;
  for (const auto& [key, c] : cost) {
    o.num(key + ".us", c.first / c.second * 1e6).num(key + ".n", c.second);
  }
  return o;
}

}  // namespace

int cmd_schedule(const Args& args) {
  const std::uint64_t seed = args.get_u64("seed", 0);
  const double rate = args.get_double("rate", 1000);
  const double seconds = args.get_double("seconds", 1);
  const Mix mix = build_mix(args.get("size", "small") == "small");
  const std::vector<Event> events = make_schedule(seed, rate, seconds, mix);
  std::uint64_t digest = 0;
  std::size_t requests = 0, bursts = 0;
  for (const Event& e : events) {
    const std::uint64_t words[4] = {std::uint64_t(e.due_ns), e.burst ? 1u : 0u,
                                    e.index, e.seed};
    digest = mix_seed(digest,
                      payload_checksum(reinterpret_cast<const std::uint8_t*>(words),
                                       sizeof words));
    requests += e.burst ? kBurst : 1;
    bursts += e.burst ? 1 : 0;
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
  JsonObject out;
  out.integer("events", std::int64_t(events.size()))
      .integer("requests", std::int64_t(requests))
      .integer("bursts", std::int64_t(bursts))
      .num("first_due_s", events.empty() ? 0 : double(events.front().due_ns) * 1e-9)
      .num("last_due_s", events.empty() ? 0 : double(events.back().due_ns) * 1e-9)
      .str("digest", hex);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_serve(const Args& args) {
  RepConfig cfg;
  cfg.qelectd = args.get("qelectd", "");
  cfg.dir = args.get("dir", "");
  cfg.rate = args.get_double("rate", 8000);
  cfg.phase_s = args.get_double("phase", 3);
  cfg.seed = args.get_u64("seed", 0);
  cfg.trace = args.get_u64("trace", 0) != 0;
  cfg.small = args.get("size", "full") == "small";
  const std::uint64_t reps = args.get_u64("reps", 3);
  const std::string spans_path = args.get("spans", "");
  if (cfg.qelectd.empty() || cfg.dir.empty()) {
    throw std::runtime_error("serve needs --qelectd and --dir");
  }
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  signal(SIGPIPE, SIG_IGN);
  make_dirs(cfg.dir);
  const std::string log = cfg.dir + "/qelectd.log";

  const Mix mix = build_mix(cfg.small);
  const std::vector<Request> warm = warm_requests(mix);
  Service local;
  std::map<std::int64_t, std::vector<std::uint8_t>> expected;
  SpanRecorder rec(cfg.trace);
  const std::int64_t trace_origin = now_ns();

  std::string rep_json = "[";
  std::size_t failed_total = 0, attempted_total = 0, unanswered_total = 0;
  std::string why;
  std::vector<Request> last_reqs;  // feeds the traced in-process cost pass
  const auto daemon_failed = [&](const std::string& msg) {
    if (failed_total++ == 0) why = msg;
  };
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    const HostTicks host0 = host_ticks();
    Daemon daemon(cfg.qelectd, 2, log);
    Generator gen(daemon.port(), kConnections);
    const std::vector<Outcome> warm_out = gen.closed_loop(warm, 64, 0);
    const std::int64_t warm_end = now_ns();
    const double setup_cpu = proc_cpu_seconds(daemon.pid());
    failed_total += check_phase(warm, warm_out, local, expected, &why);
    attempted_total += warm.size();

    const std::uint64_t rep_seed = mix_seed(cfg.seed, rep);
    std::vector<Request> reqs = expand_events(
        make_schedule(rep_seed, cfg.rate, cfg.phase_s, mix), mix);
    const auto stats0 = fetch_stats(gen);
    const double cpu0 = proc_cpu_seconds(daemon.pid());
    const std::int64_t origin = now_ns() + 2'000'000;  // 2 ms lead-in
    const std::vector<Outcome> out = gen.open_loop(reqs, origin, kDrainSeconds);
    const std::int64_t phase_end = now_ns();
    const double cpu1 = proc_cpu_seconds(daemon.pid());
    const auto stats1 = fetch_stats(gen);
    const double rss = proc_peak_rss_mib(daemon.pid());
    const HostTicks host1 = host_ticks();
    if (!daemon.stop()) daemon_failed("qelectd did not shut down cleanly");
    ElectTotals elect;
    std::size_t unanswered = 0;
    failed_total +=
        check_phase(reqs, out, local, expected, &why, &unanswered, &elect);
    failed_total += gen.protocol_errors();
    unanswered_total += unanswered;
    attempted_total += reqs.size();
    if (cfg.trace) record_request_spans(rec, reqs, out, origin);

    const std::size_t done = answered(out);
    JsonObject r;
    r.num("setup_cpu_s", setup_cpu)
        .num("setup_wall_s", double(warm_end - daemon.spawn_ns()) * 1e-9)
        .integer("requests", std::int64_t(reqs.size()))
        .integer("answered", std::int64_t(done))
        .integer("unanswered", std::int64_t(unanswered))
        .num("phase_s", double(phase_end - origin) * 1e-9)
        .num("cpu_s", cpu1 - cpu0)
        .num("peak_rss_mib", rss)
        .num("steal_share", steal_share(host0, host1))
        .num("elect_answers", elect.answers)
        .num("elect_moves", elect.moves)
        .num("elect_steps", elect.steps)
        .object("stats", stats_delta(stats0, stats1))
        .object("latency", latency_json(reqs, out, origin));
    rep_json += (rep == 0 ? "" : ",") + r.dump();
    last_reqs = std::move(reqs);
  }
  rep_json += "]";

  JsonObject result;
  result.str("workload", "serve-mix")
      .num("rate", cfg.rate)
      .integer("read_keys", std::int64_t(mix.reads.size()))
      .integer("elect_instances", std::int64_t(mix.elect.size()))
      .raw("reps", rep_json);

  if (cfg.trace) {
    // The latency curve over the fixed ladder, on one warm daemon.
    std::string curve = "[";
    {
      Daemon daemon(cfg.qelectd, 2, log);
      Generator gen(daemon.port(), kConnections);
      gen.closed_loop(warm, 64, 0);
      bool first = true;
      for (const double rate : kLadder) {
        const double secs = cfg.small ? 0.2 : 1.0;
        const std::vector<Request> reqs = expand_events(
            make_schedule(mix_seed(cfg.seed, std::uint64_t(rate)), rate, secs, mix),
            mix);
        const HostTicks h0 = host_ticks();
        const std::int64_t origin = now_ns() + 2'000'000;
        const std::vector<Outcome> out =
            gen.open_loop(reqs, origin, kDrainSeconds);
        const std::int64_t end = now_ns();
        const HostTicks h1 = host_ticks();
        std::size_t unanswered = 0;
        failed_total +=
            check_phase(reqs, out, local, expected, &why, &unanswered);
        unanswered_total += unanswered;
        attempted_total += reqs.size();
        JsonObject p;
        p.num("rate", rate)
            .integer("requests", std::int64_t(reqs.size()))
            .integer("answered", std::int64_t(answered(out)))
            .num("phase_s", double(end - origin) * 1e-9)
            .num("steal_share", steal_share(h0, h1))
            .object("latency", latency_json(reqs, out, origin));
        curve += (first ? "" : ",") + p.dump();
        first = false;
      }
      if (!daemon.stop()) daemon_failed("qelectd did not shut down cleanly");
    }
    curve += "]";
    result.raw("curve", curve);

    // Closed-loop saturation at 1 and 2 workers over the mix's stream.
    JsonObject saturation;
    for (const int workers : {1, 2}) {
      Daemon daemon(cfg.qelectd, workers, log);
      Generator gen(daemon.port(), kConnections);
      gen.closed_loop(warm, 64, 0);
      const double secs = cfg.small ? 0.3 : 1.5;
      const std::vector<Request> reqs = expand_events(
          make_schedule(mix_seed(cfg.seed, 77 + std::uint64_t(workers)),
                        200000, secs, mix),
          mix);
      const std::int64_t t0 = now_ns();
      const std::vector<Outcome> out = gen.closed_loop(
          reqs, 32, t0 + static_cast<std::int64_t>(secs * 1e9));
      const std::int64_t t1 = now_ns();
      std::size_t bad = 0;
      for (const Outcome& o : out) {
        const bool issued_here = o.written_ns >= 0;
        bad += issued_here && (o.decoded_ns < 0 || o.status != kStatusOk);
      }
      if (bad > 0) daemon_failed("saturation run got error responses");
      if (!daemon.stop()) daemon_failed("qelectd did not shut down cleanly");
      saturation.num("w" + std::to_string(workers),
                     double(answered(out)) / (double(t1 - t0) * 1e-9));
    }
    result.object("saturation", saturation);
    result.object("handle", handle_costs(warm, last_reqs));
    if (!spans_path.empty()) rec.write_jsonl(spans_path, trace_origin);
  }

  remove_tree(cfg.dir);
  result.integer("attempted", std::int64_t(attempted_total))
      .integer("unanswered", std::int64_t(unanswered_total))
      .integer("failed", std::int64_t(failed_total))
      .str("first_failure", why);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace perfbench
