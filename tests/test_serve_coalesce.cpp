// Micro-batching tests: the ElectBatchPlanCache unit surface (including a
// TSan thread hammer), byte-identity of Service::run_elect_coalesced
// against the uncoalesced handle() path, and end-to-end coalescing over
// loopback -- cross-connection bursts landing in one slab, mixed-instance
// bursts splitting into distinct slabs, window=0 bypass, FIFO response
// ordering past a parked request, and the steady-state plan-cache hit
// rate the acceptance criteria pin.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "qelect/campaign/task.hpp"
#include "qelect/core/elect_batch_cache.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/serve/client.hpp"
#include "qelect/serve/server.hpp"
#include "qelect/serve/service.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::serve {
namespace {

struct Built {
  graph::Graph g;
  graph::Placement p;
};

Built build(const std::string& family, std::vector<std::uint64_t> params,
            std::vector<graph::NodeId> bases) {
  campaign::GraphRef ref;
  ref.family = family;
  ref.params = std::move(params);
  graph::Graph g = ref.build();
  graph::Placement p(g.node_count(), std::move(bases));
  return {std::move(g), std::move(p)};
}

// ---- plan cache ----------------------------------------------------------

/// Words that hold exactly the plans of `instances`.
std::size_t words_of(const std::vector<const Built*>& instances) {
  std::size_t words = 0;
  for (const Built* b : instances) {
    words += core::ElectBatchPlanCache::words(
        *core::compile_elect_batch_plan(b->g, b->p));
  }
  return words;
}

TEST(PlanCache, RepeatedStructureHits) {
  const Built a = build("ring", {6}, {0, 2});
  const Built b = build("ring", {6}, {0, 3});
  core::ElectBatchPlanCache cache(words_of({&a, &b}));
  const auto first = cache.plan(a.g, a.p);
  const auto second = cache.plan(a.g, a.p);
  EXPECT_EQ(first.get(), second.get());  // shared, not recompiled
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.compiles, 1u);
  EXPECT_EQ(s.entries, 1u);

  // Same graph, different placement: a distinct plan.
  const auto other = cache.plan(b.g, b.p);
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(cache.stats().entries, 2u);

  // A rebuilt copy of the first instance still hits: keys are structure,
  // not object identity.
  const Built a2 = build("ring", {6}, {0, 2});
  EXPECT_EQ(cache.plan(a2.g, a2.p).get(), first.get());
}

// Keys are exact, not up to isomorphism: the same ring with its bases
// rotated by one node is an isomorphic instance but not an equal one, so it
// gets its own entry, and the two plans agree on what isomorphism keeps.
TEST(PlanCache, IsomorphicButDistinctInstancesGetDistinctEntries) {
  const Built a = build("ring", {6}, {0, 2});
  const Built b = build("ring", {6}, {1, 3});
  core::ElectBatchPlanCache cache(words_of({&a, &b}));
  const auto pa = cache.plan(a.g, a.p);
  const auto pb = cache.plan(b.g, b.p);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(pa->agent_count, pb->agent_count);
  EXPECT_EQ(pa->final_gcd, pb->final_gcd);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.compiles, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  // Room for a with c, and so for a with the smaller b, but not for all
  // three.
  const Built a = build("ring", {4}, {0, 1});
  const Built b = build("ring", {5}, {0, 1});
  const Built c = build("ring", {6}, {0, 1});
  ASSERT_LT(words_of({&b}), words_of({&c}));
  core::ElectBatchPlanCache cache(words_of({&a, &c}));
  cache.plan(a.g, a.p);
  cache.plan(b.g, b.p);
  cache.plan(a.g, a.p);         // refresh a
  cache.plan(c.g, c.p);         // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.plan(a.g, a.p);
  EXPECT_EQ(cache.stats().hits, 2u);  // a still resident
  cache.plan(b.g, b.p);               // recompiles, evicting c
  EXPECT_EQ(cache.stats().compiles, 4u);

  cache.set_capacity(words_of({&b}));  // room for the most recent alone
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// Many threads sharing one cache over a handful of structures: exercised
// under TSan in CI.  Each structure compiles once, however the threads
// race on it, and final_gcd must be right.
TEST(PlanCache, ConcurrentLookupsAreSafe) {
  const Built sym0 = build("ring", {6}, {0, 3});
  const Built asym0 = build("path", {5}, {0, 1});
  core::ElectBatchPlanCache cache(words_of({&sym0, &asym0}));
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Built sym = build("ring", {6}, {0, 3});   // gcd 2
      const Built asym = build("path", {5}, {0, 1});  // gcd 1
      for (int i = 0; i < kIters; ++i) {
        const auto& inst = (i + t) % 2 == 0 ? sym : asym;
        const auto plan = cache.plan(inst.g, inst.p);
        const std::uint64_t want = (i + t) % 2 == 0 ? 2u : 1u;
        if (plan == nullptr || plan->final_gcd != want) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kIters);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.compiles, 2u);
}

// ---- coalesced execution vs handle() ------------------------------------

std::vector<std::uint8_t> handle_run_elect(Service& service,
                                           const RunElectRequest& req) {
  return service.handle(static_cast<std::uint16_t>(Opcode::kRunElect),
                        encode_run_elect_request(req));
}

// The tentpole identity: for every request in a coalesced group, the
// response bytes equal what the uncoalesced path produces.
TEST(Service, CoalescedResponsesAreByteIdentical) {
  Service service;
  const std::vector<InstanceRef> instances = {
      {"ring", {6}, {0, 3}},
      {"ring", {6}, {0, 2}},
      {"petersen", {}, {0, 1}},
      {"hypercube", {3}, {0, 7}},
  };
  const std::vector<std::string> schedulers = {"random", "round-robin",
                                               "lockstep", "counter"};
  for (const auto& inst : instances) {
    for (const auto& sched : schedulers) {
      std::vector<RunElectRequest> group;
      for (std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
        RunElectRequest req;
        req.instance = inst;
        req.seed = seed;
        req.scheduler = sched;
        ASSERT_TRUE(Service::coalescible(req));
        group.push_back(req);
      }
      const auto coalesced = service.run_elect_coalesced(group);
      ASSERT_EQ(coalesced.size(), group.size());
      for (std::size_t i = 0; i < group.size(); ++i) {
        EXPECT_EQ(coalesced[i], handle_run_elect(service, group[i]))
            << inst.family << " " << sched << " seed " << group[i].seed;
      }
    }
  }
}

// Validation failures coalesce too: the whole group shares the instance,
// so the error response must be the same bytes handle() produces.
TEST(Service, CoalescedErrorsAreByteIdentical) {
  Service service;
  RunElectRequest bad;
  bad.instance = {"no-such-family", {4}, {0}};
  bad.scheduler = "counter";
  const auto coalesced = service.run_elect_coalesced({bad, bad});
  ASSERT_EQ(coalesced.size(), 2u);
  const auto want = handle_run_elect(service, bad);
  EXPECT_EQ(coalesced[0], want);
  EXPECT_EQ(coalesced[1], want);
  WireReader r(want);
  EXPECT_EQ(r.u32(), kStatusBadRequest);

  RunElectRequest no_bases;
  no_bases.instance = {"ring", {6}, {}};
  const auto empty = service.run_elect_coalesced({no_bases});
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0], handle_run_elect(service, no_bases));
}

TEST(Service, CoalescibleGate) {
  RunElectRequest req;
  req.instance = {"ring", {6}, {0, 2}};
  EXPECT_TRUE(Service::coalescible(req));  // default random/1 replica
  req.scheduler = "counter";
  EXPECT_TRUE(Service::coalescible(req));
  req.replicas = 2;
  EXPECT_FALSE(Service::coalescible(req));  // burst requests keep their path
  req.replicas = 1;
  req.scheduler = "replay";
  EXPECT_FALSE(Service::coalescible(req));  // no batch parity, no coalescing
}

// ---- end-to-end coalescing over loopback ---------------------------------

std::uint64_t server_counter(Client& client, const std::string& key) {
  const auto resp = client.stats();
  EXPECT_EQ(resp.head.status, kStatusOk);
  for (const auto& [k, v] : resp.counters) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "missing counter " << key;
  return 0;
}

// A cross-connection burst of distinct-seed RUN_ELECTs on one instance
// must coalesce into batch slabs and still answer every client with the
// exact uncoalesced bytes.
TEST(Server, CrossConnectionBurstCoalesces) {
  constexpr int kClients = 8;
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  // Window far above the burst's arrival jitter; the group usually fills
  // to coalesce_max and flushes early, the window is only the backstop.
  options.coalesce_window_us = 100'000;
  options.coalesce_max = kClients;
  Server server(options);
  server.start();

  Client probe = Client::connect("127.0.0.1", server.port());
  const std::uint64_t slabs0 = server_counter(probe, "coalesce_slabs");
  const std::uint64_t coalesced0 = server_counter(probe, "coalesce_requests");

  std::vector<std::vector<std::uint8_t>> responses(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      RunElectRequest req;
      req.instance = {"ring", {6}, {0, 2}};
      req.seed = 1000 + t;
      Client client = Client::connect("127.0.0.1", server.port());
      responses[t] =
          client.request(Opcode::kRunElect, encode_run_elect_request(req));
    });
  }
  for (auto& th : threads) th.join();

  Service oracle;
  for (int t = 0; t < kClients; ++t) {
    RunElectRequest req;
    req.instance = {"ring", {6}, {0, 2}};
    req.seed = 1000 + t;
    EXPECT_EQ(responses[t], handle_run_elect(oracle, req)) << "seed " << req.seed;
  }

  EXPECT_GE(server_counter(probe, "coalesce_slabs"), slabs0 + 1);
  EXPECT_EQ(server_counter(probe, "coalesce_requests"), coalesced0 + kClients);
  server.stop();
}

// Concurrent requests for two different instances must split into (at
// least) two slabs -- one per instance -- never mix.
TEST(Server, MixedInstanceBurstSplitsSlabs) {
  constexpr int kPerInstance = 4;
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.coalesce_window_us = 100'000;
  options.coalesce_max = kPerInstance;
  Server server(options);
  server.start();

  Client probe = Client::connect("127.0.0.1", server.port());
  const std::uint64_t slabs0 = server_counter(probe, "coalesce_slabs");

  const std::vector<InstanceRef> instances = {{"ring", {6}, {0, 3}},
                                              {"path", {5}, {0, 1}}};
  std::vector<std::vector<std::uint8_t>> responses(2 * kPerInstance);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2 * kPerInstance; ++t) {
    threads.emplace_back([&, t] {
      RunElectRequest req;
      req.instance = instances[t % 2];
      req.seed = 500 + t;
      Client client = Client::connect("127.0.0.1", server.port());
      responses[t] =
          client.request(Opcode::kRunElect, encode_run_elect_request(req));
    });
  }
  for (auto& th : threads) th.join();

  Service oracle;
  for (int t = 0; t < 2 * kPerInstance; ++t) {
    RunElectRequest req;
    req.instance = instances[t % 2];
    req.seed = 500 + t;
    EXPECT_EQ(responses[t], handle_run_elect(oracle, req)) << t;
  }
  // Distinct instances can never share a slab, so at least two ran.
  EXPECT_GE(server_counter(probe, "coalesce_slabs"), slabs0 + 2);
  server.stop();
}

// window=0 disables the coalescer entirely: responses stay identical and
// no slab counters move.
TEST(Server, WindowZeroBypassesCoalescer) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.coalesce_window_us = 0;
  Server server(options);
  server.start();

  Client probe = Client::connect("127.0.0.1", server.port());
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint8_t>> responses(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      RunElectRequest req;
      req.instance = {"ring", {6}, {0, 2}};
      req.seed = 40 + t;
      Client client = Client::connect("127.0.0.1", server.port());
      responses[t] =
          client.request(Opcode::kRunElect, encode_run_elect_request(req));
    });
  }
  for (auto& th : threads) th.join();

  Service oracle;
  for (int t = 0; t < 4; ++t) {
    RunElectRequest req;
    req.instance = {"ring", {6}, {0, 2}};
    req.seed = 40 + t;
    EXPECT_EQ(responses[t], handle_run_elect(oracle, req)) << t;
  }
  EXPECT_EQ(server_counter(probe, "coalesce_slabs"), 0u);
  EXPECT_EQ(server_counter(probe, "coalesce_requests"), 0u);
  server.stop();
}

// A pipelined connection: a coalescible RUN_ELECT (parked for a window)
// followed immediately by a PING.  The PING computes first but must not
// overtake the parked request -- responses arrive in request order.
TEST(Server, ResponsesStayInRequestOrderPastAParkedRequest) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.coalesce_window_us = 20'000;
  options.coalesce_max = 64;  // never fills: flushes on the window
  Server server(options);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  RunElectRequest req;
  req.instance = {"ring", {6}, {0, 2}};
  req.seed = 77;
  std::vector<std::uint8_t> wire =
      encode_frame(Opcode::kRunElect, 1, encode_run_elect_request(req));
  const auto ping = encode_frame(Opcode::kPing, 2, {});
  wire.insert(wire.end(), ping.begin(), ping.end());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  std::vector<std::uint64_t> order;
  std::vector<std::uint8_t> in;
  while (order.size() < 2) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    in.insert(in.end(), buf, buf + n);
    std::size_t offset = 0;
    while (true) {
      FrameHeader header;
      std::vector<std::uint8_t> payload;
      std::size_t consumed = 0;
      if (decode_frame(in.data() + offset, in.size() - offset, &header,
                       &payload, &consumed) != DecodeStatus::kOk) {
        break;
      }
      offset += consumed;
      order.push_back(header.request_id);
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  ::close(fd);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  server.stop();
}

// Steady state: a stream of single-seed queries over one instance must be
// >90% plan-cache hits (the acceptance criterion), visible in STATS.
TEST(Server, SteadyStateBurstHitsPlanCache) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.coalesce_window_us = 2'000;
  Server server(options);
  server.start();

  Client client = Client::connect("127.0.0.1", server.port());
  const std::uint64_t hits0 = server_counter(client, "plan_cache_hits");
  const std::uint64_t misses0 = server_counter(client, "plan_cache_misses");

  // Distinct seeds defeat the response cache, so every request reaches
  // the coalescer and every (sequential) one becomes its own slab.
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    RunElectRequest req;
    req.instance = {"ring", {7}, {0, 2}};  // structure unique to this test
    req.seed = 9000 + i;
    const auto resp =
        client.request(Opcode::kRunElect, encode_run_elect_request(req));
    WireReader r(resp);
    ASSERT_EQ(r.u32(), kStatusOk);
  }

  const std::uint64_t hits = server_counter(client, "plan_cache_hits") - hits0;
  const std::uint64_t misses =
      server_counter(client, "plan_cache_misses") - misses0;
  ASSERT_EQ(hits + misses, kRequests);
  EXPECT_GE(hits, misses * 9);  // > 90% hit rate
  EXPECT_GE(server_counter(client, "coalesce_slabs"), kRequests);
  server.stop();
}

}  // namespace
}  // namespace qelect::serve
