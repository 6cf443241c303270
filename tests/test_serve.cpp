// Service and server tests: opcode semantics, the campaign golden
// cross-check (a RUN_ELECT answer must be bit-identical to the metrics of
// the equivalent campaign task), response-cache memoization, compute-bound
// rejection, and an end-to-end multi-threaded client/server exchange over
// loopback (the test CI also runs under TSan).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/core/elect.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/serve/client.hpp"
#include "qelect/serve/server.hpp"
#include "qelect/serve/service.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/cancel.hpp"

namespace qelect::serve {
namespace {

double metric(const std::vector<std::pair<std::string, double>>& metrics,
              const std::string& key) {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "no metric '" << key << "'";
  return std::nan("");
}

ElectableResponse electable(Service& service, const InstanceRef& inst,
                            ResponseCache* cache = nullptr) {
  ElectableResponse resp;
  EXPECT_TRUE(decode_electable_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kElectable),
                     encode_electable_request(inst), cache),
      &resp));
  return resp;
}

TEST(Service, PingReturnsOk) {
  Service service;
  const auto resp =
      service.handle(static_cast<std::uint16_t>(Opcode::kPing), {});
  WireReader r(resp);
  EXPECT_EQ(r.u32(), kStatusOk);
  EXPECT_TRUE(r.done());
}

TEST(Service, ElectableMatchesTheory) {
  Service service;
  // Ring of 6 with antipodal agents: symmetric, gcd 2, not electable
  // (and a Cayley impossibility per the corrected Theorem 4.1).
  auto resp = electable(service, {"ring", {6}, {0, 3}});
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
  EXPECT_EQ(resp.electable, 0);
  EXPECT_EQ(resp.final_gcd, 2u);
  EXPECT_EQ(resp.nodes, 6u);
  EXPECT_EQ(static_cast<double>(resp.classification),
            campaign::kClassImpossCayley);

  // Asymmetric placement on a path: electable.
  resp = electable(service, {"path", {5}, {0, 1}});
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
  EXPECT_EQ(resp.electable, 1);
  EXPECT_EQ(resp.final_gcd, 1u);
  EXPECT_EQ(static_cast<double>(resp.classification), campaign::kClassElect);
}

TEST(Service, ElectableAgreesWithCampaignAnalyze) {
  Service service;
  const std::vector<InstanceRef> instances = {
      {"ring", {6}, {0, 3}},
      {"ring", {6}, {0, 2}},
      {"hypercube", {3}, {0, 7}},
      {"petersen", {}, {0, 1}},
      {"complete", {4}, {0, 1, 2, 3}},
  };
  for (const auto& inst : instances) {
    campaign::TaskSpec task;
    task.key = "golden";
    task.workload = "analyze";
    task.graph.family = inst.family;
    task.graph.params.assign(inst.params.begin(), inst.params.end());
    task.home_bases.assign(inst.home_bases.begin(), inst.home_bases.end());
    const auto metrics = campaign::run_task(task, CancelToken());

    const auto resp = electable(service, inst);
    ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
    EXPECT_EQ(static_cast<double>(resp.classification),
              metric(metrics, "class"))
        << inst.family;
    EXPECT_EQ(static_cast<double>(resp.final_gcd),
              metric(metrics, "final_gcd"))
        << inst.family;
    EXPECT_EQ(resp.electable,
              metric(metrics, "class") == campaign::kClassElect ? 1 : 0)
        << inst.family;
  }
}

// The acceptance-criteria golden cross-check: RUN_ELECT with a fixed seed
// returns exactly the verdict and move counts of the equivalent campaign
// elect task.
TEST(Service, RunElectMatchesCampaignTaskExactly) {
  Service service;
  const std::vector<std::uint64_t> seeds = {1, 7, 99};
  const std::vector<std::string> schedulers = {"random", "round-robin",
                                               "lockstep"};
  for (const std::uint64_t seed : seeds) {
    for (const std::string& scheduler : schedulers) {
      campaign::TaskSpec task;
      task.key = "golden/elect";
      task.workload = "elect";
      task.graph = {"ring", {6}};
      task.home_bases = {0, 2};
      task.color_seed = seed;
      task.scheduler = scheduler;
      const auto metrics = campaign::run_task(task, CancelToken());

      RunElectRequest req;
      req.instance = {"ring", {6}, {0, 2}};
      req.seed = seed;
      req.scheduler = scheduler;
      RunElectResponse resp;
      ASSERT_TRUE(decode_run_elect_response(
          service.handle(static_cast<std::uint16_t>(Opcode::kRunElect),
                         encode_run_elect_request(req)),
          &resp));
      ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
      EXPECT_EQ(resp.completed, metric(metrics, "completed") != 0 ? 1 : 0);
      EXPECT_EQ(resp.clean_election,
                metric(metrics, "clean_election") != 0 ? 1 : 0);
      EXPECT_EQ(resp.clean_failure,
                metric(metrics, "clean_failure") != 0 ? 1 : 0);
      EXPECT_EQ(resp.matches_oracle,
                metric(metrics, "matches_oracle") != 0 ? 1 : 0);
      EXPECT_EQ(static_cast<double>(resp.final_gcd),
                metric(metrics, "final_gcd"));
      EXPECT_EQ(static_cast<double>(resp.moves), metric(metrics, "moves"))
          << "seed " << seed << " scheduler " << scheduler;
      EXPECT_EQ(static_cast<double>(resp.steps), metric(metrics, "steps"))
          << "seed " << seed << " scheduler " << scheduler;
    }
  }
}

TEST(Service, SigmaOnKnownInstances) {
  Service service;
  // sigma(ring(6)) = 6: the all-same labeling is fully symmetric.
  SigmaResponse resp;
  ASSERT_TRUE(decode_sigma_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kSigma),
                     encode_sigma_request({{"ring", {6}, {}}, 0})),
      &resp));
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
  EXPECT_EQ(resp.sigma, 6u);
  EXPECT_EQ(resp.alphabet, 2u);  // max degree of a ring
  EXPECT_EQ(resp.labelings, 64u);
}

TEST(Service, SigmaRefusesBlownBudget) {
  ServiceLimits limits;
  limits.sigma_budget = 10;  // ring(6) needs 64 labelings
  Service service(limits);
  SigmaResponse resp;
  ASSERT_TRUE(decode_sigma_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kSigma),
                     encode_sigma_request({{"ring", {6}, {}}, 0})),
      &resp));
  EXPECT_EQ(resp.head.status, kStatusTooLarge);
}

TEST(Service, SigmaRejectsAlphabetBelowDegree) {
  Service service;
  SigmaResponse resp;
  ASSERT_TRUE(decode_sigma_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kSigma),
                     encode_sigma_request({{"hypercube", {3}, {}}, 2})),
      &resp));
  EXPECT_EQ(resp.head.status, kStatusBadRequest);
}

TEST(Service, ViewClassesPartitionTheNodes) {
  Service service;
  ViewClassesResponse resp;
  ASSERT_TRUE(decode_view_classes_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kViewClasses),
                     encode_view_classes_request({"ring", {6}, {0, 3}})),
      &resp));
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
  EXPECT_EQ(resp.nodes, 6u);
  std::size_t members = 0;
  for (const auto& cls : resp.classes) members += cls.size();
  EXPECT_EQ(members, 6u);  // classes partition the node set
}

TEST(Service, RejectsUnknownFamilyAndBadPlacement) {
  Service service;
  auto resp = electable(service, {"moebius", {6}, {0}});
  EXPECT_EQ(resp.head.status, kStatusBadRequest);
  EXPECT_FALSE(resp.head.error.empty());

  // Home base out of range.
  resp = electable(service, {"ring", {6}, {17}});
  EXPECT_EQ(resp.head.status, kStatusBadRequest);

  // No agents at all.
  resp = electable(service, {"ring", {6}, {}});
  EXPECT_EQ(resp.head.status, kStatusBadRequest);
}

TEST(Service, RejectsOversizedInstancesBeforeBuilding) {
  Service service;
  // hypercube(40) would be 2^40 nodes; the guard must fire pre-build.
  auto resp = electable(service, {"hypercube", {40}, {0}});
  EXPECT_NE(resp.head.status, kStatusOk);

  // A parameter beyond the 2^14 limit is refused outright.
  resp = electable(service, {"ring", {1 << 20}, {0}});
  EXPECT_NE(resp.head.status, kStatusOk);

  // torus(10000, 10000) overflows via a parameter product.
  resp = electable(service, {"torus", {10000, 10000}, {0}});
  EXPECT_NE(resp.head.status, kStatusOk);
}

TEST(Service, RejectsMalformedPayloadAndUnknownOpcode) {
  Service service;
  ResponseHead head;
  {
    const auto resp = service.handle(
        static_cast<std::uint16_t>(Opcode::kElectable), {0x01, 0x02});
    WireReader r(resp);
    ASSERT_TRUE(decode_response_head(r, &head));
    EXPECT_EQ(head.status, kStatusBadRequest);
  }
  {
    const auto resp = service.handle(77, {});
    WireReader r(resp);
    ASSERT_TRUE(decode_response_head(r, &head));
    EXPECT_EQ(head.status, kStatusUnknownOpcode);
  }
  EXPECT_EQ(service.counters().errors, 2u);
}

TEST(Service, ResponseCacheServesIdenticalBytes) {
  Service service;
  ResponseCache cache(8);
  const InstanceRef inst{"ring", {6}, {0, 3}};
  const auto key = ResponseCache::key(
      static_cast<std::uint16_t>(Opcode::kElectable),
      encode_electable_request(inst));

  const auto first =
      service.handle(static_cast<std::uint16_t>(Opcode::kElectable),
                     encode_electable_request(inst), &cache);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  const auto second =
      service.handle(static_cast<std::uint16_t>(Opcode::kElectable),
                     encode_electable_request(inst), &cache);
  EXPECT_EQ(first, second);  // byte-identical
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_NE(cache.lookup(key), nullptr);
}

TEST(Service, ErrorsAreNotCached) {
  Service service;
  ResponseCache cache(8);
  const InstanceRef bad{"moebius", {6}, {0}};
  service.handle(static_cast<std::uint16_t>(Opcode::kElectable),
                 encode_electable_request(bad), &cache);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResponseCacheTest, EvictsLeastRecentlyUsed) {
  ResponseCache cache(2);
  cache.insert("a", {1});
  cache.insert("b", {2});
  ASSERT_NE(cache.lookup("a"), nullptr);  // refresh a; b is now LRU
  cache.insert("c", {3});                 // evicts b
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.hits + stats.misses, 4u);
}

TEST(Service, StatsReportCountersAndExtras) {
  Service service;
  ResponseCache cache(8);
  electable(service, {"ring", {6}, {0, 3}}, &cache);
  electable(service, {"ring", {6}, {0, 3}}, &cache);  // cache hit

  const std::vector<std::pair<std::string, std::uint64_t>> extra = {
      {"workers", 3}};
  StatsResponse resp;
  ASSERT_TRUE(decode_stats_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kStats), {}, &cache,
                     &extra),
      &resp));
  ASSERT_EQ(resp.head.status, kStatusOk);

  auto counter = [&](const std::string& key) -> std::uint64_t {
    for (const auto& [k, v] : resp.counters) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing counter " << key;
    return 0;
  };
  EXPECT_EQ(counter("requests_electable"), 2u);
  EXPECT_EQ(counter("requests_stats"), 1u);
  EXPECT_EQ(counter("response_cache_hits"), 1u);
  EXPECT_EQ(counter("response_cache_misses"), 1u);
  EXPECT_EQ(counter("workers"), 3u);
  // No certificate cache exists, so STATS reports no counter for one.
  for (const auto& [k, v] : resp.counters) {
    EXPECT_EQ(k.find("cert_cache_"), std::string::npos) << k;
  }
}

// ---- multi-replica RUN_ELECT bursts (batch backend) ----------------------

RunElectResponse run_elect(Service& service, const RunElectRequest& req) {
  RunElectResponse resp;
  EXPECT_TRUE(decode_run_elect_response(
      service.handle(static_cast<std::uint16_t>(Opcode::kRunElect),
                     encode_run_elect_request(req)),
      &resp));
  return resp;
}

// Every replica of a burst must report exactly what a direct scalar World
// run of the same (seed, replica) counter stream reports -- the serve-side
// face of the batch golden gate.
TEST(Service, RunElectBurstMatchesScalarCounterPerReplica) {
  Service service;
  const std::uint32_t kReplicas = 8;
  RunElectRequest req;
  req.instance = {"ring", {5}, {0, 1, 3}};
  req.seed = 7;
  req.scheduler = "counter";
  req.replicas = kReplicas;
  const RunElectResponse resp = run_elect(service, req);
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
  ASSERT_EQ(resp.replicas.size(), kReplicas);

  const graph::Graph g = campaign::GraphRef{"ring", {5}}.build();
  const graph::Placement p(g.node_count(), {0, 1, 3});
  bool any_stream_differs = false;
  for (std::uint32_t i = 0; i < kReplicas; ++i) {
    sim::World world(g, p, /*color_seed=*/req.seed);
    sim::RunConfig cfg;
    cfg.policy = sim::SchedulerPolicy::Counter;
    cfg.seed = req.seed;
    cfg.replica = i;
    const sim::RunResult run = world.run(core::make_elect_protocol(), cfg);
    const ReplicaVerdict& v = resp.replicas[i];
    EXPECT_EQ(v.completed, run.completed ? 1 : 0) << "replica " << i;
    EXPECT_EQ(v.clean_election, run.clean_election() ? 1 : 0)
        << "replica " << i;
    EXPECT_EQ(v.clean_failure, run.clean_failure() ? 1 : 0)
        << "replica " << i;
    EXPECT_EQ(v.moves, run.total_moves) << "replica " << i;
    EXPECT_EQ(v.steps, run.steps) << "replica " << i;
    if (run.steps != resp.replicas[0].steps) any_stream_differs = true;
  }
  // The streams are genuinely distinct schedules, not one run repeated.
  EXPECT_TRUE(any_stream_differs);

  // The compatibility fields mirror replica 0.
  EXPECT_EQ(resp.completed, resp.replicas[0].completed);
  EXPECT_EQ(resp.moves, resp.replicas[0].moves);
  EXPECT_EQ(resp.steps, resp.replicas[0].steps);

  // And a single-replica counter request returns exactly replica 0.
  req.replicas = 1;
  const RunElectResponse single = run_elect(service, req);
  ASSERT_EQ(single.head.status, kStatusOk) << single.head.error;
  EXPECT_TRUE(single.replicas.empty());
  EXPECT_EQ(single.completed, resp.replicas[0].completed);
  EXPECT_EQ(single.moves, resp.replicas[0].moves);
  EXPECT_EQ(single.steps, resp.replicas[0].steps);
}

TEST(Service, RunElectBurstRequiresCounterScheduler) {
  Service service;
  RunElectRequest req;
  req.instance = {"ring", {6}, {0, 2}};
  req.scheduler = "random";
  req.replicas = 4;
  const RunElectResponse resp = run_elect(service, req);
  EXPECT_EQ(resp.head.status, kStatusBadRequest);
}

TEST(Service, RunElectBurstRespectsMaxReplicas) {
  Service service;
  RunElectRequest req;
  req.instance = {"ring", {6}, {0, 2}};
  req.scheduler = "counter";
  req.replicas = kMaxReplicas + 1;
  const RunElectResponse resp = run_elect(service, req);
  EXPECT_EQ(resp.head.status, kStatusTooLarge);
}

TEST(Service, StatsExposeBatchCounters) {
  Service service;
  auto stats_counter = [&](const std::string& key) -> std::uint64_t {
    StatsResponse resp;
    EXPECT_TRUE(decode_stats_response(
        service.handle(static_cast<std::uint16_t>(Opcode::kStats), {}),
        &resp));
    for (const auto& [k, v] : resp.counters) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing counter " << key;
    return 0;
  };
  const std::uint64_t slabs0 = stats_counter("batch_slabs_run");
  const std::uint64_t replicas0 = stats_counter("batch_replicas_run");
  const std::uint64_t hist0 = stats_counter("batch_slab_size_4_7");

  RunElectRequest req;
  req.instance = {"ring", {6}, {0, 2}};
  req.scheduler = "counter";
  req.replicas = 4;
  const RunElectResponse resp = run_elect(service, req);
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;

  EXPECT_EQ(stats_counter("batch_slabs_run"), slabs0 + 1);
  EXPECT_EQ(stats_counter("batch_replicas_run"), replicas0 + 4);
  EXPECT_EQ(stats_counter("batch_slab_size_4_7"), hist0 + 1);
  stats_counter("batch_scalar_fallbacks");  // present
}

// ---- end-to-end over loopback -------------------------------------------

TEST(Server, RefusesMoreWorkersThanTheBoundBeforeOpeningASocket) {
  ServerOptions options;
  options.workers = kMaxWorkers + 1;
  Server server(options);
  EXPECT_THROW(server.start(), CheckError);
  EXPECT_EQ(server.worker_count(), 0u);
}

TEST(Server, EndToEndQueriesOverLoopback) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.workers = 2;
  Server server(options);
  server.start();
  ASSERT_NE(server.port(), 0);

  Client client = Client::connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());

  const auto resp = client.electable({"ring", {6}, {0, 3}});
  ASSERT_EQ(resp.head.status, kStatusOk) << resp.head.error;
  EXPECT_EQ(resp.electable, 0);
  EXPECT_EQ(resp.final_gcd, 2u);

  const auto sigma = client.sigma({{"ring", {6}, {}}, 0});
  ASSERT_EQ(sigma.head.status, kStatusOk) << sigma.head.error;
  EXPECT_EQ(sigma.sigma, 6u);

  const auto run = client.run_elect({{"ring", {6}, {0, 2}}, 7, "random"});
  ASSERT_EQ(run.head.status, kStatusOk) << run.head.error;
  EXPECT_EQ(run.completed, 1);

  const auto stats = client.stats();
  ASSERT_EQ(stats.head.status, kStatusOk);
  EXPECT_FALSE(stats.counters.empty());

  server.stop();
}

TEST(Server, ManyConcurrentClientsGetConsistentAnswers) {
  ServerOptions options;
  options.port = 0;
  options.workers = 4;
  Server server(options);
  server.start();

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client = Client::connect("127.0.0.1", server.port());
      for (int i = 0; i < kRequests; ++i) {
        const auto resp = client.electable({"ring", {6}, {0, 3}});
        if (resp.head.status != kStatusOk || resp.electable != 0 ||
            resp.final_gcd != 2) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kClients; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_EQ(server.connections_accepted(),
            static_cast<std::uint64_t>(kClients));
  server.stop();
}

TEST(Server, OversizedFrameGetsErrorThenDisconnect) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_payload = 64;
  Server server(options);
  server.start();

  Client client = Client::connect("127.0.0.1", server.port());
  const std::vector<std::uint8_t> big(128, 0);
  const auto body = client.request(Opcode::kPing, big);
  WireReader r(body);
  EXPECT_EQ(r.u32(), kStatusTooLarge);
  // The connection is closed after the error: the next request fails.
  EXPECT_THROW(client.request(Opcode::kPing, {}), CheckError);
  server.stop();
}

// Sends raw bytes over a plain socket and returns true iff the server
// closed the connection (recv sees EOF) without sending anything back.
bool server_hangs_up_on(std::uint16_t port,
                        const std::vector<std::uint8_t>& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::uint8_t buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  ::close(fd);
  return n == 0;
}

TEST(Server, CorruptFramesCloseTheConnection) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  Server server(options);
  server.start();

  // Wrong magic: not a frame boundary.
  std::vector<std::uint8_t> garbage(kHeaderSize, 0xAB);
  EXPECT_TRUE(server_hangs_up_on(server.port(), garbage));

  // Valid header, corrupted checksum field.
  auto frame = encode_frame(Opcode::kPing, 5, {1, 2, 3});
  frame[20] ^= 0xFF;
  EXPECT_TRUE(server_hangs_up_on(server.port(), frame));

  // A healthy client still works afterwards.
  Client client = Client::connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping());
  server.stop();
}

}  // namespace
}  // namespace qelect::serve
