// Shared drivers for the serving CLI surface: `qelectd` and the `qelect
// serve` / `qelect query` subcommands are thin wrappers around these two
// entry points, so the daemon binary and the CLI cannot drift apart.
#pragma once

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "qelect/campaign/workloads.hpp"
#include "qelect/serve/client.hpp"
#include "qelect/serve/server.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::tools {

inline int serve_usage() {
  std::fprintf(
      stderr,
      "usage: serve [flags]\n"
      "\n"
      "  --host ADDR           listen address (default 127.0.0.1)\n"
      "  --port P              TCP port; 0 = ephemeral (default 7677)\n"
      "  --workers N           worker shards (<= 256); 0 = hardware concurrency\n"
      "  --response-cache N    per-worker response cache entries (default 4096)\n"
      "  --coalesce-window US  RUN_ELECT coalescing window in microseconds\n"
      "                        (default 200; 0 disables micro-batching)\n"
      "  --coalesce-max N      largest coalesced slab (default 128)\n"
      "  --max-nodes N         largest instance any query may build\n"
      "  --max-payload BYTES   largest accepted request payload\n"
      "  --sigma-budget X      SIGMA labeling-enumeration budget\n"
      "\n"
      "Runs until SIGINT/SIGTERM, then shuts down cleanly.\n");
  return 2;
}

/// Sets `field` to `text`, the value of numeric flag `flag`: decimal
/// digits that fit the field and are at most `max` (for a floating-point
/// field, a finite number >= 0).  Anything else -- a sign, a wrap,
/// trailing text, NaN -- is a CheckError naming the flag.
template <typename T>
void parse_number(const std::string& flag, const std::string& text, T& field,
                  T max = std::numeric_limits<T>::max()) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if constexpr (std::is_floating_point_v<T>) {
    QELECT_CHECK(ec == std::errc() && ptr == end && value >= 0 && value <= max,
                 flag + " takes a finite number >= 0, got '" + text + "'");
  } else {
    // from_chars takes a minus sign for a signed field.
    QELECT_CHECK(ec == std::errc() && ptr == end && text.front() != '-' &&
                     value <= max,
                 flag + " takes an integer in [0, " + std::to_string(max) +
                     "], got '" + text + "'");
  }
  field = value;
}

/// `qelectd` / `qelect serve`: flags from argv[from..), runs the daemon
/// until SIGINT/SIGTERM.
inline int serve_main(int argc, char** argv, int from) {
  serve::ServerOptions options;
  options.port = 7677;
  auto value = [&](int& i) -> std::string {
    QELECT_CHECK(i + 1 < argc, std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = from; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host") {
      options.host = value(i);
    } else if (flag == "--port") {
      parse_number(flag, value(i), options.port);
    } else if (flag == "--workers") {
      parse_number(flag, value(i), options.workers, serve::kMaxWorkers);
    } else if (flag == "--response-cache") {
      parse_number(flag, value(i), options.response_cache_capacity);
    } else if (flag == "--coalesce-window") {
      parse_number(flag, value(i), options.coalesce_window_us);
    } else if (flag == "--coalesce-max") {
      parse_number(flag, value(i), options.coalesce_max);
    } else if (flag == "--max-nodes") {
      parse_number(flag, value(i), options.limits.max_nodes);
    } else if (flag == "--max-payload") {
      parse_number(flag, value(i), options.max_payload);
    } else if (flag == "--sigma-budget") {
      parse_number(flag, value(i), options.limits.sigma_budget);
    } else if (flag == "--help" || flag == "-h") {
      return serve_usage();
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return serve_usage();
    }
  }

  // Block the shutdown signals before threads spawn so every thread
  // inherits the mask and only this thread's sigwait() sees them.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  serve::Server server(options);
  server.start();
  std::printf("qelectd listening on %s:%u (%zu workers)\n",
              options.host.c_str(), server.port(), server.worker_count());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&mask, &sig);
  std::fprintf(stderr, "qelectd: caught %s, shutting down\n",
               sig == SIGINT ? "SIGINT" : "SIGTERM");
  const auto counters = server.service().counters();
  std::uint64_t total = 0;
  for (std::uint64_t r : counters.requests) total += r;
  server.stop();
  std::printf("qelectd: served %llu requests (%llu errors) over %llu connections\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(counters.errors),
              static_cast<unsigned long long>(server.connections_accepted()));
  return 0;
}

inline int query_usage() {
  std::fprintf(
      stderr,
      "usage: query <opcode> [flags]\n"
      "\n"
      "  opcodes: ping electable sigma view-classes run-elect stats\n"
      "\n"
      "  --host ADDR        server address (default 127.0.0.1)\n"
      "  --port P           server port (default 7677)\n"
      "  --family NAME      graph family (ring, hypercube, torus, ...)\n"
      "  --params A,B       family parameters\n"
      "  --bases A,B        home-base nodes (the placement)\n"
      "  --alphabet N       SIGMA alphabet (0 = max degree)\n"
      "  --seed S           RUN_ELECT color/scheduler seed\n"
      "  --scheduler NAME   random | round-robin | lockstep | counter\n"
      "  --replicas N       RUN_ELECT burst size (> 1 needs counter)\n");
  return 2;
}

/// The comma-separated values of numeric list flag `flag`, each checked
/// as parse_number checks one.
template <typename T>
std::vector<T> parse_list(const std::string& flag, const std::string& text) {
  std::vector<T> out;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    parse_number(flag, text.substr(begin, comma - begin), out.emplace_back());
    begin = comma + 1;
  }
  return out;
}

/// `qelect query`: one request against a running qelectd, human-readable
/// output.  Exits 0 on kStatusOk, 1 on an error status or transport
/// failure, 2 on usage errors.
inline int query_main(int argc, char** argv, int from) {
  if (from >= argc) return query_usage();
  const std::string opcode_arg = argv[from];
  const auto op = serve::opcode_from_name(opcode_arg);
  if (!op) {
    std::fprintf(stderr, "unknown opcode '%s'\n", opcode_arg.c_str());
    return query_usage();
  }

  std::string host = "127.0.0.1";
  std::uint16_t port = 7677;
  serve::InstanceRef inst;
  std::uint32_t alphabet = 0;
  std::uint64_t seed = 1;
  std::string scheduler = "random";
  std::uint32_t replicas = 1;
  auto value = [&](int& i) -> std::string {
    QELECT_CHECK(i + 1 < argc, std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = from + 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host") {
      host = value(i);
    } else if (flag == "--port") {
      parse_number(flag, value(i), port);
    } else if (flag == "--family") {
      inst.family = value(i);
    } else if (flag == "--params") {
      inst.params = parse_list<std::uint64_t>(flag, value(i));
    } else if (flag == "--bases") {
      inst.home_bases = parse_list<std::uint32_t>(flag, value(i));
    } else if (flag == "--alphabet") {
      parse_number(flag, value(i), alphabet);
    } else if (flag == "--seed") {
      parse_number(flag, value(i), seed);
    } else if (flag == "--scheduler") {
      scheduler = value(i);
    } else if (flag == "--replicas") {
      parse_number(flag, value(i), replicas);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return query_usage();
    }
  }

  serve::Client client = serve::Client::connect(host, port);
  const auto fail = [](const serve::ResponseHead& head) {
    std::fprintf(stderr, "error (%s): %s\n",
                 serve::status_name(head.status), head.error.c_str());
    return 1;
  };
  switch (*op) {
    case serve::Opcode::kPing: {
      QELECT_CHECK(client.ping(), "ping failed");
      std::printf("ok\n");
      return 0;
    }
    case serve::Opcode::kElectable: {
      const auto resp = client.electable(inst);
      if (resp.head.status != serve::kStatusOk) return fail(resp.head);
      std::printf("electable: %s\nclass: %s\ngcd: %llu\nnodes: %llu\n",
                  resp.electable ? "yes" : "no",
                  campaign::classification_name(resp.classification),
                  static_cast<unsigned long long>(resp.final_gcd),
                  static_cast<unsigned long long>(resp.nodes));
      return 0;
    }
    case serve::Opcode::kSigma: {
      const auto resp = client.sigma({inst, alphabet});
      if (resp.head.status != serve::kStatusOk) return fail(resp.head);
      std::printf("sigma: %llu\nalphabet: %u\nlabelings: %llu\n",
                  static_cast<unsigned long long>(resp.sigma), resp.alphabet,
                  static_cast<unsigned long long>(resp.labelings));
      return 0;
    }
    case serve::Opcode::kViewClasses: {
      const auto resp = client.view_classes(inst);
      if (resp.head.status != serve::kStatusOk) return fail(resp.head);
      std::printf("nodes: %llu\nclasses: %zu\n",
                  static_cast<unsigned long long>(resp.nodes),
                  resp.classes.size());
      for (std::size_t i = 0; i < resp.classes.size(); ++i) {
        std::printf("  [%zu] size=%zu:", i, resp.classes[i].size());
        for (std::uint32_t member : resp.classes[i]) {
          std::printf(" %u", member);
        }
        std::printf("\n");
      }
      return 0;
    }
    case serve::Opcode::kRunElect: {
      const auto resp = client.run_elect({inst, seed, scheduler, replicas});
      if (resp.head.status != serve::kStatusOk) return fail(resp.head);
      std::printf(
          "completed: %s\nclean_election: %s\nclean_failure: %s\n"
          "matches_oracle: %s\ngcd: %llu\nmoves: %llu\nsteps: %llu\n",
          resp.completed ? "yes" : "no", resp.clean_election ? "yes" : "no",
          resp.clean_failure ? "yes" : "no",
          resp.matches_oracle ? "yes" : "no",
          static_cast<unsigned long long>(resp.final_gcd),
          static_cast<unsigned long long>(resp.moves),
          static_cast<unsigned long long>(resp.steps));
      for (std::size_t i = 0; i < resp.replicas.size(); ++i) {
        const serve::ReplicaVerdict& v = resp.replicas[i];
        std::printf("replica %zu: %s moves=%llu steps=%llu\n", i,
                    v.matches_oracle ? "ok" : "MISMATCH",
                    static_cast<unsigned long long>(v.moves),
                    static_cast<unsigned long long>(v.steps));
      }
      return 0;
    }
    case serve::Opcode::kStats: {
      const auto resp = client.stats();
      if (resp.head.status != serve::kStatusOk) return fail(resp.head);
      for (const auto& [key, counter] : resp.counters) {
        std::printf("%s: %llu\n", key.c_str(),
                    static_cast<unsigned long long>(counter));
      }
      return 0;
    }
  }
  return 2;
}

}  // namespace qelect::tools
