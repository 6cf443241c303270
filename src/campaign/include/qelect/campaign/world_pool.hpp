// WorldPool: per-worker reuse of simulation arenas.
//
// A campaign shard executes thousands of tasks, and most sweeps revisit
// the same (graph, placement) shape over and over -- every color seed and
// scheduler axis multiplies tasks without changing the arena.  Before this
// pool, each task rebuilt the graph and constructed a fresh sim::World
// (re-minting colors, reallocating every board and scheduler buffer).  The
// pool keeps a small LRU of Worlds keyed by structural identity (graph
// label + home bases + quantitative flag) and retargets a cached World at
// the task's color seed via World::reset(seed), which is observationally
// identical to fresh construction (tests/test_world_pool.cpp holds the
// runtime to that, and the campaign byte-identity tests cover the
// kill/resume path over pooled workers).
//
// Concurrency model: one pool per worker thread (WorldPool::local() is
// thread_local), so there is no sharing and no locking -- a World is
// reused only by the shard that owns it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qelect/campaign/task.hpp"
#include "qelect/sim/world.hpp"
#include "qelect/util/lru_cache.hpp"

namespace qelect::campaign {

class WorldPool {
 public:
  /// `capacity` bounds how many distinct (graph, placement) shapes are
  /// kept; least-recently-used entries are evicted beyond it.
  explicit WorldPool(std::size_t capacity = 16) : capacity_(capacity) {}

  WorldPool(const WorldPool&) = delete;
  WorldPool& operator=(const WorldPool&) = delete;

  /// A ready-to-run World for the task's instance: cached and reset when
  /// the shape was seen before, freshly built (task.graph.build())
  /// otherwise.  The reference stays valid until `capacity` other shapes
  /// have been acquired.
  sim::World& acquire(const TaskSpec& task, bool quantitative);

  /// Same, for callers that already hold a graph (no GraphRef rebuild on
  /// miss).  `key` must uniquely identify the graph's structure.
  sim::World& acquire(const std::string& key, const graph::Graph& g,
                      const std::vector<graph::NodeId>& home_bases,
                      std::uint64_t color_seed, bool quantitative);

  /// Snapshot of the pool's counters (`compiles` = Worlds built), which
  /// the qelectd STATS opcode exports per worker shard.
  util::CacheStats stats() const;

  /// The calling worker thread's pool.  Campaign workloads go through
  /// this, so shards reuse arenas without any cross-thread traffic.
  static WorldPool& local();

 private:
  struct Entry {
    std::string key;
    std::unique_ptr<sim::World> world;
    std::uint64_t stamp = 0;  // LRU clock
  };

  template <typename Build>
  sim::World& acquire_impl(const std::string& key, std::uint64_t color_seed,
                           Build&& build);

  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  util::CacheStats stats_;
  std::vector<Entry> entries_;
};

}  // namespace qelect::campaign
