// util::LruCache: exact LRU order, capacity and cost accounting, the
// incumbent rule, throwing computes, single-flight cold keys and an
// 8-thread hammer (the threaded tests run under TSan in CI).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "qelect/util/lru_cache.hpp"

namespace qelect::util {
namespace {

using Cache = LruCache<int, std::string>;
using Counts = std::array<std::uint64_t, 6>;

/// hits, misses, compiles, evictions, entries, capacity.
template <typename C>
Counts counts(const C& cache) {
  const CacheStats s = cache.stats();
  return {s.hits, s.misses, s.compiles, s.evictions, s.entries, s.capacity};
}

std::string value_of(int key) { return "v" + std::to_string(key); }

Cache::Value get(Cache& cache, int key) {
  return cache.get(key, [key] { return value_of(key); });
}

std::size_t length_cost(const int&, const std::string& value) {
  return value.size();
}

TEST(LruCache, HitReturnsTheSameSharedValue) {
  Cache cache(4);
  const auto first = get(cache, 1);
  EXPECT_EQ(get(cache, 1).get(), first.get());  // shared, not just equal
  EXPECT_EQ(*first, "v1");
  EXPECT_EQ(counts(cache), (Counts{1, 1, 1, 0, 1, 4}));
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  Cache cache(2);
  cache.insert(1, value_of(1));
  cache.insert(2, value_of(2));
  ASSERT_NE(cache.lookup(1), nullptr);  // refresh 1: 2 is now the LRU entry
  cache.insert(3, value_of(3));         // evicts 2
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(counts(cache), (Counts{3, 1, 0, 1, 2, 2}));
}

TEST(LruCache, FillPastBoundEvictsInExactLruOrder) {
  constexpr int kCapacity = 4;
  constexpr int kTotal = 10;
  Cache cache(kCapacity);
  for (int k = 0; k < kTotal; ++k) get(cache, k);
  EXPECT_EQ(counts(cache), (Counts{0, 10, 10, 6, 4, 4}));
  // Touch order was insertion order, so exactly the last kCapacity keys
  // survive.
  for (int k = 0; k < kTotal; ++k) {
    EXPECT_EQ(cache.lookup(k) != nullptr, k >= kTotal - kCapacity) << k;
  }
  // Touch the residents out of order: new keys then evict them in exactly
  // that order.  A lookup that misses reorders nothing, so each eviction
  // can be checked as it happens.
  const int touched[kCapacity] = {8, 6, 9, 7};
  for (const int k : touched) ASSERT_NE(cache.lookup(k), nullptr);
  for (int i = 0; i < kCapacity; ++i) {
    cache.insert(kTotal + i, value_of(kTotal + i));
    EXPECT_EQ(cache.lookup(touched[i]), nullptr) << touched[i];
  }
  EXPECT_EQ(counts(cache), (Counts{8, 20, 10, 10, 4, 4}));
}

TEST(LruCache, SetCapacityShrinksByEvictingLru) {
  Cache cache(8);
  for (int k = 0; k < 6; ++k) cache.insert(k, value_of(k));
  ASSERT_NE(cache.lookup(0), nullptr);  // refresh the oldest entry
  cache.set_capacity(2);
  EXPECT_EQ(counts(cache), (Counts{1, 0, 0, 4, 2, 2}));
  // The refreshed first key and the most recent insert survive.
  EXPECT_NE(cache.lookup(0), nullptr);
  EXPECT_NE(cache.lookup(5), nullptr);

  cache.set_capacity(0);  // clamps to 1, keeping the most recent entry
  EXPECT_EQ(counts(cache), (Counts{3, 0, 0, 5, 1, 1}));
  EXPECT_NE(cache.lookup(5), nullptr);
  EXPECT_EQ(Cache(0).stats().capacity, 1u);

  cache.set_capacity(16);  // growing back evicts nothing
  EXPECT_EQ(counts(cache), (Counts{4, 0, 0, 5, 1, 16}));
}

TEST(LruCache, ClearResetsEntriesAndStats) {
  Cache cache(2);
  for (int k = 0; k < 3; ++k) get(cache, k);
  cache.lookup(2);
  cache.clear();
  EXPECT_EQ(counts(cache), (Counts{0, 0, 0, 0, 0, 2}));
  EXPECT_EQ(cache.lookup(2), nullptr);
}

TEST(LruCache, RacingInsertKeepsOneValue) {
  Cache cache(4);
  const auto incumbent = cache.insert(1, std::string("first"));
  const auto loser = cache.insert(1, std::string("second"));
  EXPECT_EQ(loser.get(), incumbent.get());
  EXPECT_EQ(*loser, "first");
  // A get() whose compute loses the race hands out the incumbent too: the
  // racer's insert lands between get()'s lookup and its own insert.
  const auto late = cache.get(2, [&] {
    cache.insert(2, std::string("racer"));
    return std::string("late");
  });
  EXPECT_EQ(*late, "racer");
  EXPECT_EQ(counts(cache), (Counts{0, 1, 1, 0, 2, 4}));
}

TEST(LruCache, CostWeightedEvictionMakesRoomLruFirst) {
  LruCache<int, std::string> cache(10, &length_cost);
  cache.insert(1, std::string(4, 'a'));
  cache.insert(2, std::string(3, 'b'));
  cache.insert(3, std::string(3, 'c'));  // 10 of 10
  ASSERT_NE(cache.lookup(1), nullptr);   // LRU order is now 2, 3, 1
  cache.insert(4, std::string(5, 'd'));  // evicts 2 and 3, not 1
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_EQ(cache.lookup(3), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(4), nullptr);  // LRU order is now 1, 4
  EXPECT_EQ(counts(cache), (Counts{3, 2, 0, 2, 2, 10}));

  cache.set_capacity(9);  // 9 of 9 still fits
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.set_capacity(8);  // drops the LRU entry
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(4), nullptr);
}

TEST(LruCache, ValueOverTheCapacityIsReturnedButNotKept) {
  LruCache<int, std::string> cache(10, &length_cost);
  cache.insert(1, std::string(6, 'a'));
  const auto a = cache.get(2, [] { return std::string(11, 'b'); });
  const auto b = cache.get(2, [] { return std::string(11, 'b'); });
  EXPECT_EQ(*a, std::string(11, 'b'));
  EXPECT_NE(a.get(), b.get());  // computed twice, kept never
  // Nothing was evicted to make room for it.
  EXPECT_EQ(counts(cache), (Counts{0, 2, 2, 0, 1, 10}));
  EXPECT_NE(cache.lookup(1), nullptr);
}

TEST(LruCache, ThrowingComputeLeavesNothingCached) {
  Cache cache(4);
  EXPECT_THROW(cache.get(1, []() -> std::string {
                 throw std::runtime_error("compute failed");
               }),
               std::runtime_error);
  EXPECT_EQ(counts(cache), (Counts{0, 1, 0, 0, 0, 4}));
  EXPECT_EQ(*get(cache, 1), "v1");
  EXPECT_EQ(counts(cache), (Counts{0, 2, 1, 0, 1, 4}));
}

/// Runs body(t) on kGetters threads at once.  `entered` counts the
/// threads about to call get(); a compute that waits until it reaches
/// kGetters, plus a short grace for the last arrivals to reach get()'s
/// wait, runs while every other thread wants the same key.
constexpr int kGetters = 8;

template <typename Body>
void run_getters(Body body) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kGetters; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
}

void hold_until_all_entered(const std::atomic<int>& entered) {
  while (entered.load() < kGetters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(LruCache, ConcurrentColdMissesComputeOnce) {
  Cache cache(4);
  std::atomic<int> entered{0};
  std::atomic<int> computes{0};
  std::vector<Cache::Value> got(kGetters);
  run_getters([&](int t) {
    entered.fetch_add(1);
    got[t] = cache.get(1, [&] {
      computes.fetch_add(1);
      hold_until_all_entered(entered);
      return value_of(1);
    });
  });
  EXPECT_EQ(computes.load(), 1);
  for (int t = 0; t < kGetters; ++t) {
    EXPECT_EQ(got[t].get(), got[0].get()) << t;  // one shared value
  }
  EXPECT_EQ(*got[0], "v1");
  // The waiters count as hits.
  EXPECT_EQ(counts(cache), (Counts{7, 1, 1, 0, 1, 4}));
}

TEST(LruCache, ThrowingComputeCachesNothingAndWakesWaiters) {
  // The first compute holds until every thread wants the key, then
  // throws.  Its caller alone sees the exception; the waiters wake, one
  // of them computes again, and the rest share that value.
  Cache cache(4);
  std::atomic<int> entered{0};
  std::atomic<int> computes{0};
  std::atomic<int> threw{0};
  std::vector<Cache::Value> got(kGetters);
  run_getters([&](int t) {
    entered.fetch_add(1);
    try {
      got[t] = cache.get(1, [&]() -> std::string {
        if (computes.fetch_add(1) == 0) {
          hold_until_all_entered(entered);
          throw std::runtime_error("compute failed");
        }
        return value_of(1);
      });
    } catch (const std::runtime_error&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), 1);
  EXPECT_EQ(computes.load(), 2);
  Cache::Value shared;
  int served = 0;
  for (const Cache::Value& v : got) {
    if (v == nullptr) continue;
    ++served;
    if (shared == nullptr) shared = v;
    EXPECT_EQ(v.get(), shared.get());
  }
  EXPECT_EQ(served, kGetters - 1);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(*shared, "v1");
  // Two misses (the thrower and the retry that computed), one compile.
  EXPECT_EQ(counts(cache), (Counts{6, 2, 1, 0, 1, 4}));
}

TEST(LruCache, MultithreadedHammer) {
  // Few keys over a tight capacity, so hits, misses, racing inserts of
  // one key and evictions all happen at once.  CI runs this under TSan.
  Cache cache(3);
  constexpr int kThreads = 8;
  constexpr int kKeys = 6;
  constexpr int kIters = 400;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (i * (t + 1) + t) % kKeys;
        // Every iteration makes exactly one get() or lookup() call.
        if (i % 3 != 0) {
          if (*get(cache, k) != value_of(k)) wrong.fetch_add(1);
          continue;
        }
        if (*cache.insert(k, value_of(k)) != value_of(k)) wrong.fetch_add(1);
        if (const auto hit = cache.lookup(k); hit && *hit != value_of(k)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, std::uint64_t(kThreads * kIters));
  EXPECT_LE(s.entries, 3u);
  EXPECT_LE(s.compiles, s.misses);
}

}  // namespace
}  // namespace qelect::util
