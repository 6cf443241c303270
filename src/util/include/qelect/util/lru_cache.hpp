// A bounded, thread-safe LRU cache of immutable values under exact keys:
// the one memo behind the class-plan, batch-plan, route, Cayley
// recognition and response caches.
//
//   * lookups compare whole keys, so a hash collision costs a compare and
//     never returns another key's value;
//   * values are handed out as shared_ptr<const V>: hits share one
//     allocation, and eviction drops the cache's reference, not yours;
//   * one mutex guards everything but get()'s compute, so a slow compute
//     never blocks hits on other keys;
//   * get() computes each cold key once: a get() that finds its key being
//     computed waits for that compute and shares its value.  A compute
//     that throws caches nothing and wakes its waiters, and one of them
//     computes again.  So a compute must not wait, directly or through
//     another memo, on a key whose compute waits on it (nor get() its own
//     key): that would wait forever.  The memos in core form no such
//     cycle -- a batch-plan compile asks the protocol-plan and route
//     memos, and those and recognition ask no memo;
//   * the capacity counts a per-entry cost given to the constructor (1 by
//     default).  An insert evicts least-recently-used entries until the
//     new one fits; an entry costlier than the whole capacity is returned
//     but not kept.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace qelect::util {

/// A miss is a lookup that found nothing and, in get(), a call that ran
/// the compute; a get() that waited for another call's compute counts as
/// a hit.  `compiles` counts the computes get() finished, so it equals
/// get()'s misses unless a compute threw.  `capacity` is in cost units.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t compiles = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  using Value = std::shared_ptr<const V>;
  using Cost = std::size_t (*)(const K&, const V&);

  /// `capacity` 0 is clamped to 1; a null `cost` counts 1 per entry.
  explicit LruCache(std::size_t capacity, Cost cost = nullptr)
      : capacity_(std::max<std::size_t>(capacity, 1)), cost_(cost) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value under `key`, or null.  A hit becomes the most recent entry.
  Value lookup(const K& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    Value hit = touch_locked(key);
    ++(hit != nullptr ? stats_.hits : stats_.misses);
    return hit;
  }

  /// Keeps `value` under `key` and returns it, or returns the incumbent
  /// when the key is already present.
  Value insert(K key, Value value) {
    const std::lock_guard<std::mutex> lock(mu_);
    return insert_locked(std::move(key), std::move(value));
  }
  Value insert(K key, V value) {
    return insert(std::move(key), to_value(std::move(value)));
  }

  /// The value under `key`; on a miss, compute() -- returning a V or a
  /// Value -- runs outside the lock and its value is inserted.  A call
  /// that finds `key` being computed waits for that compute instead of
  /// starting its own.  A compute that throws leaves nothing cached; the
  /// exception reaches its own caller, and the calls that waited for it
  /// look the key up again.
  template <typename Compute>
  Value get(K key, Compute&& compute) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (Value hit = touch_locked(key)) {
        ++stats_.hits;
        return hit;
      }
      const auto it = flights_.find(key);
      if (it == flights_.end()) break;
      const std::shared_ptr<Flight> flight = it->second;
      flight_done_.wait(lock, [&] { return flight->done; });
      if (flight->value != nullptr) {
        ++stats_.hits;
        return flight->value;
      }
    }
    ++stats_.misses;
    const auto flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
    lock.unlock();
    Value kept;
    try {
      Value computed = to_value(std::forward<Compute>(compute)());
      lock.lock();
      ++stats_.compiles;
      flights_.erase(key);
      kept = insert_locked(std::move(key), std::move(computed));
    } catch (...) {
      // Whatever threw, the waiters must wake.
      if (!lock.owns_lock()) {
        lock.lock();
        flights_.erase(key);
      }
      land_locked(*flight, nullptr);
      throw;
    }
    land_locked(*flight, kept);
    return kept;
  }

  CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    CacheStats out = stats_;
    out.entries = map_.size();
    out.capacity = capacity_;
    return out;
  }

  /// Drops every entry and resets the statistics.
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    used_ = 0;
    stats_ = CacheStats{};
  }

  /// Shrinking evicts least-recently-used entries until the rest fit; 0
  /// is clamped to 1.
  void set_capacity(std::size_t capacity) {
    const std::lock_guard<std::mutex> lock(mu_);
    capacity_ = std::max<std::size_t>(capacity, 1);
    while (used_ > capacity_) evict_lru();
  }

 private:
  struct Entry {
    Value value;
    std::size_t cost;
    typename std::list<const K*>::iterator lru;
  };

  /// One running compute: its waiters hold it until `done`, and find
  /// its value there, or null when it threw.
  struct Flight {
    bool done = false;
    Value value;
  };

  static Value to_value(Value value) { return value; }
  static Value to_value(V value) {
    return std::make_shared<const V>(std::move(value));
  }

  /// The entry under `key`, made the most recent, or null.
  Value touch_locked(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.value;
  }

  /// Ends a compute with `value` (null: it threw) and wakes every call
  /// waiting for it.
  void land_locked(Flight& flight, Value value) {
    flight.done = true;
    flight.value = std::move(value);
    flight_done_.notify_all();
  }

  Value insert_locked(K&& key, Value value) {
    if (Value incumbent = touch_locked(key)) return incumbent;
    const std::size_t cost = cost_ == nullptr ? 1 : cost_(key, *value);
    if (cost > capacity_) return value;
    while (used_ + cost > capacity_) evict_lru();
    const auto it = map_.emplace(std::move(key), Entry{value, cost, {}}).first;
    lru_.push_front(&it->first);
    it->second.lru = lru_.begin();
    used_ += cost;
    return value;
  }

  void evict_lru() {
    const auto it = map_.find(*lru_.back());
    lru_.pop_back();
    used_ -= it->second.cost;
    map_.erase(it);
    ++stats_.evictions;
  }

  mutable std::mutex mu_;
  std::size_t capacity_;
  const Cost cost_;
  std::size_t used_ = 0;  // summed costs of the entries
  // Map nodes do not move on rehash, so the recency list (front = most
  // recent) can point at their keys.
  std::unordered_map<K, Entry, Hash> map_;
  std::list<const K*> lru_;
  // The keys get() is computing; clear() leaves them running.
  std::unordered_map<K, std::shared_ptr<Flight>, Hash> flights_;
  std::condition_variable flight_done_;
  CacheStats stats_;
};

}  // namespace qelect::util
