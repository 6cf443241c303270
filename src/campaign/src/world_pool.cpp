#include "qelect/campaign/world_pool.hpp"

#include <algorithm>

#include "qelect/graph/placement.hpp"

namespace qelect::campaign {

namespace {

std::string structural_key(const std::string& graph_label,
                           const std::vector<graph::NodeId>& home_bases,
                           bool quantitative) {
  std::string key = graph_label;
  key += "/p=";
  for (std::size_t i = 0; i < home_bases.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(home_bases[i]);
  }
  if (quantitative) key += "#q";
  return key;
}

}  // namespace

sim::World& WorldPool::acquire(const TaskSpec& task, bool quantitative) {
  const std::string key =
      structural_key(task.graph.label(), task.home_bases, quantitative);
  ++clock_;
  for (Entry& e : entries_) {
    if (e.key == key) {
      ++stats_.hits;
      e.stamp = clock_;
      // reset(seed) re-mints labels only when the seed changed; either way
      // the next run starts from pristine state with all buffers kept.
      e.world->reset(task.color_seed);
      return *e.world;
    }
  }
  ++stats_.misses;
  if (entries_.size() >= capacity_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(lru);
    ++stats_.evictions;
  }
  graph::Graph g = task.graph.build();
  graph::Placement p(g.node_count(), task.home_bases);
  entries_.push_back(Entry{
      key,
      std::make_unique<sim::World>(
          quantitative ? sim::World::quantitative(std::move(g), std::move(p),
                                                  task.color_seed)
                       : sim::World(std::move(g), std::move(p),
                                    task.color_seed)),
      clock_});
  ++stats_.compiles;
  return *entries_.back().world;
}

util::CacheStats WorldPool::stats() const {
  util::CacheStats s = stats_;
  s.entries = entries_.size();
  s.capacity = capacity_;
  return s;
}

WorldPool& WorldPool::local() {
  static thread_local WorldPool pool;
  return pool;
}

}  // namespace qelect::campaign
