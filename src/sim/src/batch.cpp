#include "qelect/sim/batch.hpp"

#include <algorithm>

namespace qelect::sim {

void BatchWorld::reset(const graph::Graph& g, const graph::Placement& p,
                       const std::vector<BatchReplicaConfig>& configs,
                       const BatchConfig& config) {
  QELECT_CHECK(p.node_count() == g.node_count(),
               "BatchWorld: placement does not fit graph");
  QELECT_CHECK(g.is_connected(), "BatchWorld: graph must be connected");
  QELECT_CHECK(config.policy != SchedulerPolicy::Replay,
               "BatchWorld: Replay runs use the scalar engine");
  config_ = config;
  const std::size_t r = p.agent_count();
  const std::size_t n = g.node_count();
  agent_count_ = r;
  adj_off_.resize(n + 1);
  adj_off_[0] = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    adj_off_[v + 1] = adj_off_[v] + static_cast<std::uint32_t>(g.degree(v));
  }
  adj_to_.resize(adj_off_[n]);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (graph::PortId port = 0; port < g.degree(v); ++port) {
      adj_to_[adj_off_[v] + port] = g.peer(v, port).to;
    }
  }
  replicas_.resize(configs.size());
  for (std::size_t rep = 0; rep < configs.size(); ++rep) {
    Replica& R = replicas_[rep];
    R.seed = configs[rep].seed;
    R.replica_id = configs[rep].replica;
    R.rng = Xoshiro256(R.seed);
    R.counter_rng = Philox4x32(R.seed, R.replica_id);
    R.counter = 0;
    R.draw_pos = kDrawBatch;
    R.rr_cursor = 0;
    R.round.clear();
    R.round_pos = 0;
    R.in_round = false;
    R.pos.assign(p.home_bases().begin(), p.home_bases().end());
    R.moves.assign(r, 0);
    R.board_accesses.assign(r, 0);
    R.pending.assign(r, BatchPending{});
    R.waiting.assign(r, 0);
    R.wait_sat.assign(r, 0);
    R.enabled.resize(r);
    for (std::size_t i = 0; i < r; ++i) R.enabled[i] = i;
    R.waiters.resize(n);
    for (auto& w : R.waiters) w.clear();
    R.boards.resize(n);
    for (BatchBoard& b : R.boards) b.clear();
    // Same color minting as World(g, p, seed): batch replica seed plays
    // the scalar color_seed role, so reports are comparable byte-for-byte.
    ColorUniverse::mint_many(R.seed, r, R.colors);
    R.live = r;
    R.steps = 0;
    R.finished = false;
    R.failed = false;
    R.error.clear();
    // Field-wise result reset keeps the agents vector's capacity.
    R.result.completed = false;
    R.result.deadlock = false;
    R.result.step_limit = false;
    R.result.steps = 0;
    R.result.total_moves = 0;
    R.result.total_board_accesses = 0;
    R.result.agents.clear();
  }
}

void BatchWorld::enabled_insert(Replica& r, std::size_t i) {
  const auto it = std::lower_bound(r.enabled.begin(), r.enabled.end(), i);
  if (it == r.enabled.end() || *it != i) r.enabled.insert(it, i);
}

void BatchWorld::enabled_erase(Replica& r, std::size_t i) {
  const auto it = std::lower_bound(r.enabled.begin(), r.enabled.end(), i);
  if (it != r.enabled.end() && *it == i) r.enabled.erase(it);
}

void BatchWorld::unpark(Replica& r, std::size_t i) {
  std::vector<std::uint32_t>& list = r.waiters[r.pos[i]];
  for (std::uint32_t& slot : list) {
    if (slot == i) {
      slot = list.back();
      list.pop_back();
      break;
    }
  }
  r.waiting[i] = 0;
}

std::size_t BatchWorld::pick_round_robin(Replica& r) {
  for (std::size_t hop = 0; hop < agent_count_; ++hop) {
    const std::size_t candidate = (r.rr_cursor + hop) % agent_count_;
    if (std::binary_search(r.enabled.begin(), r.enabled.end(), candidate)) {
      r.rr_cursor = (candidate + 1) % agent_count_;
      return candidate;
    }
  }
  QELECT_ASSERT(false);
  return r.enabled.front();
}

}  // namespace qelect::sim
