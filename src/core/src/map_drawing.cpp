#include "qelect/core/map_drawing.hpp"

#include <optional>
#include <utility>

#include "qelect/util/assert.hpp"

namespace qelect::core {

namespace {

/// Per-map-node exploration state: the far side of each port, once known.
struct PortSlot {
  bool known = false;
  NodeId to = 0;
  PortId to_port = 0;
};

/// What a board inspection at the current node reports.
struct BoardGlance {
  std::optional<std::int64_t> my_index;  // my Visited sign's payload, if any
  std::optional<sim::Color> base;        // home-base sign's color, if any
  std::optional<std::int64_t> base_id;   // quantitative label, if published
};

BoardGlance glance(const sim::Whiteboard& wb, const sim::Color& self) {
  BoardGlance out;
  if (const sim::Sign* v = wb.find(kTagVisited, self)) {
    QELECT_ASSERT(!v->payload.empty());
    out.my_index = v->payload.front();
  }
  if (const sim::Sign* h = wb.find_tag(sim::kTagHomeBase)) {
    out.base = h->color;
    if (!h->payload.empty()) out.base_id = h->payload.front();
  }
  return out;
}

/// The port through which the last move entered the current node.  An
/// edge cut on an agent's first move leaves it on its home-base with no
/// entry port yet; the agent cannot tell the cut from a traversal, so
/// that case reads as port 0.
PortId arrival_port(const sim::AgentCtx& ctx) {
  return ctx.entry_port().value_or(0);
}

}  // namespace

sim::Task<void> follow_ports(sim::AgentCtx& ctx,
                             const std::vector<PortId>& ports) {
  for (PortId p : ports) {
    co_await ctx.move(p);
  }
}

sim::Task<AgentMap> map_drawing(sim::AgentCtx& ctx) {
  std::vector<std::vector<PortSlot>> port_map;  // per map node
  std::vector<std::optional<sim::Color>> base_color;
  std::vector<std::optional<std::int64_t>> base_id;

  // Register the home-base as map node 0 and stamp it.
  {
    BoardGlance first;
    co_await ctx.board([&](sim::Whiteboard& wb) {
      first = glance(wb, ctx.self());
      wb.post(sim::Sign{ctx.self(), kTagVisited, {0}});
    });
    QELECT_CHECK(first.base.has_value() && *first.base == ctx.self(),
                 "map_drawing: agent must start on its own home-base");
    port_map.emplace_back(ctx.degree());
    base_color.push_back(first.base);
    base_id.push_back(first.base_id);
  }

  // Iterative DFS.  `stack` holds the return port of every tree edge on the
  // path from the root to the current node.
  NodeId current = 0;
  std::vector<std::pair<NodeId, PortId>> stack;  // (parent, return port)

  for (;;) {
    // First unexplored port of the current node.
    PortId next = 0;
    while (next < port_map[current].size() && port_map[current][next].known) {
      ++next;
    }
    if (next < port_map[current].size()) {
      co_await ctx.move(next);
      const PortId back = arrival_port(ctx);
      BoardGlance seen;
      bool fresh = false;
      const std::int64_t fresh_index =
          static_cast<std::int64_t>(port_map.size());
      co_await ctx.board([&](sim::Whiteboard& wb) {
        seen = glance(wb, ctx.self());
        if (!seen.my_index.has_value()) {
          fresh = true;
          wb.post(sim::Sign{ctx.self(), kTagVisited, {fresh_index}});
        }
      });
      if (fresh) {
        const NodeId id = static_cast<NodeId>(fresh_index);
        port_map.emplace_back(ctx.degree());
        base_color.push_back(seen.base);
        base_id.push_back(seen.base_id);
        port_map[current][next] = PortSlot{true, id, back};
        port_map[id][back] = PortSlot{true, current, next};
        stack.emplace_back(current, back);
        current = id;
      } else {
        const NodeId id = static_cast<NodeId>(*seen.my_index);
        port_map[current][next] = PortSlot{true, id, back};
        port_map[id][back] = PortSlot{true, current, next};
        co_await ctx.move(back);  // retreat over the non-tree edge
      }
    } else if (!stack.empty()) {
      const auto [parent, back] = stack.back();
      stack.pop_back();
      co_await ctx.move(back);
      current = parent;
    } else {
      break;  // back at the root with everything explored
    }
  }

  // Assemble the Graph from the half-edge map.
  std::vector<graph::Edge> edges;
  for (NodeId u = 0; u < port_map.size(); ++u) {
    for (PortId p = 0; p < port_map[u].size(); ++p) {
      const PortSlot& slot = port_map[u][p];
      QELECT_ASSERT(slot.known);
      // Emit each undirected edge once (loops: emit when p is the smaller
      // port).
      if (slot.to > u || (slot.to == u && slot.to_port > p)) {
        edges.push_back(graph::Edge{u, p, slot.to, slot.to_port});
      }
    }
  }
  AgentMap map;
  map.graph = graph::Graph::from_explicit_edges(port_map.size(), edges);
  map.base_color = std::move(base_color);
  map.base_id = std::move(base_id);
  co_return map;
}

sim::Task<AgentMap> map_drawing_bfs(sim::AgentCtx& ctx) {
  std::vector<std::vector<PortSlot>> port_map;
  std::vector<std::optional<sim::Color>> base_color;
  std::vector<std::optional<std::int64_t>> base_id;
  // Parent tree for navigation: parent_port[v] = (port at parent, parent),
  // entry_port[v] = port of v on the tree edge to its parent.
  struct TreeLink {
    NodeId parent = 0;
    PortId parent_port = 0;  // port at the parent leading to v
    PortId child_port = 0;   // port at v leading back to the parent
  };
  std::vector<TreeLink> tree;

  {
    BoardGlance first;
    co_await ctx.board([&](sim::Whiteboard& wb) {
      first = glance(wb, ctx.self());
      wb.post(sim::Sign{ctx.self(), kTagVisited, {0}});
    });
    QELECT_CHECK(first.base.has_value() && *first.base == ctx.self(),
                 "map_drawing_bfs: agent must start on its own home-base");
    port_map.emplace_back(ctx.degree());
    base_color.push_back(first.base);
    base_id.push_back(first.base_id);
    tree.push_back(TreeLink{});
  }

  // Route from `from` to `to` along tree links (up to the root, down).
  const auto tree_route = [&](NodeId from, NodeId to) {
    auto path_to_root = [&](NodeId v) {
      std::vector<NodeId> chain{v};
      while (chain.back() != 0) chain.push_back(tree[chain.back()].parent);
      return chain;
    };
    const auto up = path_to_root(from);
    const auto down = path_to_root(to);
    // Find the lowest common ancestor by trimming the common suffix.
    std::size_t i = up.size(), j = down.size();
    while (i > 0 && j > 0 && up[i - 1] == down[j - 1]) {
      --i;
      --j;
    }
    std::vector<PortId> ports;
    for (std::size_t k = 0; k < i; ++k) {
      ports.push_back(tree[up[k]].child_port);  // climb toward the LCA
    }
    for (std::size_t k = j; k-- > 0;) {
      ports.push_back(tree[down[k]].parent_port);  // descend to `to`
    }
    return ports;
  };

  NodeId here = 0;
  // BFS frontier: probe every port of node v before moving to node v+1
  // (discovery order IS BFS order because new nodes append to the back).
  for (NodeId v = 0; v < port_map.size(); ++v) {
    for (PortId p = 0; p < port_map[v].size(); ++p) {
      if (port_map[v][p].known) continue;
      // Navigate to v through the tree, probe port p, classify, return.
      co_await follow_ports(ctx, tree_route(here, v));
      here = v;
      co_await ctx.move(p);
      const PortId back = arrival_port(ctx);
      BoardGlance seen;
      bool fresh = false;
      const std::int64_t fresh_index =
          static_cast<std::int64_t>(port_map.size());
      co_await ctx.board([&](sim::Whiteboard& wb) {
        seen = glance(wb, ctx.self());
        if (!seen.my_index.has_value()) {
          fresh = true;
          wb.post(sim::Sign{ctx.self(), kTagVisited, {fresh_index}});
        }
      });
      const NodeId id =
          fresh ? static_cast<NodeId>(fresh_index)
                : static_cast<NodeId>(*seen.my_index);
      if (fresh) {
        port_map.emplace_back(ctx.degree());
        base_color.push_back(seen.base);
        base_id.push_back(seen.base_id);
        tree.push_back(TreeLink{v, p, back});
      }
      port_map[v][p] = PortSlot{true, id, back};
      port_map[id][back] = PortSlot{true, v, p};
      co_await ctx.move(back);  // always retreat; BFS recenters via routes
      here = v;
    }
  }
  co_await follow_ports(ctx, tree_route(here, 0));

  std::vector<graph::Edge> edges;
  for (NodeId u = 0; u < port_map.size(); ++u) {
    for (PortId p = 0; p < port_map[u].size(); ++p) {
      const PortSlot& slot = port_map[u][p];
      QELECT_ASSERT(slot.known);
      if (slot.to > u || (slot.to == u && slot.to_port > p)) {
        edges.push_back(graph::Edge{u, p, slot.to, slot.to_port});
      }
    }
  }
  AgentMap map;
  map.graph = graph::Graph::from_explicit_edges(port_map.size(), edges);
  map.base_color = std::move(base_color);
  map.base_id = std::move(base_id);
  co_return map;
}

}  // namespace qelect::core
