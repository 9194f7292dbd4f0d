// Topology layer implementation (see topology.hpp for the architecture).
#include "tempi/topology.hpp"

#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <numeric>

namespace tempi::topo {

namespace {

std::atomic<bool> g_enabled{true};

struct TopoCounters {
  trace::Counter remaps{"tempi.topo.remaps"};
  trace::Counter staggered_legs{"tempi.topo.staggered_legs"};
  trace::Counter intra_node_legs{"tempi.topo.intra_node_legs"};
};

/// Namespace scope, so the counters register at static initialisation.
TopoCounters g_counters;

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

/// Distinct nodes of `node_of_rank` in ascending id order, each with its
/// member ranks (ascending). The partitioners place onto these groups,
/// so capacities follow the actual population of each node.
struct NodeGroup {
  int node = 0;
  std::vector<int> ranks;
};

std::vector<NodeGroup> group_by_node(const std::vector<int> &node_of_rank) {
  std::vector<NodeGroup> groups;
  for (int r = 0; r < static_cast<int>(node_of_rank.size()); ++r) {
    const int node = node_of_rank[static_cast<std::size_t>(r)];
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const NodeGroup &g) { return g.node == node; });
    if (it == groups.end()) {
      groups.push_back(NodeGroup{node, {r}});
    } else {
      it->ranks.push_back(r);
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const NodeGroup &a, const NodeGroup &b) {
              return a.node < b.node;
            });
  return groups;
}

/// Turn a vertex -> group assignment into new_rank_of[old_rank]: within
/// each group, its vertices (ascending) map onto its member ranks
/// (ascending), so the permutation is deterministic on every rank.
std::vector<int> realize_assignment(const std::vector<int> &vertex_group,
                                    const std::vector<NodeGroup> &groups) {
  const std::size_t n = vertex_group.size();
  std::vector<int> new_rank_of(n, -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::size_t k = 0;
    for (int v = 0; v < static_cast<int>(n); ++v) {
      if (vertex_group[static_cast<std::size_t>(v)] ==
          static_cast<int>(g)) {
        new_rank_of[static_cast<std::size_t>(groups[g].ranks[k++])] = v;
      }
    }
  }
  return new_rank_of;
}

/// Inter-node bytes of `edges` when vertex v lives in group
/// vertex_group[v] (or, for the identity placement, on node_of_rank[v]).
long long cross_bytes(const std::vector<Edge> &edges,
                      const std::vector<int> &vertex_group) {
  long long total = 0;
  for (const Edge &e : edges) {
    if (vertex_group[static_cast<std::size_t>(e.src)] !=
        vertex_group[static_cast<std::size_t>(e.dst)]) {
      total += e.bytes;
    }
  }
  return total;
}

/// All factorizations of `rpn` into per-dimension block sizes dividing
/// `dims`; keep the one minimizing the brick's cross-surface proxy
/// (sum of rpn / b[d] over split dimensions).
bool best_brick(const std::vector<int> &dims, int rpn,
                std::vector<int> &best) {
  const std::size_t nd = dims.size();
  std::vector<int> cur(nd, 1);
  long long best_cost = -1;
  std::function<void(std::size_t, int)> go = [&](std::size_t d,
                                                 int remaining) {
    if (d == nd) {
      if (remaining != 1) {
        return;
      }
      long long cost = 0;
      for (std::size_t i = 0; i < nd; ++i) {
        if (cur[i] < dims[i]) {
          cost += rpn / cur[i];
        }
      }
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best = cur;
      }
      return;
    }
    for (int b = 1; b <= std::min(remaining, dims[d]); ++b) {
      if (remaining % b == 0 && dims[d] % b == 0) {
        cur[d] = b;
        go(d + 1, remaining / b);
      }
    }
    cur[d] = 1;
  };
  go(0, rpn);
  return best_cost >= 0;
}

} // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<std::size_t> schedule_order(const std::vector<Leg> &legs,
                                        int my_node, int stagger,
                                        int nnodes) {
  std::vector<std::size_t> order;
  order.reserve(legs.size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (legs[i].self) {
      order.push_back(i);
    }
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (!legs[i].self && legs[i].dest_node == my_node) {
      order.push_back(i);
    }
  }
  if (nnodes < 1) {
    nnodes = 1;
  }
  std::vector<std::vector<std::size_t>> buckets(
      static_cast<std::size_t>(nnodes));
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (legs[i].self || legs[i].dest_node == my_node) {
      continue;
    }
    int d = (legs[i].dest_node - my_node - 1 - stagger) % nnodes;
    if (d < 0) {
      d += nnodes;
    }
    buckets[static_cast<std::size_t>(d)].push_back(i);
    ++remaining;
  }
  for (std::size_t round = 0; remaining > 0; ++round) {
    for (const std::vector<std::size_t> &b : buckets) {
      if (round < b.size()) {
        order.push_back(b[round]);
        --remaining;
      }
    }
  }
  return order;
}

std::vector<std::size_t> schedule(MPI_Comm comm,
                                  const std::vector<int> &peers) {
  if (!enabled() || comm == nullptr || peers.size() < 2) {
    return identity_order(peers.size());
  }
  sysmpi::World &world = *comm->world;
  const int rpn = world.ranks_per_node();
  const int nnodes = (world.size() + rpn - 1) / rpn;
  if (nnodes < 2) {
    return identity_order(peers.size());
  }
  const int me = comm->my_rank;
  const int my_world = comm->world_rank_of(me);
  const int my_node = world.node_of(my_world);
  const int stagger = (my_world % rpn) * std::max(1, nnodes / rpn);

  std::vector<Leg> legs(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    legs[i] = Leg{world.node_of(comm->world_rank_of(peers[i])),
                  peers[i] == me};
  }
  std::vector<std::size_t> order =
      schedule_order(legs, my_node, stagger, nnodes);

  std::uint64_t intra = 0, staggered = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (legs[order[i]].dest_node == my_node) {
      ++intra;
    }
    if (order[i] != i) {
      ++staggered;
    }
  }
  g_counters.intra_node_legs.add(intra);
  g_counters.staggered_legs.add(staggered);
  return order;
}

long long inter_node_bytes(const std::vector<Edge> &edges,
                           const std::vector<int> &node_of_rank) {
  return cross_bytes(edges, node_of_rank);
}

std::vector<Edge> cart_edges(const std::vector<int> &dims,
                             const std::vector<int> &periods) {
  long long grid = 1;
  for (const int d : dims) {
    grid *= d;
  }
  std::vector<Edge> edges;
  std::vector<int> coords(dims.size(), 0);
  for (int r = 0; r < grid; ++r) {
    // Row-major decode of r, then one edge per ±1 neighbor per dimension.
    int rest = r;
    for (std::size_t d = dims.size(); d-- > 0;) {
      coords[d] = rest % dims[d];
      rest /= dims[d];
    }
    for (std::size_t d = 0; d < dims.size(); ++d) {
      for (const int step : {-1, 1}) {
        int c = coords[d] + step;
        if (c < 0 || c >= dims[d]) {
          if (periods[d] == 0) {
            continue;
          }
          c = ((c % dims[d]) + dims[d]) % dims[d];
        }
        if (c == coords[d]) {
          continue; // degenerate dimension: neighbor is self
        }
        int peer = 0;
        for (std::size_t k = 0; k < dims.size(); ++k) {
          peer = peer * dims[k] +
                 (k == d ? c : coords[k]);
        }
        edges.push_back(Edge{r, peer, 1});
      }
    }
  }
  return edges;
}

std::vector<int> cart_remap(const std::vector<int> &dims,
                            const std::vector<int> &periods,
                            const std::vector<int> &node_of_rank) {
  const std::vector<Edge> edges = cart_edges(dims, periods);
  const std::vector<NodeGroup> groups = group_by_node(node_of_rank);
  const std::size_t n = node_of_rank.size();

  // Brick placement needs every node fully and evenly populated so each
  // brick maps onto exactly one node's capacity.
  const std::size_t rpn = groups.empty() ? 0 : groups[0].ranks.size();
  bool uniform = rpn > 1 && groups.size() * rpn == n;
  for (const NodeGroup &g : groups) {
    uniform = uniform && g.ranks.size() == rpn;
  }
  std::vector<int> brick;
  if (uniform && best_brick(dims, static_cast<int>(rpn), brick)) {
    // vertex -> group: row-major brick index of the vertex's coordinates.
    std::vector<int> vertex_group(n, 0);
    for (int v = 0; v < static_cast<int>(n); ++v) {
      int rest = v;
      int g = 0;
      std::vector<int> coords(dims.size(), 0);
      for (std::size_t d = dims.size(); d-- > 0;) {
        coords[d] = rest % dims[d];
        rest /= dims[d];
      }
      for (std::size_t d = 0; d < dims.size(); ++d) {
        g = g * (dims[d] / brick[d]) + coords[d] / brick[d];
      }
      vertex_group[static_cast<std::size_t>(v)] = g;
    }
    // Identity places vertex v on v's current node; compare in group ids.
    std::vector<int> identity_group(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      identity_group[v] = static_cast<int>(
          std::find_if(groups.begin(), groups.end(),
                       [&](const NodeGroup &g) {
                         return g.node == node_of_rank[v];
                       }) -
          groups.begin());
    }
    if (cross_bytes(edges, vertex_group) <
        cross_bytes(edges, identity_group)) {
      return realize_assignment(vertex_group, groups);
    }
  }
  // Irregular population or no dividing factorization: fall back to the
  // general greedy partitioner over the grid's synthetic edges.
  return graph_remap(edges, node_of_rank);
}

std::vector<int> graph_remap(const std::vector<Edge> &edges,
                             const std::vector<int> &node_of_rank) {
  const std::size_t n = node_of_rank.size();
  if (n < 2) {
    return {};
  }
  const std::vector<NodeGroup> groups = group_by_node(node_of_rank);
  if (groups.size() < 2) {
    return {}; // single node: nothing crosses, nothing to improve
  }

  // Undirected adjacency and per-vertex incident weight.
  std::vector<std::vector<std::pair<int, long long>>> adj(n);
  std::vector<long long> incident(n, 0);
  for (const Edge &e : edges) {
    if (e.src == e.dst) {
      continue;
    }
    adj[static_cast<std::size_t>(e.src)].emplace_back(e.dst, e.bytes);
    adj[static_cast<std::size_t>(e.dst)].emplace_back(e.src, e.bytes);
    incident[static_cast<std::size_t>(e.src)] += e.bytes;
    incident[static_cast<std::size_t>(e.dst)] += e.bytes;
  }

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const long long wa = incident[static_cast<std::size_t>(a)];
    const long long wb = incident[static_cast<std::size_t>(b)];
    return wa != wb ? wa > wb : a < b;
  });

  std::vector<std::size_t> free_slots(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    free_slots[g] = groups[g].ranks.size();
  }
  std::vector<int> vertex_group(n, -1);
  for (const int v : order) {
    long long best_aff = -1;
    int best_g = -1;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (free_slots[g] == 0) {
        continue;
      }
      long long aff = 0;
      for (const auto &[peer, w] : adj[static_cast<std::size_t>(v)]) {
        if (vertex_group[static_cast<std::size_t>(peer)] ==
            static_cast<int>(g)) {
          aff += w;
        }
      }
      if (aff > best_aff) {
        best_aff = aff;
        best_g = static_cast<int>(g);
      }
    }
    vertex_group[static_cast<std::size_t>(v)] = best_g;
    --free_slots[static_cast<std::size_t>(best_g)];
  }

  std::vector<int> identity_group(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    identity_group[v] = static_cast<int>(
        std::find_if(groups.begin(), groups.end(),
                     [&](const NodeGroup &g) {
                       return g.node == node_of_rank[v];
                     }) -
        groups.begin());
  }
  if (cross_bytes(edges, vertex_group) >=
      cross_bytes(edges, identity_group)) {
    return {};
  }
  std::vector<int> perm = realize_assignment(vertex_group, groups);
  bool is_identity = true;
  for (std::size_t v = 0; v < n && is_identity; ++v) {
    is_identity = perm[v] == static_cast<int>(v);
  }
  return is_identity ? std::vector<int>{} : perm;
}

int cart_create(MPI_Comm comm_old, int ndims, const int *dims,
                const int *periods, int reorder, MPI_Comm *comm_cart,
                const interpose::MpiTable &next) {
  const auto fall_through = [&] {
    return next.Cart_create(comm_old, ndims, dims, periods, reorder,
                            comm_cart);
  };
  if (!enabled() || reorder == 0 || comm_old == nullptr ||
      comm_cart == nullptr || ndims < 1 || dims == nullptr ||
      periods == nullptr) {
    return fall_through();
  }
  long long grid = 1;
  for (int d = 0; d < ndims; ++d) {
    if (dims[d] < 1) {
      return fall_through();
    }
    grid *= dims[d];
  }
  if (grid > comm_old->size()) {
    return fall_through();
  }
  sysmpi::World &world = *comm_old->world;
  std::vector<int> node_of_rank(static_cast<std::size_t>(grid));
  for (int q = 0; q < grid; ++q) {
    node_of_rank[static_cast<std::size_t>(q)] =
        world.node_of(comm_old->world_rank_of(q));
  }
  // Every rank derives the same permutation from the same local data, so
  // the branch below is taken consistently without communication.
  const std::vector<int> perm =
      cart_remap(std::vector<int>(dims, dims + ndims),
                 std::vector<int>(periods, periods + ndims), node_of_rank);
  if (perm.empty()) {
    return fall_through(); // identity: sysmpi logs the fallback once
  }
  const int me = comm_old->my_rank;
  const bool member = me < grid;
  MPI_Comm c = MPI_COMM_NULL;
  const int rc = next.Comm_split(
      comm_old, member ? 0 : MPI_UNDEFINED,
      member ? perm[static_cast<std::size_t>(me)] : 0, &c);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  if (member) {
    c->is_cart = true;
    c->cart_dims.assign(dims, dims + ndims);
    c->cart_periods.assign(periods, periods + ndims);
    g_counters.remaps.add();
  }
  *comm_cart = c;
  return MPI_SUCCESS;
}

} // namespace tempi::topo
