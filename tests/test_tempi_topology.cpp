// The topology layer (tempi/topology.*): node-bucketed leg scheduling
// with rank-salted rotation, the TEMPI_TOPO kill-switch, the brick/greedy
// reorder=1 remap (pure functions and end-to-end through the interposed
// MPI_Cart_create), the identity fallback when no placement strictly
// reduces the modeled inter-node bytes, and MPI_Dist_graph_create_adjacent
// left to the system MPI.
#include "interpose/table.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/tempi.hpp"
#include "tempi/topology.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace {

namespace topo = tempi::topo;
using testing_helpers::counter;

void run_n(int n, int rpn, const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = n;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, body);
}

using Order = std::vector<std::size_t>;

TEST(TopoScheduleOrder, SelfThenIntraThenRotatedNodeBuckets) {
  // my_node=0 of 4 nodes, stagger=1: the rotation starts at node 2, so
  // the inter-node round-robin visits nodes 2, 3, 1.
  const std::vector<topo::Leg> legs = {
      {0, true},  // self
      {0, false}, // intra-node
      {1, false}, {1, false}, {2, false}, {3, false},
  };
  EXPECT_EQ(topo::schedule_order(legs, 0, 1, 4), (Order{0, 1, 4, 5, 2, 3}));
  // stagger=0 rotates from node 1 instead: same legs, different fan-out.
  EXPECT_EQ(topo::schedule_order(legs, 0, 0, 4), (Order{0, 1, 2, 4, 5, 3}));
}

TEST(TopoScheduleOrder, RoundRobinInterleavesRepeatedDestinations) {
  // Two legs to each of nodes 1 and 2 from node 0: consecutive legs must
  // alternate destinations instead of double-tapping one node, while legs
  // to the same node keep their relative (FIFO) order.
  const std::vector<topo::Leg> legs = {
      {1, false}, {1, false}, {2, false}, {2, false}};
  EXPECT_EQ(topo::schedule_order(legs, 0, 0, 3), (Order{0, 2, 1, 3}));
}

TEST(TopoSchedule, RankSaltedStaggerAndCounters) {
  // 4 ranks on 2 nodes, every rank fanning out to everyone in rank
  // order. The second rank of each node (stagger 1) reorders its legs;
  // the first rank's rotation happens to coincide with rank order.
  topo::set_enabled(true);
  tempi::trace::reset_counters();
  std::vector<Order> orders(4);
  run_n(4, 2, [&](int rank) {
    std::vector<int> peers(4);
    for (int p = 0; p < 4; ++p) {
      peers[static_cast<std::size_t>(p)] = (rank + p) % 4;
    }
    orders[static_cast<std::size_t>(rank)] =
        topo::schedule(MPI_COMM_WORLD, peers);
  });
  EXPECT_EQ(orders[0], (Order{0, 1, 2, 3}));
  EXPECT_EQ(orders[1], (Order{0, 3, 1, 2})); // self, intra, then inter
  EXPECT_EQ(orders[2], (Order{0, 1, 2, 3}));
  EXPECT_EQ(orders[3], (Order{0, 3, 1, 2}));
  // Self + one node-mate per rank; three displaced legs on ranks 1 and 3.
  EXPECT_EQ(counter("tempi.topo.intra_node_legs"), 8u);
  EXPECT_EQ(counter("tempi.topo.staggered_legs"), 6u);
  EXPECT_EQ(counter("tempi.topo.remaps"), 0u);
}

TEST(TopoSchedule, KillSwitchReturnsIdentityOrder) {
  topo::set_enabled(false);
  run_n(4, 2, [](int rank) {
    std::vector<int> peers(4);
    for (int p = 0; p < 4; ++p) {
      peers[static_cast<std::size_t>(p)] = (rank + p) % 4;
    }
    const Order order = topo::schedule(MPI_COMM_WORLD, peers);
    ASSERT_EQ(order.size(), 4u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i);
    }
  });
  topo::set_enabled(true);
}

TEST(TopoCartRemap, BrickPlacementStrictlyReducesInterNodeBytes) {
  // 8x8 periodic grid, 8 ranks per node: the identity placement is
  // row-major strips (every vertical edge crosses: 2 per cell = 128
  // directed unit-edges), the 2x4 brick trades half the vertical surface
  // for a short horizontal one (12 per node = 96).
  const std::vector<int> dims{8, 8};
  const std::vector<int> periods{1, 1};
  std::vector<int> node_of_rank(64);
  for (int r = 0; r < 64; ++r) {
    node_of_rank[static_cast<std::size_t>(r)] = r / 8;
  }
  const std::vector<topo::Edge> edges = topo::cart_edges(dims, periods);
  EXPECT_EQ(topo::inter_node_bytes(edges, node_of_rank), 128);

  const std::vector<int> perm = topo::cart_remap(dims, periods, node_of_rank);
  ASSERT_EQ(perm.size(), 64u);
  std::vector<int> seen(64, 0);
  for (const int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 64);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (const int c : seen) {
    EXPECT_EQ(c, 1); // a permutation, not just an assignment
  }
  // Grid vertex perm[r] runs on old rank r's node.
  std::vector<int> node_of_vertex(64, -1);
  for (int r = 0; r < 64; ++r) {
    node_of_vertex[static_cast<std::size_t>(perm[static_cast<std::size_t>(
        r)])] = node_of_rank[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(topo::inter_node_bytes(edges, node_of_vertex), 96);
}

TEST(TopoCartRemap, NoStrictGainFallsBackToIdentity) {
  // 2x2 periodic with two ranks per node: every balanced pairing costs
  // the same 8 crossing edges, so no remap is offered...
  EXPECT_TRUE(topo::cart_remap({2, 2}, {1, 1}, {0, 0, 1, 1}).empty());
  // ...and a single node has nothing crossing to improve.
  EXPECT_TRUE(topo::cart_remap({2, 2}, {1, 1}, {0, 0, 0, 0}).empty());
}

class TempiTopology : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    tempi::trace::reset_counters();
    topo::set_enabled(true);
  }
  void TearDown() override {
    topo::set_enabled(true);
    tempi::uninstall();
  }
};

TEST_F(TempiTopology, CartCreateReorder0KeepsRanksInPlace) {
  run_n(8, 2, [](int rank) {
    MPI_Init(nullptr, nullptr);
    const int dims[2] = {2, 4};
    const int periods[2] = {1, 0};
    MPI_Comm cart = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Cart_create(MPI_COMM_WORLD, 2, dims, periods, 0, &cart),
              MPI_SUCCESS);
    int crank = -1;
    MPI_Comm_rank(cart, &crank);
    EXPECT_EQ(crank, rank); // reorder=0 must never move a rank
    int coords[2] = {-1, -1};
    ASSERT_EQ(MPI_Cart_coords(cart, crank, 2, coords), MPI_SUCCESS);
    EXPECT_EQ(coords[0], rank / 4); // row-major, last dimension fastest
    EXPECT_EQ(coords[1], rank % 4);
    int back = -1;
    ASSERT_EQ(MPI_Cart_rank(cart, coords, &back), MPI_SUCCESS);
    EXPECT_EQ(back, rank);
    int src = -2, dst = -2;
    // Width-2 periodic dimension: one step up and down land on the same
    // neighbor row.
    ASSERT_EQ(MPI_Cart_shift(cart, 0, 1, &src, &dst), MPI_SUCCESS);
    EXPECT_EQ(dst, (rank + 4) % 8);
    EXPECT_EQ(src, (rank + 4) % 8);
    // Non-periodic dimension: off the edge is MPI_PROC_NULL.
    ASSERT_EQ(MPI_Cart_shift(cart, 1, 1, &src, &dst), MPI_SUCCESS);
    EXPECT_EQ(dst, rank % 4 == 3 ? MPI_PROC_NULL : rank + 1);
    EXPECT_EQ(src, rank % 4 == 0 ? MPI_PROC_NULL : rank - 1);
    MPI_Comm_free(&cart);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.topo.remaps"), 0u);
}

TEST_F(TempiTopology, CartCreateReorder1ImprovesPlacementEndToEnd) {
  // The 8x8 grid on 8 nodes from the pure-function test, now through the
  // interposed MPI_Cart_create: the communicator must carry the permuted
  // ranks, route messages under the new numbering, and strictly beat the
  // identity placement's inter-node bytes.
  constexpr int kRanks = 64, kRpn = 8;
  std::vector<int> node_of_vertex(kRanks, -1);
  run_n(kRanks, kRpn, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    const int dims[2] = {8, 8};
    const int periods[2] = {1, 1};
    MPI_Comm cart = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Cart_create(MPI_COMM_WORLD, 2, dims, periods, 1, &cart),
              MPI_SUCCESS);
    int crank = -1;
    MPI_Comm_rank(cart, &crank);
    node_of_vertex[static_cast<std::size_t>(crank)] =
        MPI_COMM_WORLD->world->node_of(rank);
    // Exercise the remapped communicator: a ring shift along x must
    // deliver the left neighbor's Cartesian rank.
    int left = MPI_PROC_NULL, right = MPI_PROC_NULL;
    ASSERT_EQ(MPI_Cart_shift(cart, 1, 1, &left, &right), MPI_SUCCESS);
    int got = -1;
    MPI_Request rreq = MPI_REQUEST_NULL;
    MPI_Irecv(&got, 1, MPI_INT, left, 5, cart, &rreq);
    MPI_Send(&crank, 1, MPI_INT, right, 5, cart);
    MPI_Wait(&rreq, MPI_STATUS_IGNORE);
    EXPECT_EQ(got, crank / 8 * 8 + (crank % 8 + 7) % 8);
    MPI_Comm_free(&cart);
    MPI_Finalize();
  });
  const std::vector<topo::Edge> edges = topo::cart_edges({8, 8}, {1, 1});
  std::vector<int> identity(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    identity[static_cast<std::size_t>(r)] = r / kRpn;
  }
  EXPECT_LT(topo::inter_node_bytes(edges, node_of_vertex),
            topo::inter_node_bytes(edges, identity));
  // Every member adopted the remapped communicator exactly once.
  EXPECT_EQ(counter("tempi.topo.remaps"), 64u);
}

TEST_F(TempiTopology, KillSwitchDisablesCartRemap) {
  topo::set_enabled(false);
  run_n(64, 8, [](int rank) {
    MPI_Init(nullptr, nullptr);
    const int dims[2] = {8, 8};
    const int periods[2] = {1, 1};
    MPI_Comm cart = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Cart_create(MPI_COMM_WORLD, 2, dims, periods, 1, &cart),
              MPI_SUCCESS);
    int crank = -1;
    MPI_Comm_rank(cart, &crank);
    EXPECT_EQ(crank, rank); // TEMPI_TOPO=0: identity placement
    MPI_Comm_free(&cart);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.topo.remaps"), 0u);
}

// MPI_Dist_graph_create_adjacent is not interposed: with reorder=1, on a
// graph whose every edge crosses nodes under the identity placement, each
// rank keeps its place and its declared neighbor lists, exactly as the
// system MPI builds them.
TEST_F(TempiTopology, DistGraphReorder1IsTheSystemPath) {
  constexpr int kRanks = 16, kRpn = 4;
  struct Graph {
    int rank = -1;
    std::vector<int> sources, destinations;
    bool operator==(const Graph &) const = default;
  };
  const auto build = [&](bool system) {
    std::vector<Graph> graphs(kRanks);
    run_n(kRanks, kRpn, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      // A ring through one rank of each node, four times over.
      const int dst = (rank + kRpn) % kRanks;
      const int src = (rank - kRpn + kRanks) % kRanks;
      MPI_Comm graph = MPI_COMM_NULL;
      const int rc =
          system ? interpose::system_table().Dist_graph_create_adjacent(
                       MPI_COMM_WORLD, 1, &src, nullptr, 1, &dst, nullptr,
                       MPI_INFO_NULL, 1, &graph)
                 : MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 1, &src,
                                                  nullptr, 1, &dst, nullptr,
                                                  MPI_INFO_NULL, 1, &graph);
      ASSERT_EQ(rc, MPI_SUCCESS);
      Graph &g = graphs[static_cast<std::size_t>(rank)];
      MPI_Comm_rank(graph, &g.rank);
      g.sources = graph->graph_sources;
      g.destinations = graph->graph_destinations;
      MPI_Comm_free(&graph);
      MPI_Finalize();
    });
    return graphs;
  };
  const std::vector<Graph> interposed = build(false);
  const std::vector<Graph> system = build(true);
  for (int r = 0; r < kRanks; ++r) {
    const Graph &g = interposed[static_cast<std::size_t>(r)];
    EXPECT_EQ(g, system[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_EQ(g.rank, r);
    EXPECT_EQ(g.sources, std::vector<int>{(r - kRpn + kRanks) % kRanks});
    EXPECT_EQ(g.destinations, std::vector<int>{(r + kRpn) % kRanks});
  }
  EXPECT_EQ(counter("tempi.topo.remaps"), 0u);
}

} // namespace
