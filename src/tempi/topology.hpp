// Topology- and congestion-aware scheduling + rank remapping.
//
// Two ideas, one layer:
//
//  * schedule(): the issue order for a fan-out of per-peer legs. The
//    sysmpi netmodel serializes each node's NIC (injection *and* ejection
//    ports), so posting legs in plain rank order aims every sender at the
//    same destination node in the same instant — worst-case incast. The
//    node-aware order issues self/intra-node legs first (they never touch
//    a NIC), then buckets inter-node legs by destination node and walks
//    the buckets round-robin, with the node rotation salted by the rank's
//    position on its node so co-located senders fan out to different
//    nodes simultaneously.
//
//  * cart_remap(): real `reorder=1` for MPI_Cart_create. Given the
//    Cartesian grid and where each rank physically lives, find a rank
//    permutation that puts neighbors on the same virtual node, so their
//    traffic bypasses the NIC entirely (graph_remap(), a greedy
//    partitioner over the grid's edges, is its fallback). A remap is
//    returned only when it strictly reduces the modeled inter-node bytes;
//    otherwise the caller falls back to the identity mapping (and sysmpi
//    logs the fallback once). MPI_Dist_graph_create_adjacent is not
//    interposed: reorder=1 there is the system MPI's to handle.
//
// `TEMPI_TOPO=0` (read at install, see tempi.cpp) disables both: schedule
// degenerates to the identity order and reorder=1 falls through to the
// system identity mapping, restoring the pre-topology behavior.
#pragma once

#include "interpose/table.hpp"
#include "sysmpi/handles.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tempi::topo {

/// Kill-switch (TEMPI_TOPO, read at install; see tempi.cpp).
bool enabled();
void set_enabled(bool on);

/// One leg of a fan-out, as schedule_order() sees it.
struct Leg {
  int dest_node = 0;
  bool self = false; ///< loopback to the issuing rank itself
};

/// Pure issue-order permutation over `legs`: self legs first (original
/// order), then other intra-node legs (`dest_node == my_node`, original
/// order), then inter-node legs round-robin across destination-node
/// buckets. Buckets are visited in rotated-distance order starting at
/// `my_node + 1 + stagger` (mod `nnodes`), so co-located ranks with
/// different staggers hit disjoint nodes first. Legs to the same peer
/// keep their relative order (same bucket, stable fill), preserving the
/// per-(peer, tag) FIFO pairing the wire relies on.
std::vector<std::size_t> schedule_order(const std::vector<Leg> &legs,
                                        int my_node, int stagger, int nnodes);

/// schedule_order() for per-peer legs on `comm`: classifies each peer,
/// derives the stagger from the rank's position on its node (the "rank
/// salt": local_index * max(1, nnodes / ranks_per_node)), and bumps the
/// tempi.topo.* counters. Identity order when the kill-switch is off.
std::vector<std::size_t> schedule(MPI_Comm comm, const std::vector<int> &peers);

/// One weighted directed edge of a communication topology, in comm ranks.
struct Edge {
  int src = 0;
  int dst = 0;
  long long bytes = 1;
};

/// Modeled inter-node traffic: sum of `bytes` over edges whose endpoints
/// land on different nodes under `node_of_rank`.
long long inter_node_bytes(const std::vector<Edge> &edges,
                           const std::vector<int> &node_of_rank);

/// The synthetic edge list of a Cartesian grid: one unit-weight edge per
/// rank per ±1 neighbor per dimension (wrapping only where periodic).
std::vector<Edge> cart_edges(const std::vector<int> &dims,
                             const std::vector<int> &periods);

/// Rank permutation placing the Cartesian grid onto nodes brick-wise:
/// ranks_per_node factors into per-dimension block sizes so each node
/// holds a compact sub-brick (minimal surface) instead of the row-major
/// strip the identity mapping produces. Returns new_rank_of[old_rank],
/// or an empty vector when no placement strictly reduces the modeled
/// inter-node bytes (the caller keeps the identity mapping).
/// `node_of_rank` gives the physical node of each grid member.
std::vector<int> cart_remap(const std::vector<int> &dims,
                            const std::vector<int> &periods,
                            const std::vector<int> &node_of_rank);

/// Greedy graph partitioning onto nodes with fixed per-node capacities
/// (how many of `node_of_rank`'s members each node holds): vertices in
/// descending incident-weight order each join the node (with free
/// capacity) holding the most already-placed neighbor weight. Returns
/// new_rank_of[old_rank], or empty when not strictly better than the
/// identity placement.
std::vector<int> graph_remap(const std::vector<Edge> &edges,
                             const std::vector<int> &node_of_rank);

/// MPI_Cart_create with a real reorder=1: when the kill-switch is on and
/// cart_remap() finds a strictly better placement, the new communicator
/// carries the permuted ranks (realized through next.Comm_split, so
/// ordinals and collective sequences stay aligned on every rank);
/// otherwise falls through to next.Cart_create (identity + one log).
int cart_create(MPI_Comm comm_old, int ndims, const int *dims,
                const int *periods, int reorder, MPI_Comm *comm_cart,
                const interpose::MpiTable &next);

} // namespace tempi::topo
