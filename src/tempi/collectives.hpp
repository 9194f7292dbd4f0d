// Datatype-aware GPU collectives engine.
//
// The paper's interposer accelerates Send/Recv-family traffic; dense
// exchange collectives (MPI_Alltoallv, MPI_Neighbor_alltoallv, and
// MPI_Allgather / MPI_Gatherv as thin reductions onto the same core) still
// rode the system MPI's baseline datatype path — exactly the stencil/halo
// and all-to-all patterns the paper targets. Each entry point here is a
// slot generator: it lists the call's per-peer (peer, count,
// displacement) send and receive slots, and the exchange core runs them
// as the single round of a collective schedule (tempi/schedule.hpp),
// whose executor owns the side classifier, leases, leg choice, issue
// order, tag reservation and error draining:
//
//   1. Fused pack  — all outgoing per-peer blocks are packed into ONE
//      device staging lease by a single span-table kernel pass
//      (launch_pack_spans): per-peer (offset, count) tables instead of
//      launch_pack_range's single uniform object stride.
//   2. Leg fan-out — the executor posts per-peer wire legs on the
//      non-blocking request engine (async::start_isend_packed /
//      start_irecv_packed) so every peer's wire time overlaps; the
//      per-peer path (CUDA-aware device wire vs pinned-staged CPU wire)
//      is the model's TransferKind::Leg decision, which prices the sysmpi
//      netmodel's intra/inter-node parameters and the bytes this rank
//      already queued at its injection port, cached in the model's
//      lock-free choice cache; topo::schedule orders
//      the fan-out node-aware.
//   3. Oversized legs — a per-peer leg above the wire-chunk limit ships
//      as ordered sub-slice legs of the one pipelined framing
//      (send_packed_pipelined, landed by a ChunkedRecv straight into the
//      receive slice).
//   4. Fused unpack — received per-peer legs land in one staging lease and
//      a single span-table kernel pass scatters them into the user buffer.
//   5. Replay — a repeated call with the same identity (comm, buffers,
//      types, every count and displacement) replays the executor's
//      recorded schedule: frozen leg choices, the fused pack and self
//      copies as one graph, the fused unpack as another.
//
// Interoperability contract: the engine decision is PER RANK. The wire
// always carries each peer message's packed bytes under the exact tag a
// system-path rank derives for the same call (the engine mirrors sysmpi's
// collective-tag sequence and consumes the same number of slots), so
// engine ranks and ranks that fell through to the system path — host
// buffers, untranslatable types, TEMPI_COLL=0 on one binary — exchange
// correctly in one collective. The only exception mirrors PR 3's framing
// contract: a per-peer leg above the wire-chunk limit needs multi-leg
// framing on both endpoints, which a system-path peer (that could not
// carry such a leg anyway) does not speak.
//
// Per-rank buffer handling (each side classified independently by
// sched::classify, the one classifier the reduction engine and the
// tempi.cpp gate share):
//   * Fused  — device-resident buffer with a canonical packer: span-table
//              kernel pass through a device staging lease;
//   * Direct — device-resident contiguous datatype (extent == size): wire
//              legs are slices of the user buffer itself, no staging;
//   * Other  — anything else: typed system Isend/Irecv per peer (the
//              system MPI packs/unpacks with its baseline engine).
// Self-exchange legs short-circuit as device-side copies when both sides
// can address packed bytes (Fused/Direct), else they ride the local
// mailbox like any other leg.
#pragma once

#include "interpose/table.hpp"

#include <cstdint>

namespace tempi::coll {

/// Engine kill-switch (TEMPI_COLL=0|1, read at install time; default on).
/// When disabled every interposed collective forwards to the system MPI.
bool enabled();
void set_enabled(bool on);

/// Engine entry points, called from the interposed collectives in
/// tempi.cpp after the shared fallthrough gate. `next` is the system MPI.
int alltoallv(const void *sendbuf, const int *sendcounts, const int *sdispls,
              MPI_Datatype sendtype, void *recvbuf, const int *recvcounts,
              const int *rdispls, MPI_Datatype recvtype, MPI_Comm comm,
              const interpose::MpiTable &next);
int neighbor_alltoallv(const void *sendbuf, const int *sendcounts,
                       const int *sdispls, MPI_Datatype sendtype,
                       void *recvbuf, const int *recvcounts,
                       const int *rdispls, MPI_Datatype recvtype,
                       MPI_Comm comm, const interpose::MpiTable &next);
int gatherv(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
            void *recvbuf, const int *recvcounts, const int *displs,
            MPI_Datatype recvtype, int root, MPI_Comm comm,
            const interpose::MpiTable &next);
int allgather(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
              void *recvbuf, int recvcount, MPI_Datatype recvtype,
              MPI_Comm comm, const interpose::MpiTable &next);

/// Bump the fallback counter (called by tempi.cpp's gate).
void note_fallback();

} // namespace tempi::coll
