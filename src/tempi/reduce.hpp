// The GPU reduction-collectives engine: MPI_Allreduce / MPI_Reduce /
// MPI_Reduce_scatter(_block) on device combine kernels with
// netmodel-chosen schedules.
//
// The system MPI reduces on the host with a fixed linear schedule
// (reduce-to-root in ascending source order, then a binomial bcast for
// Allreduce). For device-resident payloads that means staging every
// contribution through host memory and serializing the combine at the
// root. This engine keeps the combine on the device (tempi/kernels.*
// launch_reduce / launch_reduce_spans) and picks the communication
// schedule from the netmodel:
//
//  1. Shape resolution: the call is engine-eligible when the datatype is
//     built from one uniform named base in {int, long, long long, float,
//     double} and the op maps onto a device combine kernel (logical /
//     bitwise ops are integer-only, as in the system MPI). Everything
//     else forwards to the system path untouched.
//  2. Schedule selection (derived datatypes): ring (bandwidth-optimal,
//     2(P-1) neighbor hops of bytes/P), recursive doubling (latency-
//     optimal, ceil(log2 P) exchanges of the full payload), or linear
//     (small P). Estimates come from sysmpi::transfer_duration with the
//     hop's intra-/inter-node placement folded in, so the crossover
//     moves with the netmodel parameters. The choice keys only on
//     process-uniform facts (payload size, comm size, node layout), so
//     every rank picks the same schedule.
//  3. Generation: every schedule — linear fold, ring, recursive
//     doubling, binomial tree, ring reduce-scatter, linear scatter — is
//     a generator of rounds of steps (send or receive a packed slice,
//     combine two slices accumulator-left, combine into the strided user
//     buffer, pack, unpack) that the collective schedule executor
//     (tempi/schedule.hpp) runs. The named/derived split below is a
//     choice of generator: named datatypes run the linear generator on
//     the user buffers themselves, derived ones a netmodel-chosen
//     generator in the packed domain.
//  4. Leg issue (the executor): each wire leg is contiguous packed bytes
//     riding async::start_{isend,irecv}_packed, with the per-leg path
//     (Device / Staged) chosen by the model's Leg decision — queued-bytes
//     aware on fan-outs — and fan-out posting ordered by
//     topo::schedule(). Pipelined choices are clamped to Method::Device:
//     a schedule leg's two endpoints may differ in residency (or be
//     system ranks), and only the single-leg methods keep the wire a
//     plain byte message.
//  5. Replay: a repeated call with the same identity (buffers, type,
//     op, root, counts, resolved combine, forced schedule) skips steps
//     2-3 and replays the executor's recorded schedule: frozen leg
//     choices, each round's combines as one recorded graph. The named
//     Allreduce's trailing system Bcast runs every call either way.
//
// Interoperability contract (the per-rank engine/fallthrough rule):
//
//  * NAMED datatypes: the system path works for any rank, so the engine
//    admits a rank only when its buffers are device-resident, and then
//    speaks the system MPI's exact wire shape — same tags, same
//    collective-sequence slots, same linear association order. Engine
//    and system ranks interoperate within one call, and integer results
//    are bitwise identical on both paths (floats too: the association
//    order is the system one).
//  * Derived datatypes: the system reductions reject them (combiner !=
//    NAMED -> MPI_ERR_ARG), so there are no functioning system peers —
//    every interposed rank enters the engine regardless of residency.
//    Host-resident ranks (side Other) ride host carriers with
//    sysmpi::baseline_pack/baseline_unpack and combine with
//    sysmpi::apply_reduce; device ranks pack through the committed Packer
//    (span kernels) and combine with launch_reduce. The packed wire
//    format is identical either way.
//
// Floating-point ordering guarantees (deterministic, per schedule):
//  * Linear: the system MPI's association — root's contribution, then
//    the remaining ranks in ascending order (bitwise equal to sysmpi).
//  * Recursive doubling / binomial tree: a balanced binary tree with
//    the lower rank's accumulator always the left operand; every rank
//    evaluates the same expression, so all ranks agree bitwise.
//  * Ring: each bytes/P segment is folded once, at a single rank, as a
//    sequential chain in ring order, then distributed — all ranks agree
//    bitwise because the fold happens exactly once.
// Repeated calls with the same inputs and schedule reproduce the same
// bits; different schedules may round differently (tested).
//
// TEMPI_RED=0 (read at install, see tempi.cpp) forwards everything to
// the system path.
#pragma once

#include "interpose/table.hpp"

#include <cstddef>
#include <cstdint>

namespace tempi::red {

/// Kill-switch (TEMPI_RED, read at install; see tempi.cpp).
bool enabled();
void set_enabled(bool on);

/// Communication schedules the engine implements. Auto lets the
/// netmodel choose (always Linear for named datatypes — that is the
/// system wire shape mixed engine/system ranks rely on). A forced
/// schedule applies to derived-datatype calls only, where every rank is
/// in the engine; MPI_Reduce has no ring flavor and maps a forced Ring
/// to Doubling (the binomial tree).
enum class Schedule : int { Auto, Linear, Ring, Doubling };
const char *schedule_name(Schedule s);

Schedule forced_schedule();
void set_forced_schedule(Schedule s);

/// True when (datatype, op) resolves to a device combine shape: one
/// uniform named base in {int, long, long long, float, double}, an op
/// with a kernel (logical/bitwise are integer-only), and — for derived
/// types — a committed packer or a contiguous layout. Process-uniform:
/// safe to key the engine/forward decision on.
bool engine_shape_ok(MPI_Datatype datatype, MPI_Op op);

/// The netmodel's Allreduce schedule choice for `bytes` of payload on
/// `comm` (gpu = device-resident endpoints). Exposed for tests and
/// bench_fig17_allreduce, which assert the ring/doubling crossover.
Schedule choose_allreduce_schedule(std::size_t bytes, MPI_Comm comm,
                                   bool gpu);

// Engine entry points. tempi.cpp's gates decide engine vs system path
// (see the interoperability contract above); these still forward
// residency-ineligible named-datatype ranks to `next` themselves, so a
// mixed-residency communicator interoperates within one call.
int allreduce(const void *sendbuf, void *recvbuf, int count,
              MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
              const interpose::MpiTable &next);
int reduce(const void *sendbuf, void *recvbuf, int count,
           MPI_Datatype datatype, MPI_Op op, int root, MPI_Comm comm,
           const interpose::MpiTable &next);
int reduce_scatter(const void *sendbuf, void *recvbuf,
                   const int *recvcounts, MPI_Datatype datatype, MPI_Op op,
                   MPI_Comm comm, const interpose::MpiTable &next);
int reduce_scatter_block(const void *sendbuf, void *recvbuf, int recvcount,
                         MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
                         const interpose::MpiTable &next);

/// Count one forwarded call (the tempi.cpp gates call this when they
/// route a reduction to the system path).
void note_fallback();

} // namespace tempi::red
