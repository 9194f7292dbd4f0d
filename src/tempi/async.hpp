// Request engine: every packer-driven point-to-point transfer TEMPI
// accelerates, blocking, non-blocking and persistent.
//
// Each leg of pack -> transfer -> unpack (methods.hpp) is a phase of a
// per-op state machine:
//
//   send:  PackIssued ------> TransferPosted ----------------> Complete
//          (pack legs on the   (wire bytes handed to the        (Wait/Test
//           vcuda stream)       system MPI_Isend)                reclaims)
//
//   recv:  WirePending ---------------------> UnpackPending --> Complete
//          (wire buffer leased; the transfer   (unpack legs on
//           is matched lazily at Wait/Test)     the vcuda stream)
//
// There is one request type, with one send path and one receive path: a
// send is posted by post_send and a receive armed by post_recv, whichever
// call made it. A blocking MPI_Send/MPI_Recv builds the op on its caller's
// stack, posts it as Isend/Irecv do, and completes it through the code
// Wait uses; it never enters the request pool, takes no shard lock and
// bumps no tempi.engine.* counter. A one-shot op (Isend, Irecv) lives in
// the pool and leaves it when it reaches Complete. A persistent op
// (Send_init, Recv_init) is the same op with a `persistent` flag and a
// program of its own: it rests in the pool at Complete (inactive),
// MPI_Start posts or arms it through the same two paths, and completion
// re-arms it again instead of retiring it. Only Request_free releases it.
//
// The opaque MPI_Request handles returned to the application are pool
// tickets, not system requests: Wait/Waitall/Waitany/Test first consult the
// pool and forward anything they do not own to the system MPI, so TEMPI and
// system requests mix freely in one array.
//
// Pipelining: the pack/unpack legs are enqueued with the _async packer
// halves and the leased intermediates stay pinned in the op until
// completion. Each op draws a stream round-robin from the per-rank pool
// (vcuda::next_pool_stream).
//
// Recorded programs: a repeated monolithic MPI_Send, MPI_Isend, MPI_Recv
// or MPI_Irecv runs from a recorded program (the program MPI_Send_init/
// MPI_Recv_init freeze) in its thread's program table, by the sighting
// rule of tempi/replay.hpp. A send from a program and a persistent send's
// Start post through one path: PackIssued is one graph launch and a
// pre-armed fence into the program's pinned wire lease. A receive from a
// program, persistent, blocking or non-blocking, lands its wire in the
// program's pinned lease and replays the recorded unpack graph, unless the
// message is shorter than posted: then only the objects that arrived are
// unpacked, live. A persistent request's frozen program is entered in the
// table under its key, never evicted and never charged to its budget, so
// while the request rests a call of the same key borrows it from the
// first sighting on instead of recording a second one. An op claims (marks
// in flight) the program it runs from until it retires, by one rule for
// every call and arming (claim in async.cpp): a call that finds its
// program claimed, by an active request or another borrower, runs live,
// and so does an arming whose program a call borrowed.
//
// Waitall batching (the paper's halo exchange completes 26 receives per
// iteration in one Waitall, after the sends its Isends deferred went out as
// one fused pack, see "Send batching"): receives whose unpack is one
// canonical-packer kernel (Device/OneShot, monolithic, not a pre-packed
// collective leg) only receive their wire in pass 1. Their unpacks collect
// in a batch that is flushed just before the next rendezvous-sized wire
// wait, so it runs under that wait, and once more at the end of pass 1. A
// flush launches the unpacks that must run live as ONE fused kernel
// (launch_unpack_batch). Full messages into claimed programs are the flush's
// members, and so are receives with a pending self-delivery transcode (see
// below), which are segments of the same fused kernel with no pack ahead of
// them; a repeated flush of the same ordered members replays as one recorded
// graph (see the batch table in async.cpp). Pass 2 then pays one host
// synchronization per stream that holds live work: one for every fused
// launch, plus one per stream of the receives that keep their own unpack
// path (Staged, block-list, pipelined); streams of replayed graphs take a
// pre-armed fence instead. Ops that completed in place leave no stream work
// and cost nothing here.
//
// Pass 1 handles the rendezvous-sized receives first (above the system MPI's
// eager limit, not yet delivered, naming their source and tag): the system
// MPI starts a rendezvous transfer only once its receive is matched, so in
// array order each one would wait behind eager receives whose messages have
// already arrived. A receive is never moved ahead of an earlier entry that
// could take the same message: an earlier receive of the same (source, tag,
// comm), a wildcard receive that covers it, or any request forwarded to the
// system MPI (whose envelope TEMPI does not see). Such a receive keeps its
// place, and its wire wait splits the batch as before. Hoisting therefore
// never changes which message a receive gets: the non-overtaking order, and
// the matching-order caveat below, hold as they did. A collective's legs
// share one tag per peer, so their order does not change.
//
// Send batching (the halo exchange's Isends pack in one kernel): an Isend
// or persistent Start (one send path, one rule) that sends from a claimed
// recorded program (the table's, or the request's own), is moved by one
// kernel (Device or OneShot, monolithic), is not addressed to the caller's
// own rank and joins a burst (a post that follows another post with no
// completion call between them) does not launch its pack. It waits at
// PackIssued in its thread's list of deferred sends when the rank
// initialized at MPI_THREAD_SINGLE or MPI_THREAD_FUNNELED, where that
// thread is the only one of the rank that enters MPI. (At
// MPI_THREAD_SERIALIZED or MPI_THREAD_MULTIPLE another thread may block in
// a receive or a barrier whose peer waits for the pending sends, so every
// send posts at once.) The thread's next MPI call that can wait or
// complete a request flushes the list first: every waiting send's pack
// runs as one fused kernel (launch_unpack_batch's pack items) into its
// program's pinned wire lease, one fence follows, and the wires are posted
// in post order. A repeated flush of the same ordered
// sends replays as one recorded graph from the thread's batch table, the
// one Waitall's fused unpacks use; a flush of one send, or a flush seen
// for the first time, replays each send's own program as a send posted
// alone does. A flush that fails leaves its error on every member request.
//
// Deadlock discipline: a send's transfer is posted eagerly (the system
// MPI's sends are buffered), and a deferred send is on the wire before its
// thread's next MPI call that can wait on a peer or complete a request
// proceeds: tempi.cpp flushes at the start of Wait*, Test* and
// Request_free (reason completion), blocking Send/Recv/Sendrecv, the
// collectives and Finalize (blocking), and every entry TEMPI does not
// implement, whose forwarder flushes before it calls the system MPI
// (passthrough); uninstall() flushes every list (drain). TEMPI's own local
// calls (Isend/Irecv, Start/Startall, Send_init/Recv_init, Pack/Unpack,
// the type calls, Init and the thread queries) return without waiting and
// leave the list alone. A send that is not deferred flushes the list
// before it reaches the wire (nondeferrable_send), so the thread's
// messages keep the non-overtaking order. Only a rank whose MPI calls all
// come from the deferring thread defers, so no other thread of it can
// block while a list is pending. So a rank that blocks in a receive
// before calling Wait cannot stall its peers. The receive-side transfer is
// matched lazily, which keeps the engine free of system-MPI request state
// to reclaim if the interposer is uninstalled mid-flight.
//
// Self delivery: a monolithic MPI_Send, MPI_Isend or persistent-send
// MPI_Start addressed to the caller's own rank first looks at the
// accelerated receives its thread posted (MPI_Irecv, started
// MPI_Recv_init) whose source is that rank or MPI_ANY_SOURCE, in posting
// order. When the first one that could match names exactly this source and
// tag, the send hands that receive the status a system receive would report
// and one transcode, and completes with no system request, so neither side
// waits on the wire. The transcode is a kernel segment that reads the
// send's canonical layout and writes the receive's, the two walks of one
// packed stream (launch_unpack_batch's transcode item): the message's whole
// objects go straight from the send buffer into the receive's user buffer,
// with no landing buffer, no pack and no unpack. It is the pair's recorded
// one-item batch in the thread's program table, keyed by both layouts (a
// first sighting of a (send, receive) pair takes the system route). The
// send decides at post time which receive it lands in and with what status,
// but the transcode runs later: in the first completion call that reaches
// either request (Wait, Test, Request_free of the send, or the receive's
// completion, on any thread), or, when the receive completes in a Waitall
// flush, as a segment of that flush's fused kernel. A Waitall holding both
// completes the send after its last flush. The send's completion call never
// returns before the transcode ran, so its buffer may be reused as on the
// system path, and the only waits on a pending transcode are the rank's own
// completion calls: the eager-post discipline above holds. A receive
// dropped (freed, or at uninstall) drops its pending transcode, as the
// system MPI discards a pending receive.
//
// Matching order caveat: lazy receive matching means two receives that
// share (source, tag, comm) pair with incoming messages in *completion*
// order, not posted order. This mirrors the system MPI underneath (its
// Irecv also matches at Wait/Test, see sysmpi/api.cpp), so interposing
// does not change observable behavior; applications that need strict
// posted-order matching on a shared (source, tag) should use distinct
// tags, as the halo exchanger does. Self delivery never changes which
// message a receive gets: it declines, and the message takes the system
// route, when no receive could match, when the first receive that could is
// a wildcard (MPI_ANY_SOURCE or MPI_ANY_TAG) or a pipelined one, when the
// message is larger than that receive (the system path reports
// MPI_ERR_TRUNCATE), when either type is a block-list one (it has no
// canonical strided form to transcode), when the system MPI already holds
// a message from this rank on the tag (system Iprobe), which the receive
// must get first, while a receive forwarded to the system MPI could match
// it, and at the pair's first sighting. Each decline counts under its rule
// (tempi.p2p.self_declines.<rule>) and in the total. A receive posted on one
// thread may complete, or be freed, on another, and uninstall() may drop
// it: each leaves its thread's list of receives under that list's lock.
#pragma once

#include "interpose/table.hpp"
#include "support/contended_mutex.hpp"
#include "tempi/methods.hpp"
#include "tempi/packer.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace tempi::async {

/// Phases of one in-flight operation, in order.
enum class OpPhase {
  PackIssued,     ///< send: pack legs enqueued on the stream
  TransferPosted, ///< send: system Isend of the wire bytes posted
  WirePending,    ///< recv: wire buffer leased, transfer not yet matched
  UnpackPending,  ///< recv: wire arrived, unpack legs enqueued on stream
  Complete,       ///< a one-shot op leaves the pool; a persistent op rests
                  ///< here, inactive, until the next Start
};

struct AsyncOp; // opaque outside async.cpp

/// Blocking accelerated send: post the op on the path start_isend and a
/// persistent send's start() post on, from the thread's recorded send
/// program of its key when there is one, then complete it as wait() does.
/// For Method::Pipelined, `chunk_bytes` is the chosen wire-leg target.
int send(const Packer &packer, Method method, const void *buf, int count,
         int dest, int tag, MPI_Comm comm, const interpose::MpiTable &next,
         std::size_t chunk_bytes);

/// Blocking accelerated receive: arm the op on the path start_irecv and a
/// persistent receive's start() arm on, landing it in the thread's
/// recorded receive program of its key when there is one, then receive,
/// unpack and publish `status` as wait() does. Unlike theirs, a blocking
/// receive is never listed for self delivery.
int recv(const Packer &packer, Method method, void *buf, int count,
         int source, int tag, MPI_Comm comm, MPI_Status *status,
         const interpose::MpiTable &next);

/// Start an accelerated non-blocking send with a canonical packer; fills
/// `*request` with a pool ticket. `method` comes from the same PerfModel
/// selection blocking sends use; for Method::Pipelined, `chunk_bytes`
/// is the chosen wire-leg target and every chunk leg is posted eagerly at
/// Isend time (the legs are buffered sends, so — like the monolithic
/// eager transfer — this can never stall on the receiver; the chunk
/// overlap still happens inside the call). The raw packer pointer must
/// stay valid until the op completes — tempi.cpp guarantees this by
/// retiring freed packers instead of destroying them (see
/// find_packer_fast).
/// `burst` says that the Isend joins a burst (see "Send batching").
int start_isend(const Packer *packer, Method method, const void *buf,
                int count, int dest, int tag, MPI_Comm comm,
                const interpose::MpiTable &next, MPI_Request *request,
                std::size_t chunk_bytes = 0, bool burst = false);

/// Start an accelerated non-blocking receive (wire matched at Wait/Test).
/// A monolithic receive lands in the thread's recorded receive program of
/// its key when there is one, as recv() does.
/// For Method::Pipelined the op carries a ChunkedRecv state machine:
/// Wait drives every remaining wire leg to completion, while Test makes
/// progress one arrived leg at a time (chunk unpacks overlap later legs'
/// wire time) and only reports completion once the terminating short leg
/// has been consumed.
int start_irecv(const Packer *packer, Method method, void *buf, int count,
                int source, int tag, MPI_Comm comm,
                const interpose::MpiTable &next, MPI_Request *request);

/// Collectives-engine legs (tempi/collectives.*): the payload is already
/// contiguous packed bytes — a staging-lease slice or a contiguous user
/// slice — so the op owns only the wire leg. Method::Device ships the
/// slice straight on the CUDA-aware wire, Method::Staged stages it
/// through a pinned lease on the op's pool stream, and Method::Pipelined
/// (legs above the wire-chunk limit) sends the slice as ordered sub-slice
/// legs of the one pipelined framing (send_packed_pipelined, posted
/// eagerly at start time like pipelined Isends). The send-side slice must
/// stay valid until the call returns (the system MPI buffers it); the
/// receive-side slice must stay valid until the op completes.
int start_isend_packed(const void *bytes, std::size_t nbytes, Method method,
                       std::size_t chunk_bytes, int dest, int tag,
                       MPI_Comm comm, const interpose::MpiTable &next,
                       MPI_Request *request);

/// Receive-side mirror: the wire is matched lazily at Wait/Test.
/// Method::Device lands the leg directly in the slice; Method::Staged
/// rides a pinned lease plus an H2D copy batched by Waitall's pass-2
/// sync; Method::Pipelined carries a ChunkedRecv landing its legs in the
/// slice (no stream, lease or sync), driven to completion by Wait and
/// consumed leg by leg by Test like any pipelined receive.
int start_irecv_packed(void *bytes, std::size_t nbytes, Method method,
                       int source, int tag, MPI_Comm comm,
                       const interpose::MpiTable &next, MPI_Request *request);

// --- persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start) --------
//
// A persistent request freezes at init time everything the per-send hot
// path normally re-derives: the packer (held by shared_ptr, so a
// MPI_Type_free'd datatype's engine stays alive until the request is
// freed — the graveyard pin), the PerfModel method choice (the exact,
// uncached TransferKind::Persistent decision), the staging/wire leases
// (pinned for the request's lifetime), and the pack/unpack launch sequence
// (recorded as vcuda graphs). MPI_Start then posts the request as
// MPI_Isend or arms it as MPI_Irecv would, on the same path, with one
// difference: the program it claims is its own frozen one, not one from
// the thread's table. Sender-side it sends from that program exactly as a
// repeated Isend does (a pipelined one replays one graph per leg), with
// the same buffered-send deadlock discipline, self delivery and send
// batching; receiver-side the wire is matched lazily at Wait/Test, which
// replay the unpack graph. Every completion call works unchanged on
// persistent tickets, which re-arm (active -> inactive) instead of
// retiring. Completion calls on an INACTIVE persistent ticket complete
// immediately with an empty status.

/// Create a frozen persistent send. `choice` is the model's Persistent
/// decision (or the forced mode); Method::Pipelined
/// records one pack graph per wire leg (see record_pipelined_send).
int send_init(std::shared_ptr<const Packer> packer, TransferChoice choice,
              const void *buf, int count, int dest, int tag, MPI_Comm comm,
              const interpose::MpiTable &next, MPI_Request *request);

/// Create a frozen persistent receive. A Pipelined choice (only selected
/// above the wire-chunk limit) re-arms a ChunkedRecv per Start instead of
/// replaying a graph: its leg sizes follow the sender's first leg, which
/// cannot be frozen at init time.
int recv_init(std::shared_ptr<const Packer> packer, TransferChoice choice,
              void *buf, int count, int source, int tag, MPI_Comm comm,
              const interpose::MpiTable &next, MPI_Request *request);

/// Arm a persistent request (near-O(1) replay). Precondition:
/// owns(*request) and the request is inactive (double-Start is
/// MPI_ERR_ARG). When a tuned model landed since the request froze
/// (tune::refresh_generation() moved past the generation the request
/// froze under), the arm first re-runs persistent_choice (tempi.hpp), the
/// gate Send_init/Recv_init used, and re-records the program if the plan
/// changed: at most one re-search per generation bump, and a single
/// relaxed generation load on the unchanged hot path, so Start never
/// blocks on model queries in steady state. A re-search that would
/// forward keeps the frozen plan (a live persistent request is never
/// demoted to the system path mid-lifetime), and so does a re-record that
/// fails; the Start proceeds on it. A send's Start that joins a `burst`
/// may defer (see "Send batching") as an Isend does. A Start that fails
/// leaves the request inactive.
int start(MPI_Request *request, const interpose::MpiTable &next,
          bool burst = false);

/// Arm a mixed array: TEMPI persistent requests replay, system persistent
/// requests forward to next.Start. Every arming after the first joins a
/// burst, and so does the first when `burst` is set.
int startall(int count, MPI_Request *requests,
             const interpose::MpiTable &next, bool burst = false);

/// What kind of MPI call flushed a thread's deferred sends (the
/// tempi.send_batch.flush.<reason> counters).
enum class FlushReason : std::uint8_t {
  Completion,        ///< Wait*, Test*, Request_free
  Blocking,          ///< blocking point-to-point, collectives, Finalize
  NondeferrableSend, ///< a send of the thread that reaches the wire now
  Passthrough,       ///< an entry TEMPI does not implement (its forwarder)
  Drain,             ///< uninstall()
};

/// Flush the calling thread's deferred sends (see "Send batching"): pack
/// them in one fused kernel, fence and post their wires in post order. One
/// thread_local load when nothing is pending.
void flush_sends(FlushReason why, const interpose::MpiTable &next);

/// Release an owned ticket, persistent or not (freeing an Isend/Irecv
/// ticket is legal MPI): null the handle, unpin the op's leases and
/// destroy its graphs. Never blocks: an active send's wire leg is buffered
/// and reclaimed instantly, and an active receive is discarded unless it
/// already consumed pipelined legs, which it finishes without blocking.
int request_free(MPI_Request *request, const interpose::MpiTable &next);

// --- receives forwarded to the system MPI -----------------------------------
//
// Self delivery must not take a message that a posted system-path receive
// could match first. tempi.cpp reports every receive it forwards, and every
// forwarded request it completes or frees; only receives whose source may
// be the caller's own rank are kept. Completions through the mixed-array
// calls are noted here.

/// A receive forwarded to next.Irecv (`persistent` false) or to
/// next.Recv_init (true: kept, started or not, until it is freed).
void note_forwarded_recv(MPI_Request request, int source, int tag,
                         MPI_Comm comm, bool persistent,
                         const interpose::MpiTable &next);

/// A forwarded request completed (`freed` false) or was freed: a one-shot
/// receive is forgotten, a persistent one only when freed.
void note_forwarded_done(MPI_Request request, bool freed);

/// Number of live persistent requests (tests, the uninstall leak check).
std::size_t persistent_open();

/// True if `request` is a live pool ticket (a TEMPI-owned op, persistent
/// or not).
bool owns(MPI_Request request);

/// Drive `*request` to completion (blocking), fill `status`, release the
/// op and null the handle. Precondition: owns(*request).
int wait(MPI_Request *request, MPI_Status *status,
         const interpose::MpiTable &next);

/// Non-blocking progress: complete the op if it can finish now, else leave
/// it in flight with *flag = 0. Precondition: owns(*request).
int test(MPI_Request *request, int *flag, MPI_Status *status,
         const interpose::MpiTable &next);

/// Batch completion for Waitall over a mixed TEMPI/system request array:
/// matches rendezvous receives first where no earlier entry could take
/// their message, fuses the unpacks of eligible receives (and the
/// transcodes of self deliveries into them) into as few kernel launches or
/// recorded-batch replays as the rendezvous flush rule allows (see the
/// header comment)
/// and synchronizes or fences each stream holding work once. On an error,
/// every receive whose wire already landed still gets its unpack before any
/// op retires.
int waitall(int count, MPI_Request *requests, MPI_Status *statuses,
            const interpose::MpiTable &next);

/// Waitany over a mixed array; polls TEMPI and system requests fairly.
int waitany(int count, MPI_Request *requests, int *index, MPI_Status *status,
            const interpose::MpiTable &next);

// The remaining MPI completion calls, over the same mixed TEMPI/system
// arrays. Semantics note shared with sysmpi: entries are tested (and,
// when complete, retired — persistent tickets re-arm instead) one by
// one, so statuses land per entry as completions happen. Inactive
// persistent tickets follow MPI: Wait/Test treat them as immediately
// complete with an empty status, Testall counts them complete without
// touching their status slot (a status written by the poll that actually
// completed the entry survives later flag=0 polls), and the *some/*any
// calls IGNORE them like null slots (reporting them as completions would
// livelock drain loops once a persistent request completed and went
// inactive).

/// Block until at least one active request completes; returns every
/// completion the successful poll sweep found (outcount = MPI_UNDEFINED
/// when no entry is active).
int waitsome(int incount, MPI_Request *requests, int *outcount, int *indices,
             MPI_Status *statuses, const interpose::MpiTable &next);

/// Non-blocking: *flag = 1 once every entry has completed.
int testall(int count, MPI_Request *requests, int *flag,
            MPI_Status *statuses, const interpose::MpiTable &next);

/// Non-blocking: complete at most one entry (*index = MPI_UNDEFINED and
/// *flag = 1 when nothing is active).
int testany(int count, MPI_Request *requests, int *index, int *flag,
            MPI_Status *status, const interpose::MpiTable &next);

/// Non-blocking Waitsome: one sweep, no blocking.
int testsome(int incount, MPI_Request *requests, int *outcount, int *indices,
             MPI_Status *statuses, const interpose::MpiTable &next);

/// Number of TEMPI-owned one-shot operations currently in flight (tests,
/// uninstall-time drain check); persistent requests count in
/// persistent_open() instead.
std::size_t in_flight();

/// Uninstall-time drain (see tempi::uninstall contract in tempi.hpp):
/// completed sends are reclaimed silently; operations that cannot finish
/// without the application's cooperation are dropped with a loud per-op
/// log_error. Returns the number of ops that had to be dropped.
std::size_t drain(const interpose::MpiTable &next);

// --- lock-striped pool layout (thread-multiple hot path) ---------------------
//
// The pool is N lock stripes (shards); a ticket hashes to exactly one, so
// concurrent callers on one rank serialize only when their requests share
// a stripe. No engine path ever holds two shard locks at once, so the
// layout is deadlock-free by construction even for Waitall/Waitsome over
// arrays spanning shards. One-shot and persistent ops share the shards'
// maps. Persistent Start/Wait replay consults a per-thread memo of
// persistent tickets, validated by a generation counter, and is lock-free
// in steady state (the memo invalidates whenever any persistent op is
// destroyed).

/// Rebuild the pool with `n` shards (clamped to [1, 256], rounded up to a
/// power of two). Only legal while the pool is idle — no in-flight ops, no
/// open persistent requests — because tickets are keyed by the current
/// hash; returns false (and changes nothing) otherwise. tempi::install()
/// calls this with TEMPI_SHARDS; 1 restores the pre-shard single-lock
/// layout (bisection kill switch).
bool configure_shards(std::size_t n);

/// Current number of lock stripes.
std::size_t shard_count();

/// Aggregate acquire/contention counts over every shard lock (exported as
/// the tempi.lock.pool.* gauges).
support::LockStats pool_lock_stats();
void reset_pool_lock_stats();

} // namespace tempi::async
