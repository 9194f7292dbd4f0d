#include "tempi/async.hpp"

#include "support/contended_mutex.hpp"
#include "support/log.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/netmodel.hpp"
#include "tempi/replay.hpp"
#include "tempi/tempi.hpp"
#include "tempi/topology.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

namespace tempi::async {

namespace {

/// Virtual cost of one progress-engine sweep while polling (mirrors the
/// system MPI's Waitany poll loop).
constexpr vcuda::VirtualNs kPollSweepNs = 100;

/// Low ticket bits that carry the posting thread's home stripe (see
/// shard_for). AsyncOp is aligned so its address leaves them zero.
constexpr unsigned kTicketTagBits = 4;
constexpr std::uintptr_t kTicketTagMask =
    (std::uintptr_t{1} << kTicketTagBits) - 1;

} // namespace

struct AsyncOp;

/// The receives one thread posted that a self-addressed send of the same
/// thread could match, in posting order (see deliver_self). Shared: a
/// receive posted on one thread may complete, or be freed, on another,
/// which takes it out under the lock.
struct Inbox {
  std::mutex mutex;
  std::vector<AsyncOp *> ops;
};

/// The sends one thread deferred (see "Send batching" in async.hpp), in
/// post order, waiting for the thread's next MPI call to pack them in one
/// flush. Shared: uninstall's drain flushes it from another thread, under
/// the lock (only one thread of a rank that defers enters MPI, see
/// defers). Its vector keeps its capacity from one burst to the next.
struct SendBurst {
  std::mutex mutex;
  std::vector<AsyncOp *> ops;
};

/// A recorded program an op runs from: a pack program (sender) or an
/// unpack program (receiver) that a thread's program table recorded (see
/// table_program), or a persistent op's own frozen program, which the
/// table serves under the same key. `in_flight` is set while one op runs
/// from the program's pinned wire lease (see claim), so an overlapping
/// call of the same key never overwrites it: that call runs live instead.
/// `released` is set when the persistent request that owns the program
/// lets it go (it is freed or re-frozen): the program's table pins lapse
/// then, even while a recorded fused batch still holds it.
struct RecordedProgram {
  PersistentProgram prog;
  std::atomic<bool> in_flight{false};
  std::atomic<bool> released{false};
};

/// A self delivery decided when its send was posted (see deliver_self),
/// shared by the send and the receive it lands in: one transcode that
/// copies the send's objects straight into the receive's user buffer. It
/// runs once, in the first completion call that reaches either request (as
/// the pair's recorded one-item batch, `transcode`), or as a segment of the
/// Waitall flush that completes the receive (`item`). `transcode` is null
/// once it ran, or once the receive was dropped; `send` is valid while it
/// is set, because a send runs or drops its delivery before it is
/// destroyed.
struct Delivery {
  std::mutex mutex;
  std::shared_ptr<RecordedProgram> transcode;
  UnpackItem item;
  const AsyncOp *send = nullptr;
  vcuda::VirtualNs done_at = 0; ///< when the transcode completed
};

/// One TEMPI-owned request. Created and driven by the owning rank thread;
/// only the pool map itself is shared. A one-shot op (Isend, Irecv and
/// their pre-packed collective variants) leaves the pool when it completes.
/// A persistent op (Send_init/Recv_init) re-arms instead: it rests in the
/// pool in the Complete phase until Start, and only request_free
/// releases it. A blocking MPI_Send/MPI_Recv runs the same op on its
/// caller's stack and never enters the pool.
struct alignas(kTicketTagMask + 1) AsyncOp {
  enum class Kind { Send, Recv };
  Kind kind = Kind::Send;
  OpPhase phase = OpPhase::PackIssued;
  Method method = Method::Device;
  bool persistent = false;
  /// The API call the op's trace spans are labelled with.
  trace::OpKind label = trace::OpKind::None;

  // Unset only for pre-packed ops. The packer rides as a raw pointer (no
  // per-op refcount bump): MPI_Type_free between Isend and Wait cannot
  // invalidate it because tempi.cpp retires freed packers to a graveyard
  // drained only at Finalize/uninstall, and uninstall drains this pool
  // first.
  const Packer *packer = nullptr;

  void *recv_buf = nullptr;       ///< recv only: the user's destination object
  const void *send_buf = nullptr; ///< send only: the source object
  int count = 0;
  std::size_t chunk_bytes = 0; ///< Pipelined send: the wire-leg target
  int peer = MPI_ANY_SOURCE;
  int tag = MPI_ANY_TAG;
  MPI_Comm comm = nullptr;

  /// Intermediates, pinned here until completion (not lexical scope).
  PackPipeline pipe;
  vcuda::StreamHandle stream = nullptr;

  /// Pipelined receive only: the per-chunk state machine (Wait/Test drive
  /// its legs; its chunk leases live inside it until the op retires or,
  /// persistent, re-arms). A pre-packed one lands its legs in `recv_buf`.
  std::unique_ptr<ChunkedRecv> chunked;

  /// Collectives-engine legs: the payload is pre-packed contiguous bytes,
  /// so completion moves wire bytes without pack/unpack kernels (see
  /// start_isend_packed/start_irecv_packed).
  bool packed = false;

  MPI_Request inner = MPI_REQUEST_NULL; ///< send: the system transfer
  MPI_Status wire_status{};             ///< recv: status of the wire leg

  /// Receive only: the inbox of the posting thread while the op is listed
  /// there, so a self-addressed send of that thread may deliver into it.
  std::shared_ptr<Inbox> inbox;
  /// Receive only: a self-addressed send delivers its message into the
  /// op's objects (see Delivery) and sets `wire_status`; the op needs no
  /// wire and no unpack. Set under the inbox lock, so it is final once the
  /// op has left its inbox.
  std::atomic<bool> delivered{false};
  /// The self delivery this send made, or the one made into this
  /// receive, until the op has run or dropped its transcode.
  std::shared_ptr<Delivery> delivery;

  /// Send only: the list of the thread that last deferred this send. While
  /// `deferred` is set (under the list's lock) the send waits in it, packed
  /// and on the wire only once the list is flushed.
  std::shared_ptr<SendBurst> burst;
  bool deferred = false;
  /// The error of the flush that failed to pack or post this send; its
  /// completion reports it.
  int error = MPI_SUCCESS;

  /// The recorded program this op sends from or receives into. A
  /// persistent op owns its frozen monolithic program; any other op holds
  /// one only while it has claimed it.
  std::shared_ptr<RecordedProgram> program;
  /// This op holds `program`'s in-flight mark (see claim): it runs from
  /// the program until it retires. A persistent op claims its own program
  /// per arming and runs live when a borrower already holds it.
  bool claimed = false;

  // Persistent only. The packer is co-owned here — the graveyard pin — so
  // MPI_Type_free between init and free never invalidates the recorded
  // programs' engine (`packer` points into it).
  std::shared_ptr<const Packer> packer_pin;
  /// tune::refresh_generation() snapshot the plan was frozen against;
  /// Start re-chooses lazily when the live value moves.
  std::uint64_t frozen_gen = 0;
  std::unique_ptr<PipelinedSendProgram> pipeprog; ///< pipelined send
  std::uint64_t leg_graph_count = 0; ///< pipelined send: graphs per replay

  /// An op at its first phase: a send about to pack, a receive waiting
  /// for its wire. Pre-packed ops pass no packer.
  AsyncOp(Kind kind, Method method, const Packer *packer, int count,
          int peer, int tag, MPI_Comm comm, trace::OpKind label)
      : kind(kind),
        phase(kind == Kind::Send ? OpPhase::PackIssued
                                 : OpPhase::WirePending),
        method(method), label(label), packer(packer), count(count),
        peer(peer), tag(tag), comm(comm) {}
  AsyncOp(const AsyncOp &) = delete;
  AsyncOp &operator=(const AsyncOp &) = delete;
  ~AsyncOp() {
    leave_burst();
    leave_inbox();
    drop_delivery();
    release_claim();
    if (persistent && program) {
      program->released.store(true, std::memory_order_release);
    }
  }

  /// Take a still-deferred send out of its thread's list.
  void leave_burst() {
    if (burst) {
      const std::lock_guard<std::mutex> lock(burst->mutex);
      if (deferred) {
        std::erase(burst->ops, this);
        deferred = false;
      }
    }
  }

  /// Take the op out of its inbox: from now on no send delivers into it.
  void leave_inbox() {
    if (inbox) {
      const std::lock_guard<std::mutex> lock(inbox->mutex);
      std::erase(inbox->ops, this);
    }
    inbox.reset();
  }

  /// Forget `delivery`; a transcode that never ran never will. A receive
  /// drops it when it is discarded, as the system MPI discards a pending
  /// receive; uninstall drops a send's, since its stream may be gone.
  void drop_delivery() {
    if (delivery) {
      const std::lock_guard<std::mutex> lock(delivery->mutex);
      delivery->transcode.reset();
    }
    delivery.reset();
  }

  /// Give `program`'s in-flight mark back, if this op holds it.
  void release_claim() {
    if (claimed) {
      program->in_flight.store(false, std::memory_order_release);
      claimed = false;
    }
  }
};

namespace {

/// One lock stripe of the request pool. A ticket hashes to exactly one
/// shard, so per-request traffic serializes only with requests sharing its
/// stripe, never with the whole rank. No code path ever holds two shard
/// locks at once — every multi-shard walk (drain, in_flight, owns, the
/// stats sums) takes shards one at a time in ascending index order — so
/// lock ordering is trivially deadlock-free, including Waitall/Waitsome
/// over arrays whose requests span shards.
struct PoolShard {
  support::ContendedMutex mutex;
  std::unordered_map<MPI_Request, std::unique_ptr<AsyncOp>> ops;
};

/// What a thread's program table does for calls of one API.
struct ReplayCounters {
  trace::Counter replays;  ///< calls that ran from a recorded program
  trace::Counter captures; ///< programs recorded by the table
  trace::Counter busy;     ///< calls run live: their program was claimed
  ReplayCounters(const char *replays_name, const char *captures_name,
                 const char *busy_name)
      : replays(replays_name), captures(captures_name), busy(busy_name) {}
};

constexpr std::size_t kDefaultShards = 16;
constexpr std::size_t kMaxShards = 256;

/// Why a self-addressed monolithic send took the system route instead of
/// a self delivery (see deliver_self).
enum class Decline : std::uint8_t {
  NoReceive,     ///< no receive of its thread could match the message
  Wildcard,      ///< the first that could is MPI_ANY_SOURCE or MPI_ANY_TAG
  Pipelined,     ///< the first that could is pipelined
  Truncate,      ///< the message is larger than that receive
  Queued,        ///< the system MPI holds an earlier message on the tag
  Forwarded,     ///< a receive forwarded to the system MPI could match
  BlockList,     ///< either side's type has no canonical strided form
  FirstSighting, ///< the pair's transcode is not recorded (yet)
};
constexpr std::size_t kDeclineRules =
    static_cast<std::size_t>(Decline::FirstSighting) + 1;
constexpr std::size_t kFlushReasons =
    static_cast<std::size_t>(FlushReason::Drain) + 1;

struct Pool {
  /// Rebuilt only by configure_shards() on an idle pool (the install-time
  /// TEMPI_SHARDS read); steady-state traffic treats vector + mask as
  /// immutable.
  std::vector<std::unique_ptr<PoolShard>> shards;
  std::size_t mask = 0;

  /// Bumped whenever a persistent op may have been destroyed (extract,
  /// drain, reconfiguration). Validates the per-thread persistent memo
  /// that keeps steady-state MPI_Start/Wait replay lock-free.
  std::atomic<std::uint64_t> persistent_gen{1};

  trace::Counter isends{"tempi.engine.isends"};
  trace::Counter irecvs{"tempi.engine.irecvs"};
  trace::Counter completions{"tempi.engine.completions"};
  trace::Counter batched_syncs{"tempi.engine.batched_syncs"};
  trace::Counter fused_unpack_launches{"tempi.engine.fused_unpack_launches"};
  trace::Counter fused_unpacks{"tempi.engine.fused_unpacks"};
  /// Waitall flushes replayed from a recorded fused batch, batches
  /// recorded, and entries the threads' batch tables replaced or dropped.
  trace::Counter fused_unpack_replays{"tempi.engine.fused_unpack_replays"};
  trace::Counter fused_unpack_captures{"tempi.engine.fused_unpack_captures"};
  trace::Counter fused_unpack_evictions{
      "tempi.engine.fused_unpack_evictions"};

  /// Recorded-program traffic per API call: MPI_Isend, MPI_Irecv, MPI_Send
  /// and MPI_Recv. Persistent Starts count under p_replays instead.
  ReplayCounters isend_programs{"tempi.isend.replays", "tempi.isend.captures",
                                "tempi.isend.busy"};
  ReplayCounters irecv_programs{"tempi.irecv.replays", "tempi.irecv.captures",
                                "tempi.irecv.busy"};
  ReplayCounters send_programs{"tempi.send.replays", "tempi.send.captures",
                               "tempi.send.busy"};
  ReplayCounters recv_programs{"tempi.recv.replays", "tempi.recv.captures",
                               "tempi.recv.busy"};
  /// Entries the threads' program tables replaced or dropped (send and
  /// receive programs alike; the name predates receive programs).
  trace::Counter program_evictions{"tempi.isend.evictions"};

  /// Self-addressed monolithic sends delivered straight into a receive
  /// their thread posted, and those that took the system route instead,
  /// in total and by the rule that declined them (indexed by Decline).
  trace::Counter self_deliveries{"tempi.p2p.self_deliveries"};
  trace::Counter self_declines{"tempi.p2p.self_declines"};
  std::array<trace::Counter, kDeclineRules> self_declines_by_rule{
      trace::Counter{"tempi.p2p.self_declines.no_receive"},
      trace::Counter{"tempi.p2p.self_declines.wildcard"},
      trace::Counter{"tempi.p2p.self_declines.pipelined"},
      trace::Counter{"tempi.p2p.self_declines.truncate"},
      trace::Counter{"tempi.p2p.self_declines.queued"},
      trace::Counter{"tempi.p2p.self_declines.forwarded"},
      trace::Counter{"tempi.p2p.self_declines.blocklist"},
      trace::Counter{"tempi.p2p.self_declines.first_sighting"}};

  /// Sends deferred to their thread's next MPI call (Isends and persistent
  /// Starts, see "Send batching" in async.hpp), the flushes that packed and
  /// posted them, send batches recorded and replayed, and the flushes by
  /// the kind of call that ran them (indexed by FlushReason).
  trace::Counter sends_deferred{"tempi.isend.deferred"};
  trace::Counter send_flushes{"tempi.send_batch.flushes"};
  trace::Counter send_batch_captures{"tempi.send_batch.captures"};
  trace::Counter send_batch_replays{"tempi.send_batch.replays"};
  std::array<trace::Counter, kFlushReasons> send_flushes_by_reason{
      trace::Counter{"tempi.send_batch.flush.completion"},
      trace::Counter{"tempi.send_batch.flush.blocking"},
      trace::Counter{"tempi.send_batch.flush.nondeferrable_send"},
      trace::Counter{"tempi.send_batch.flush.passthrough"},
      trace::Counter{"tempi.send_batch.flush.drain"}};

  trace::Counter p_inits{"tempi.persistent.inits"};
  trace::Counter p_starts{"tempi.persistent.starts"};
  trace::Counter p_replays{"tempi.persistent.replays"};
  trace::Counter p_graph_launches{"tempi.persistent.graph_launches"};

  Pool() { resize(kDefaultShards); }

  void resize(std::size_t n) {
    shards.clear();
    shards.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<PoolShard>());
    }
    mask = n - 1;
  }
};

Pool &pool() {
  static Pool p;
  return p;
}

/// Build the pool at static initialisation, so its counters are in the
/// registry before the first request.
[[maybe_unused]] const Pool &g_pool_at_init = pool();

/// The posting thread's home stripe, assigned round-robin at its first
/// post.
std::uintptr_t home_stripe() {
  static std::atomic<std::uintptr_t> next{0};
  thread_local const std::uintptr_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) & kTicketTagMask;
  return stripe;
}

/// The shard a ticket lives in, derived from the ticket value alone. The
/// low shard-index bits are the posting thread's home stripe, so with up
/// to 2^kTicketTagBits shards every request a thread posts stays in that
/// thread's shard and concurrent threads do not pass shard locks (and the
/// cache lines under them) back and forth; larger pools spread each
/// stripe's requests over the remaining bits with a multiplicative hash
/// of the op address.
PoolShard &shard_for(Pool &p, MPI_Request ticket) {
  const auto bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(ticket));
  const auto spread = static_cast<std::size_t>(
      ((bits >> kTicketTagBits) * 0x9e3779b97f4a7c15ULL) >> 32);
  const std::size_t stripe = bits & kTicketTagMask;
  return *p.shards[((spread << kTicketTagBits) | stripe) & p.mask];
}

/// The opaque handle handed to the application is the op's own address
/// with the posting thread's home stripe in its (alignment-zero) low bits.
/// It is never dereferenced, only used as a pool key, and cannot collide
/// with another object's address because it points inside this op.
MPI_Request insert(std::unique_ptr<AsyncOp> op) {
  Pool &p = pool();
  const auto ticket = reinterpret_cast<MPI_Request>(
      reinterpret_cast<std::uintptr_t>(op.get()) | home_stripe());
  PoolShard &s = shard_for(p, ticket);
  const std::lock_guard<support::ContendedMutex> lock(s.mutex);
  s.ops.emplace(ticket, std::move(op));
  return ticket;
}

/// Shard-affine re-arm memo: the last few persistent tickets this thread
/// resolved, valid while no persistent op anywhere has been destroyed
/// since (persistent_gen). A steady-state Start/Wait cycle replays through
/// the memo without touching any shard lock; the MPI contract that freeing
/// a request never races concurrent calls on the same request is what
/// already made the unlocked raw-pointer return here safe. One-shot ops
/// are never memoized: they die on completion without a generation bump.
struct PersistentMemo {
  std::uint64_t gen = 0;
  std::array<std::pair<MPI_Request, AsyncOp *>, 8> slots{};
  std::size_t next = 0;
};
thread_local PersistentMemo t_persistent_memo;

/// The op behind a ticket, or nullptr for any other request.
AsyncOp *find(MPI_Request ticket) {
  Pool &p = pool();
  PersistentMemo &memo = t_persistent_memo;
  const std::uint64_t gen = p.persistent_gen.load(std::memory_order_acquire);
  if (memo.gen == gen) {
    for (const auto &[t, op] : memo.slots) {
      if (t == ticket) {
        return op;
      }
    }
  } else {
    memo.slots.fill({MPI_REQUEST_NULL, nullptr});
    memo.next = 0;
    memo.gen = gen;
  }
  PoolShard &s = shard_for(p, ticket);
  AsyncOp *op = nullptr;
  {
    const std::lock_guard<support::ContendedMutex> lock(s.mutex);
    const auto it = s.ops.find(ticket);
    op = it == s.ops.end() ? nullptr : it->second.get();
  }
  if (op != nullptr && op->persistent) {
    memo.slots[memo.next] = {ticket, op};
    memo.next = (memo.next + 1) % memo.slots.size();
  }
  return op;
}

/// Remove the op from the pool; the unique_ptr keeps it alive until the
/// caller finishes with it (buffers return to the cache on destruction).
std::unique_ptr<AsyncOp> extract(MPI_Request ticket) {
  Pool &p = pool();
  PoolShard &s = shard_for(p, ticket);
  const std::lock_guard<support::ContendedMutex> lock(s.mutex);
  const auto it = s.ops.find(ticket);
  if (it == s.ops.end()) {
    return nullptr;
  }
  std::unique_ptr<AsyncOp> op = std::move(it->second);
  s.ops.erase(it);
  if (op->persistent) {
    // Invalidate every thread's memo before the op can die.
    p.persistent_gen.fetch_add(1, std::memory_order_release);
  }
  return op;
}

int wire_count(const AsyncOp &op) { return op.pipe.wire_count(); }

/// Publish what the wire delivered: a message shorter than the receive
/// reports its own length, as the system path does.
void fill_recv_status(const AsyncOp &op, MPI_Status *status) {
  if (status != MPI_STATUS_IGNORE) {
    *status = op.wire_status;
  }
}

/// Whole objects a monolithic receive's wire delivered: fewer than posted
/// when the message was shorter. Only those are unpacked, as the system
/// path does; the rest of the user buffer stays untouched.
int arrived_objects(const AsyncOp &op) {
  return static_cast<int>(
      static_cast<std::size_t>(op.wire_status.count_bytes) /
      op.packer->packed_bytes(1));
}

/// A persistent op between completion and its next Start. Only
/// persistent ops rest in the pool in the Complete phase.
bool inactive(const AsyncOp &op) {
  return op.persistent && op.phase == OpPhase::Complete;
}

/// Return a persistent op to rest after an arming: give its program's
/// in-flight mark back, or the leases a live arming took.
void disarm(AsyncOp &op) {
  op.leave_inbox();
  op.delivered.store(false, std::memory_order_relaxed);
  op.drop_delivery();
  op.release_claim();
  op.pipe.wire = CachedBuffer{};
  op.pipe.stage = CachedBuffer{};
}

/// The program-table counters of a Send, Recv, Isend or Irecv op's API
/// call.
ReplayCounters &replay_counters(trace::OpKind label) {
  Pool &p = pool();
  switch (label) {
  case trace::OpKind::Send: return p.send_programs;
  case trace::OpKind::Recv: return p.recv_programs;
  case trace::OpKind::Irecv: return p.irecv_programs;
  default: return p.isend_programs;
  }
}

/// Count one call that ran from a recorded program, with `graphs` graph
/// launches of its own (none when a recorded fused batch unpacked it, or
/// for either side of a self delivery, whose transcode runs at
/// completion).
void count_replay(const AsyncOp &op, std::uint64_t graphs = 1) {
  if (op.persistent) {
    Pool &p = pool();
    p.p_replays.add();
    p.p_graph_launches.add(graphs);
  } else {
    replay_counters(op.label).replays.add();
  }
}

/// Count a receive a self delivery completed: one that claimed a program
/// replays, as when that program unpacked it, but a recorded transcode
/// wrote its objects, with no graph of its own.
void count_delivered(const AsyncOp &op) {
  if (op.claimed) {
    count_replay(op, 0);
  }
}

/// Drain whatever stream work an op may still have enqueued (the chunked
/// machine owns its own streams) before its buffers return to the cache.
/// A claimed program's stream needs none: every path that replays onto it
/// also fences it.
void drain_op_streams(AsyncOp &op) {
  if (op.chunked) {
    op.chunked->synchronize();
  } else if (!op.claimed) {
    vcuda::StreamSynchronize(op.stream);
  }
}

/// Finish a completed op. A persistent op re-arms: it goes inactive and
/// its handle survives. Any other op leaves the pool, which releases its
/// pinned intermediates, and its handle is nulled; `op` dangles after.
void retire(AsyncOp &op, MPI_Request *request) {
  if (op.persistent) {
    disarm(op);
    op.phase = OpPhase::Complete;
    return;
  }
  extract(*request).reset();
  *request = MPI_REQUEST_NULL;
  pool().completions.add();
}

/// The pipeline a monolithic op's wire bytes move through: its claimed
/// program's pinned one, else its own leases.
PackPipeline &wire_pipe(AsyncOp &op) {
  return op.claimed ? op.program->prog.pipe : op.pipe;
}

/// Launch `d`'s pending transcode (its recorded one-item batch) on its
/// recorded stream, fence it, and mark the delivery done. The caller holds
/// `d.mutex`.
int launch_transcode(Delivery &d) {
  const AsyncOp &send = *d.send;
  const PersistentProgram &prog = d.transcode->prog;
  trace::ScopedSpan replay(trace::Phase::GraphReplay, send.label,
                           send.packer->packed_bytes(send.count), send.peer,
                           send.tag, static_cast<std::int8_t>(send.method));
  const vcuda::Error e = vcuda::GraphLaunch(prog.graph, prog.stream);
  if (e == vcuda::Error::Success) {
    vcuda::StreamFence(prog.stream);
  }
  d.transcode.reset();
  d.done_at = vcuda::this_thread_timeline().now();
  return e == vcuda::Error::Success ? MPI_SUCCESS : MPI_ERR_OTHER;
}

/// Run the transcode of `op`'s self delivery unless the other request
/// already did, and wait until it completed: the first completion call
/// that reaches either request copies the message.
int run_delivery(AsyncOp &op) {
  if (!op.delivery) {
    return MPI_SUCCESS;
  }
  Delivery &d = *op.delivery;
  int rc = MPI_SUCCESS;
  vcuda::VirtualNs done = 0;
  {
    const std::lock_guard<std::mutex> lock(d.mutex);
    if (d.transcode) {
      rc = launch_transcode(d);
    }
    done = d.done_at;
  }
  vcuda::this_thread_timeline().wait_until(done);
  op.delivery.reset();
  return rc;
}

/// The blocking wire leg of a monolithic packer-driven receive: the packed
/// bytes land in the op's leased wire buffer, or in its recorded
/// program's pinned one. A receive a self-addressed send delivered into
/// (final once the op left its inbox) needs no wire: its caller runs the
/// transcode instead.
int recv_wire(AsyncOp &op, const interpose::MpiTable &next) {
  op.leave_inbox();
  if (op.delivered.load(std::memory_order_acquire)) {
    return MPI_SUCCESS;
  }
  const PackPipeline &pipe = wire_pipe(op);
  trace::ScopedSpan wire(trace::Phase::Wire, op.label, pipe.bytes,
                         op.peer, op.tag, static_cast<std::int8_t>(op.method));
  return next.Recv(pipe.wire.get(), pipe.wire_count(), MPI_BYTE, op.peer,
                   op.tag, op.comm, &op.wire_status);
}

/// Replay a claimed receive program's recorded [H2D +] unpack chain with
/// one graph launch on the program's stream (UnpackPending); the caller
/// fences that stream.
int replay_unpack(AsyncOp &op) {
  const PersistentProgram &prog = op.program->prog;
  trace::ScopedSpan replay(trace::Phase::GraphReplay, op.label,
                           prog.pipe.bytes, op.peer, op.tag,
                           static_cast<std::int8_t>(op.method));
  if (vcuda::GraphLaunch(prog.graph, prog.stream) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  count_replay(op);
  op.phase = OpPhase::UnpackPending;
  return MPI_SUCCESS;
}

/// Blocking wire leg + unpack for a receive op; `sync` controls whether
/// the stream is synchronized here (Waitall defers it to batch).
int complete_recv(AsyncOp &op, const interpose::MpiTable &next, bool sync) {
  if (op.chunked) {
    // Pipelined: drive every remaining wire leg; each leg's unpack is
    // enqueued without a sync, overlapping the next leg's wire wait. Legs
    // landing in pre-packed bytes leave no stream work to drain.
    int rc = MPI_SUCCESS;
    while (!op.chunked->done() &&
           (rc = op.chunked->step(next)) == MPI_SUCCESS) {
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    op.chunked->fill_status(&op.wire_status);
    op.pipe.bytes = op.chunked->bytes_received();
    op.phase = OpPhase::UnpackPending;
    if (sync || !op.chunked->unpacks()) {
      op.chunked->synchronize();
      op.phase = OpPhase::Complete;
    }
    return MPI_SUCCESS;
  }
  if (op.packed) {
    // Pre-packed destination (collectives-engine leg): the wire bytes land
    // in place, no unpack kernels.
    if (op.method == Method::Staged) {
      int rc;
      {
        trace::ScopedSpan wire(trace::Phase::Wire, trace::OpKind::Coll,
                               op.pipe.bytes, op.peer, op.tag,
                               static_cast<std::int8_t>(op.method));
        rc = next.Recv(op.pipe.wire.get(), wire_count(op), MPI_BYTE, op.peer,
                       op.tag, op.comm, &op.wire_status);
      }
      if (rc != MPI_SUCCESS) {
        return rc;
      }
      op.pipe.bytes = static_cast<std::size_t>(op.wire_status.count_bytes);
      trace::ScopedSpan unpack(trace::Phase::Unpack, trace::OpKind::Coll,
                               op.pipe.bytes, op.peer, op.tag,
                               static_cast<std::int8_t>(op.method));
      vcuda::MemcpyAsync(op.recv_buf, op.pipe.wire.get(), op.pipe.bytes,
                         vcuda::MemcpyKind::HostToDevice, op.stream);
      op.phase = OpPhase::UnpackPending;
      if (sync) {
        vcuda::StreamSynchronize(op.stream);
        op.phase = OpPhase::Complete;
      }
      return MPI_SUCCESS;
    }
    int rc;
    {
      trace::ScopedSpan wire(trace::Phase::Wire, trace::OpKind::Coll,
                             op.pipe.bytes, op.peer, op.tag,
                             static_cast<std::int8_t>(op.method));
      rc = next.Recv(op.recv_buf, wire_count(op), MPI_BYTE, op.peer, op.tag,
                     op.comm, &op.wire_status);
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    op.pipe.bytes = static_cast<std::size_t>(op.wire_status.count_bytes);
    op.phase = OpPhase::Complete; // direct landing: nothing left to drain
    return MPI_SUCCESS;
  }
  if (const int rc = recv_wire(op, next); rc != MPI_SUCCESS) {
    return rc;
  }
  if (op.delivered.load(std::memory_order_acquire)) {
    // The delivery's transcode writes the objects: nothing to unpack.
    const int rc = run_delivery(op);
    if (rc == MPI_SUCCESS) {
      count_delivered(op);
      op.phase = OpPhase::Complete;
    }
    return rc;
  }
  const int objects = arrived_objects(op);
  if (op.claimed && objects == op.count) {
    // A recorded receive program: a pre-armed fence stands in for the
    // sync. The graph unpacks every posted object, so only a full message
    // replays.
    if (const int rc = replay_unpack(op); rc != MPI_SUCCESS) {
      return rc;
    }
    if (sync) {
      vcuda::StreamFence(op.stream);
      op.phase = OpPhase::Complete;
    }
    return MPI_SUCCESS;
  }
  if (objects == 0) {
    op.phase = OpPhase::Complete; // an empty message: nothing to unpack
    return MPI_SUCCESS;
  }
  const std::size_t bytes = op.packer->packed_bytes(objects);
  trace::ScopedSpan unpack(trace::Phase::Unpack, op.label, bytes, op.peer,
                           op.tag, static_cast<std::int8_t>(op.method));
  // Tuner harvest: only the synchronous completion path is a clean
  // launch+sync sample (deferred batched syncs measure elsewhere). A
  // block-list packer's zero block size keys no cell, so it observes
  // nothing.
  tune::ScopedObservation obs(
      op.method == Method::OneShot ? tune::Axis::OneshotUnpack
                                   : tune::Axis::DeviceUnpack,
      static_cast<std::size_t>(op.packer->wire_block_bytes()), bytes,
      sync && op.method != Method::Staged);
  // Enqueue the unpack legs without synchronizing (WirePending ->
  // UnpackPending). A short message into a claimed program unpacks from
  // the program's pinned lease.
  const int urc = start_unpack(*op.packer, op.method, op.recv_buf, objects,
                               wire_pipe(op), op.stream);
  if (urc != MPI_SUCCESS) {
    obs.disarm();
    return urc;
  }
  op.phase = OpPhase::UnpackPending;
  if (sync) {
    vcuda::StreamSynchronize(op.stream);
    op.phase = OpPhase::Complete;
  }
  return MPI_SUCCESS;
}

// --- deferred sends ---------------------------------------------------------
//
// See "Send batching" in async.hpp: a send that joins a burst waits in its
// thread's list, and the thread's next MPI call packs every waiting send in
// one fused kernel and posts their wires in post order (flush_list).

/// The calling thread's list of deferred sends, allocated at its first
/// deferral; a deferred send keeps it alive past the thread's exit.
thread_local std::shared_ptr<SendBurst> t_burst;
/// Set when the thread deferred a send since its own last flush: the one
/// load an MPI call pays when nothing is pending.
thread_local bool t_sends_pending = false;

/// An op whose pack or unpack can join a fused batch (Waitall's unpacks, a
/// flush's packs): a canonical strided packer moved by one kernel (Device
/// or OneShot). Pre-packed ops carry no packer, the fused kernel reads a
/// strided packer's plan() and block() (a block-list packer has neither),
/// and pipelined ops are Method::Pipelined. Ops running from a claimed
/// program join too: their pack or unpack is the program's recorded
/// kernel.
bool fusable(const AsyncOp &op) {
  return op.packer != nullptr && op.packer->strided() &&
         (op.method == Method::Device || op.method == Method::OneShot);
}

void flush_list(SendBurst &burst, FlushReason why,
                const interpose::MpiTable &next);

/// Put a send on the wire before its completion goes on: if it still waits
/// in its list, flush that list under its lock.
void settle(AsyncOp &op, const interpose::MpiTable &next) {
  if (op.burst) {
    const std::lock_guard<std::mutex> lock(op.burst->mutex);
    if (op.deferred) {
      flush_list(*op.burst, FlushReason::Completion, next);
    }
  }
}

/// Complete a send: post it if it was deferred, report the error of a
/// flush that failed it, run its self delivery's transcode if no
/// completion call ran it yet, or reclaim the system request backing its
/// transfer.
int complete_send(AsyncOp &op, const interpose::MpiTable &next) {
  settle(op, next);
  int rc = std::exchange(op.error, MPI_SUCCESS);
  if (rc == MPI_SUCCESS) {
    rc = run_delivery(op);
  }
  if (rc == MPI_SUCCESS && op.inner != MPI_REQUEST_NULL) {
    rc = next.Wait(&op.inner, MPI_STATUS_IGNORE);
  }
  if (rc == MPI_SUCCESS) {
    op.phase = OpPhase::Complete;
  }
  return rc;
}

/// Replay a claimed send program's pack graph into the program's pinned
/// wire lease on `stream` and fence it: the wire must not depart before
/// the pack completes.
int replay_pack(AsyncOp &op, vcuda::StreamHandle stream) {
  const PersistentProgram &prog = op.program->prog;
  trace::ScopedSpan replay(trace::Phase::GraphReplay, op.label,
                           prog.pipe.bytes, op.peer, op.tag,
                           static_cast<std::int8_t>(op.method));
  if (vcuda::GraphLaunch(prog.graph, stream) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  count_replay(op);
  vcuda::StreamFence(stream);
  return MPI_SUCCESS;
}

/// Hand a send packed into its claimed program's wire lease to the system
/// MPI_Isend.
int post_wire(AsyncOp &op, const interpose::MpiTable &next) {
  const PackPipeline &pipe = op.program->prog.pipe;
  trace::ScopedSpan wire(trace::Phase::Wire, op.label, pipe.bytes, op.peer,
                         op.tag, static_cast<std::int8_t>(op.method));
  return next.Isend(pipe.wire.get(), pipe.wire_count(), MPI_BYTE, op.peer,
                    op.tag, op.comm, &op.inner);
}

// --- recorded programs for repeated calls -----------------------------------
//
// The thread's program table (see "Recorded programs" in async.hpp): its
// send programs serve MPI_Send and MPI_Isend, which post them as MPI_Start
// posts its own (post_send); its receive programs serve MPI_Recv and
// MPI_Irecv; a persistent request's own program is pinned under its key,
// so these calls borrow it while the request rests.

/// What makes two monolithic calls the same work. The envelope (peer, tag,
/// comm) is not part of the program, so it is not part of the key. A send
/// key that also names a receive's layout (`into_*`) names the transcode
/// that copies the send straight into that receive's objects (see
/// deliver_self).
struct ProgramKey {
  const Packer *packer = nullptr;
  const void *buf = nullptr;
  int count = 0;
  Method method = Method::Device;
  AsyncOp::Kind kind = AsyncOp::Kind::Send; ///< a pack or an unpack program
  const Packer *into_packer = nullptr;
  const void *into_buf = nullptr;
  bool operator==(const ProgramKey &) const = default;
  [[nodiscard]] std::uint64_t hash() const {
    return replay::mix(
        {replay::bits(packer), replay::bits(buf),
         (static_cast<std::uint64_t>(static_cast<unsigned>(count)) << 3) |
             (static_cast<std::uint64_t>(method) << 1) |
             static_cast<std::uint64_t>(kind),
         replay::bits(into_packer), replay::bits(into_buf)});
  }
};

/// The table's weak reference to a persistent request's frozen program. It
/// lapses when the request lets the program go, even while a recorded
/// fused batch still holds the program.
struct ProgramPin {
  std::weak_ptr<RecordedProgram> program;
  [[nodiscard]] std::shared_ptr<RecordedProgram> lock() const {
    std::shared_ptr<RecordedProgram> p = program.lock();
    return p && !p->released.load(std::memory_order_acquire) ? p : nullptr;
  }
  [[nodiscard]] bool expired() const { return !lock(); }
};

using ProgramTable =
    replay::Table<ProgramKey, std::shared_ptr<RecordedProgram>, ProgramPin>;

ProgramTable &programs() {
  return replay::thread_table<ProgramTable>(pool().program_evictions);
}

ProgramKey key_of(const AsyncOp &op) {
  return {op.packer,
          op.kind == AsyncOp::Kind::Send ? op.send_buf : op.recv_buf,
          op.count, op.method, op.kind};
}

/// Record `op`'s monolithic program for `method` into `prog`: the pack
/// program of a send, the unpack program of a receive. The program table
/// and a persistent request's freeze both record through here.
int record_program(const AsyncOp &op, Method method, PersistentProgram *prog) {
  return op.kind == AsyncOp::Kind::Send
             ? record_persistent_send(*op.packer, method, op.send_buf,
                                      op.count, prog, op.label)
             : record_persistent_recv(*op.packer, method, op.recv_buf,
                                      op.count, prog, op.label);
}

/// The program the thread's table serves a monolithic Send, Isend, Recv or
/// Irecv `op` from (a resting persistent request's pin, or one the table
/// recorded); nullptr runs the call live: a sighting that serves no
/// program (see replay::Table::sight), or a message larger than the
/// budget.
std::shared_ptr<RecordedProgram> table_program(const AsyncOp &op) {
  const ProgramTable::Entry *e = programs().sight(
      key_of(op), 0, &replay_counters(op.label).captures,
      [&]() -> ProgramTable::Recorded {
        const std::size_t leases = op.method == Method::Staged ? 2 : 1;
        if (std::bit_ceil(op.packer->packed_bytes(op.count)) * leases >
            replay::kBudget) {
          return {}; // never promotes
        }
        auto fresh = std::make_shared<RecordedProgram>();
        if (record_program(op, op.method, &fresh->prog) != MPI_SUCCESS) {
          return {};
        }
        const std::size_t pinned = fresh->prog.pipe.wire.capacity() +
                                   fresh->prog.pipe.stage.capacity();
        return {std::move(fresh), pinned};
      });
  if (e == nullptr) {
    return nullptr;
  }
  // A pin its request let go since the lookup reads null.
  return e->program ? e->program : e->pin.lock();
}

/// Run `op` from a recorded program when it can claim one (mark it in
/// flight): then it runs on the program's stream and moves the program's
/// bytes until it retires. False runs it live. A pipelined op has no
/// program. A persistent op runs from its own frozen program, any other
/// monolithic op from its thread's table (table_program). The one busy
/// rule: a program another op holds serves no second op, which runs live
/// (an overlapping call of the same key, or an arming whose program a
/// call borrowed); a call, not an arming, counts as busy.
bool claim(AsyncOp &op) {
  if (op.method == Method::Pipelined) {
    return false;
  }
  std::shared_ptr<RecordedProgram> program =
      op.persistent ? op.program : table_program(op);
  if (!program) {
    return false;
  }
  if (program->in_flight.exchange(true, std::memory_order_acquire)) {
    if (!op.persistent) {
      replay_counters(op.label).busy.add(); // its wire lease is in use
    }
    return false;
  }
  op.stream = program->prog.stream;
  op.pipe.bytes = program->prog.pipe.bytes;
  op.program = std::move(program);
  op.claimed = true;
  return true;
}

// --- self delivery ----------------------------------------------------------
//
// A rank that sends to itself (the halo exchange's periodic faces on a grid
// one rank wide in some dimension) would push each such message through the
// system MPI: a buffered send and a receive, both blocking for the wire when
// the message is above the eager limit. When the calling thread already
// posted the accelerated receive the message matches, a monolithic send
// instead hands that receive its wire status and one transcode, which
// copies the send's objects straight into the receive's (both layouts are
// canonical strided blocks over the same packed stream), and completes with
// no system request; the receive then completes with no wire and no unpack.
// Whatever could make the message match another receive, or land
// differently, declines: the send then takes the system route, exactly as
// before.

/// Allocated on the thread's first receive a send of its own could match;
/// a receive listed in it keeps it alive past the thread's exit.
thread_local std::shared_ptr<Inbox> t_inbox;

/// True when `peer` is the caller's own rank in `comm`.
bool is_self(int peer, MPI_Comm comm, const interpose::MpiTable &next) {
  int rank = MPI_PROC_NULL;
  return next.Comm_rank(comm, &rank) == MPI_SUCCESS && rank == peer;
}

/// List a just-armed receive in its thread's inbox when a send of the same
/// thread could match it: its source is the caller's rank or
/// MPI_ANY_SOURCE.
void enroll(AsyncOp &op, const interpose::MpiTable &next) {
  if (op.peer != MPI_ANY_SOURCE && !is_self(op.peer, op.comm, next)) {
    return;
  }
  if (!t_inbox) {
    t_inbox = std::make_shared<Inbox>();
  }
  op.inbox = t_inbox;
  const std::lock_guard<std::mutex> lock(op.inbox->mutex);
  op.inbox->ops.push_back(&op);
}

/// A receive TEMPI forwarded to the system MPI whose source may be the
/// caller's own rank. While one that could match a self-addressed message
/// exists (a persistent one: until it is freed, started or not), self
/// delivery declines, so the message stays queued for it. Kept
/// process-wide: the request may complete on any thread.
struct ForwardedRecv {
  MPI_Request request = MPI_REQUEST_NULL;
  int source = MPI_ANY_SOURCE;
  int tag = MPI_ANY_TAG;
  MPI_Comm comm = nullptr;
  bool persistent = false;
};

struct ForwardedRecvs {
  std::mutex mutex;
  std::vector<ForwardedRecv> recvs;
  std::atomic<std::size_t> size{0}; ///< recvs.size(), read without the lock
};

ForwardedRecvs &forwarded() {
  static ForwardedRecvs f;
  return f;
}

/// Whether a receive posted for (`source`, `tag`) on `comm` could take a
/// message with `msg`'s envelope (its peer, tag and comm).
bool could_take(int source, int tag, MPI_Comm comm, const AsyncOp &msg) {
  return comm == msg.comm &&
         (source == msg.peer || source == MPI_ANY_SOURCE) &&
         (tag == msg.tag || tag == MPI_ANY_TAG);
}

bool forwarded_could_match(const AsyncOp &send) {
  ForwardedRecvs &f = forwarded();
  if (f.size.load(std::memory_order_acquire) == 0) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(f.mutex);
  return std::any_of(f.recvs.begin(), f.recvs.end(),
                     [&](const ForwardedRecv &r) {
                       return could_take(r.source, r.tag, r.comm, send);
                     });
}

/// The first receive in `inbox` that `send` could match, in posting order.
AsyncOp *first_candidate(const Inbox &inbox, const AsyncOp &send) {
  for (AsyncOp *r : inbox.ops) {
    if (could_take(r->peer, r->tag, r->comm, send)) {
      return r;
    }
  }
  return nullptr;
}

/// Why `recv`, the first receive `send` could match, cannot take its
/// `bytes` straight, or nullopt when it can. It must name exactly this
/// source and tag (a wildcard declines) and land one monolithic message
/// with room for the bytes (a larger message truncates on the system
/// path); both types need a canonical strided form for the transcode; and
/// no earlier message or forwarded receive may pair differently: a message
/// already queued from this rank on the tag must reach the receive first.
std::optional<Decline> decline_rule(AsyncOp &recv, const AsyncOp &send,
                                    std::size_t bytes,
                                    const interpose::MpiTable &next) {
  if (recv.peer != send.peer || recv.tag != send.tag) {
    return Decline::Wildcard;
  }
  if (recv.method == Method::Pipelined) {
    return Decline::Pipelined;
  }
  if (bytes > wire_pipe(recv).bytes) {
    return Decline::Truncate;
  }
  if (!recv.packer->strided() || !send.packer->strided()) {
    return Decline::BlockList;
  }
  int queued = 0;
  if (next.Iprobe(send.peer, send.tag, send.comm, &queued,
                  MPI_STATUS_IGNORE) != MPI_SUCCESS ||
      queued != 0) {
    return Decline::Queued;
  }
  if (forwarded_could_match(send)) {
    return Decline::Forwarded;
  }
  return std::nullopt;
}

/// Deliver send `op` into `recv`: hand `recv` the wire status a system
/// receive would report, and leave the transcode that copies the message's
/// whole objects (the system path unpacks no partial one) from the send's
/// buffer into the receive's pending in a Delivery both ops share (see
/// run_delivery). Its recorded one-item batch is the pair's entry in the
/// thread's program table, keyed by both layouts; it pins no memory, so it
/// charges nothing to the budget. False (nothing delivered: the system
/// route) when the sighting serves no graph.
bool deliver_into(AsyncOp &op, AsyncOp &recv, std::size_t bytes) {
  const Packer &from = *op.packer;
  const Packer &into = *recv.packer;
  const UnpackItem item{&into.plan(),
                        &into.block(),
                        into.type_extent(),
                        recv.recv_buf,
                        op.send_buf,
                        static_cast<int>(bytes / into.packed_bytes(1)),
                        &from.plan(),
                        &from.block(),
                        from.type_extent()};
  ProgramKey key = key_of(op);
  key.into_packer = recv.packer;
  key.into_buf = recv.recv_buf;
  const ProgramTable::Entry *e = programs().sight(
      key, 0, nullptr, [&]() -> ProgramTable::Recorded {
        auto fresh = std::make_shared<RecordedProgram>();
        PersistentProgram &prog = fresh->prog;
        prog.stream = vcuda::next_pool_stream();
        const int rc = capture_on(prog.stream, &prog.graph, op.label, [&] {
          return launch_unpack_batch({&item, 1}, prog.stream) ==
                         vcuda::Error::Success
                     ? MPI_SUCCESS
                     : MPI_ERR_OTHER;
        });
        if (rc != MPI_SUCCESS) {
          return {};
        }
        return {std::move(fresh), 0};
      });
  if (e == nullptr) {
    return false;
  }
  count_replay(op, 0); // its transcode runs later, at completion
  op.stream = e->program->prog.stream;
  op.delivery = std::make_shared<Delivery>();
  op.delivery->transcode = e->program;
  op.delivery->item = item;
  op.delivery->send = &op;
  recv.delivery = op.delivery;
  recv.wire_status.MPI_SOURCE = op.peer;
  recv.wire_status.MPI_TAG = op.tag;
  recv.wire_status.MPI_ERROR = MPI_SUCCESS;
  recv.wire_status.count_bytes = static_cast<long long>(bytes);
  recv.delivered.store(true, std::memory_order_release);
  return true;
}

/// Deliver a monolithic send addressed to the caller's own rank (is_self)
/// into the first receive of its thread's inbox it could match, when that
/// receive takes it (see decline_rule). True when delivered: the send needs
/// no system request. False sends the message through the system MPI, and
/// counts the rule that declined it.
bool deliver_self(AsyncOp &op, const interpose::MpiTable &next) {
  std::optional<Decline> decline = Decline::NoReceive;
  if (Inbox *inbox = t_inbox.get()) {
    const std::lock_guard<std::mutex> lock(inbox->mutex);
    const std::size_t bytes = op.packer->packed_bytes(op.count);
    if (AsyncOp *recv = first_candidate(*inbox, op)) {
      decline = decline_rule(*recv, op, bytes, next);
      if (!decline && !deliver_into(op, *recv, bytes)) {
        decline = Decline::FirstSighting;
      }
      if (!decline) {
        std::erase(inbox->ops, recv);
      }
    }
  }
  Pool &p = pool();
  if (!decline) {
    p.self_deliveries.add();
    return true;
  }
  p.self_declines.add();
  p.self_declines_by_rule[static_cast<std::size_t>(*decline)].add();
  return false;
}

/// Whether a send claimed from its recorded program waits in its thread's
/// list instead of posting now: it joins a burst, one kernel moves it, and
/// the rank runs at MPI_THREAD_SINGLE or MPI_THREAD_FUNNELED, where the
/// thread that defers it is the only one of the rank that enters MPI, so
/// no other thread can block in MPI while it is pending. (At
/// MPI_THREAD_SERIALIZED another thread may block in a Recv or a Barrier
/// whose peer waits for these very sends.) The caller rules out a send to
/// the caller's own rank.
bool defers(const AsyncOp &op, bool burst, const interpose::MpiTable &next) {
  int level = MPI_THREAD_MULTIPLE;
  return burst && fusable(op) &&
         next.Query_thread(&level) == MPI_SUCCESS &&
         level <= MPI_THREAD_FUNNELED;
}

/// Append a send claimed from its recorded program to the thread's list;
/// it waits at PackIssued (a re-armed persistent send comes from Complete)
/// until the list is flushed.
void defer(AsyncOp &op) {
  op.phase = OpPhase::PackIssued;
  if (!t_burst) {
    t_burst = std::make_shared<SendBurst>();
  }
  op.burst = t_burst;
  {
    const std::lock_guard<std::mutex> lock(t_burst->mutex);
    t_burst->ops.push_back(&op);
    op.deferred = true;
  }
  t_sends_pending = true;
  pool().sends_deferred.add();
}

/// Post a monolithic send live: lease and pack into the op's pipeline,
/// sync, and hand the wire bytes to the system MPI_Isend.
int post_live_send(AsyncOp &op, const interpose::MpiTable &next) {
  // The pack and wire durations feed the tuner only for blocking sends,
  // as complete_recv's `sync` gates the unpack observations. Arming them
  // for Isend too grew halo_p2p's peak RSS by 17% (13.0 -> 15.2 MiB).
  const bool observe = op.label == trace::OpKind::Send;
  // Round-robin pool stream: consecutive messages' pack/D2H legs land on
  // different streams and overlap in device time.
  op.stream = vcuda::next_pool_stream();
  {
    trace::ScopedSpan pack(trace::Phase::PackLaunch, op.label, 0, op.peer,
                           op.tag, static_cast<std::int8_t>(op.method));
    int rc = lease_pack(*op.packer, op.method, op.count, &op.pipe);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    // Opened after the lease, so a cache miss's allocation does not land
    // in the pack sample. Staged packs into device staging and then copies
    // D2H inside start_pack, so its span is not a clean kernel sample.
    tune::ScopedObservation obs(
        op.method == Method::OneShot ? tune::Axis::OneshotPack
                                     : tune::Axis::DevicePack,
        static_cast<std::size_t>(op.packer->wire_block_bytes()), 0,
        observe && op.method != Method::Staged);
    rc = start_pack(*op.packer, op.method, op.send_buf, op.count, op.stream,
                    &op.pipe);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    pack.set_bytes(op.pipe.bytes);
    obs.set_total(op.pipe.bytes);
    // TransferPosted: the wire departs only once the pack legs complete,
    // so fold the stream into the host clock before handing bytes to the
    // wire.
    vcuda::StreamSynchronize(op.stream);
  }
  // The staged method's device-side intermediate is dead once the D2H
  // copy has landed in the wire buffer; return it now rather than
  // pinning it for the op's whole flight.
  op.pipe.stage = CachedBuffer{};
  trace::ScopedSpan wire(trace::Phase::Wire, op.label, op.pipe.bytes,
                         op.peer, op.tag, static_cast<std::int8_t>(op.method));
  // Sender-side wire durations are only trustworthy for rendezvous-sized
  // payloads (wire_observable); the Device method rides the CUDA-aware
  // wire, the host-intermediate methods ride the CPU wire.
  tune::ScopedObservation obs(
      op.method == Method::Device ? tune::Axis::GpuWire : tune::Axis::CpuWire,
      0, op.pipe.bytes, observe && tune::wire_observable(op.pipe.bytes));
  return next.Isend(op.pipe.wire.get(), wire_count(op), MPI_BYTE, op.peer,
                    op.tag, op.comm, &op.inner);
}

/// Post a packer-driven send (PackIssued -> TransferPosted): MPI_Send,
/// MPI_Isend and a persistent send's MPI_Start all post here. A monolithic
/// send addressed to the caller itself lands in the thread's posted
/// receive when that receive takes it (deliver_self); any other posts from
/// the program it claims (see claim), else live. A send from a program
/// that joins a `burst` to another rank may instead wait in its thread's
/// list (defers) at PackIssued. Every other send that reaches the wire
/// flushes that list first, so the thread's messages keep their order. A
/// pipelined send runs every chunk leg now, replaying a persistent send's
/// recorded leg graphs: each leg is a buffered send, so posting them
/// eagerly preserves the engine's deadlock discipline while the pack/wire
/// overlap still happens inside the call. Its op is then already
/// transferred, and completion just reclaims it.
int post_send(AsyncOp &op, bool burst, const interpose::MpiTable &next) {
  int rc = MPI_SUCCESS;
  if (op.method == Method::Pipelined) {
    flush_sends(FlushReason::NondeferrableSend, next);
    if (op.pipeprog) {
      rc = replay_pipelined_send(*op.pipeprog, op.peer, op.tag, op.comm,
                                 next);
      if (rc == MPI_SUCCESS) {
        count_replay(op, op.leg_graph_count);
      }
    } else {
      rc = send_pipelined(*op.packer, op.send_buf, op.count, op.peer, op.tag,
                          op.comm, op.chunk_bytes, next, op.label);
    }
  } else if (const bool self = is_self(op.peer, op.comm, next);
             self && deliver_self(op, next)) {
    // Delivered: no system request to reclaim.
  } else if (claim(op)) {
    // A repeated send: the recorded pack chain refills the program's
    // pinned wire lease, one graph launch and a fence.
    if (!self && defers(op, burst, next)) {
      defer(op);
      return MPI_SUCCESS;
    }
    flush_sends(FlushReason::NondeferrableSend, next);
    rc = replay_pack(op, op.program->prog.stream);
    if (rc == MPI_SUCCESS) {
      rc = post_wire(op, next);
    }
  } else {
    flush_sends(FlushReason::NondeferrableSend, next);
    rc = post_live_send(op, next);
  }
  if (rc == MPI_SUCCESS) {
    op.phase = OpPhase::TransferPosted;
  }
  return rc;
}

/// Arm a packer-driven receive (WirePending): MPI_Recv, MPI_Irecv and a
/// persistent receive's MPI_Start all arm here. A monolithic receive lands
/// in the pinned lease of the program it claims (see claim), else it
/// leases its wire buffer now, on a round-robin pool stream for the unpack
/// legs: a failed lease must not reach the wire, which would land the
/// transfer in a null buffer. A pipelined receive gets a fresh ChunkedRecv,
/// which leases its chunks lazily (the first leg sizes them) on streams of
/// its own.
int post_recv(AsyncOp &op) {
  op.chunked.reset(); // a re-armed receive never keeps its last legs
  if (claim(op)) {
    // The wire lands in the program's pinned lease.
  } else if (op.method == Method::Pipelined) {
    op.chunked = std::make_unique<ChunkedRecv>(*op.packer, op.recv_buf,
                                               op.count, op.peer, op.tag,
                                               op.comm, op.label);
  } else {
    op.stream = vcuda::next_pool_stream();
    if (const int rc = start_recv(*op.packer, op.method, op.count, &op.pipe);
        rc != MPI_SUCCESS) {
      return rc;
    }
  }
  op.phase = OpPhase::WirePending;
  return MPI_SUCCESS;
}

/// Complete an armed op on the calling thread: reclaim a send's system
/// request, or receive, unpack and synchronize a receive and publish its
/// status. A failed receive first drains its streams, so its
/// intermediates can return to the cache. wait() and the blocking
/// send/recv both complete here.
int finish(AsyncOp &op, MPI_Status *status, const interpose::MpiTable &next) {
  if (op.kind == AsyncOp::Kind::Send) {
    if (status != MPI_STATUS_IGNORE) {
      *status = MPI_Status{}; // sends publish a default status, as sysmpi does
    }
    return complete_send(op, next);
  }
  const int rc = complete_recv(op, next, /*sync=*/true);
  if (rc == MPI_SUCCESS) {
    fill_recv_status(op, status);
  } else {
    drain_op_streams(op);
  }
  return rc;
}

} // namespace

void note_forwarded_recv(MPI_Request request, int source, int tag,
                         MPI_Comm comm, bool persistent,
                         const interpose::MpiTable &next) {
  if (source != MPI_ANY_SOURCE && !is_self(source, comm, next)) {
    return;
  }
  ForwardedRecvs &f = forwarded();
  const std::lock_guard<std::mutex> lock(f.mutex);
  // A handle the system MPI reused replaces the entry it left behind.
  std::erase_if(f.recvs,
                [&](const ForwardedRecv &r) { return r.request == request; });
  f.recvs.push_back({request, source, tag, comm, persistent});
  f.size.store(f.recvs.size(), std::memory_order_release);
}

void note_forwarded_done(MPI_Request request, bool freed) {
  ForwardedRecvs &f = forwarded();
  if (f.size.load(std::memory_order_acquire) == 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(f.mutex);
  std::erase_if(f.recvs, [&](const ForwardedRecv &r) {
    return r.request == request && (freed || !r.persistent);
  });
  f.size.store(f.recvs.size(), std::memory_order_release);
}

void flush_sends(FlushReason why, const interpose::MpiTable &next) {
  if (!t_sends_pending) {
    return;
  }
  t_sends_pending = false;
  const std::lock_guard<std::mutex> lock(t_burst->mutex);
  flush_list(*t_burst, why, next);
}

int send(const Packer &packer, Method method, const void *buf, int count,
         int dest, int tag, MPI_Comm comm, const interpose::MpiTable &next,
         std::size_t chunk_bytes) {
  AsyncOp op(AsyncOp::Kind::Send, method, &packer, count, dest, tag, comm,
             trace::OpKind::Send);
  op.send_buf = buf;
  op.chunk_bytes = chunk_bytes;
  if (const int rc = post_send(op, /*burst=*/false, next);
      rc != MPI_SUCCESS) {
    return rc;
  }
  return finish(op, MPI_STATUS_IGNORE, next);
}

int recv(const Packer &packer, Method method, void *buf, int count,
         int source, int tag, MPI_Comm comm, MPI_Status *status,
         const interpose::MpiTable &next) {
  AsyncOp op(AsyncOp::Kind::Recv, method, &packer, count, source, tag, comm,
             trace::OpKind::Recv);
  op.recv_buf = buf;
  if (const int rc = post_recv(op); rc != MPI_SUCCESS) {
    return rc;
  }
  return finish(op, status, next);
}

int start_isend(const Packer *packer, Method method, const void *buf,
                int count, int dest, int tag, MPI_Comm comm,
                const interpose::MpiTable &next, MPI_Request *request,
                std::size_t chunk_bytes, bool burst) {
  auto op = std::make_unique<AsyncOp>(AsyncOp::Kind::Send, method, packer,
                                      count, dest, tag, comm,
                                      trace::OpKind::Isend);
  op->send_buf = buf;
  op->chunk_bytes = chunk_bytes;
  if (const int rc = post_send(*op, burst, next); rc != MPI_SUCCESS) {
    return rc;
  }
  pool().isends.add();
  *request = insert(std::move(op));
  return MPI_SUCCESS;
}

int start_isend_packed(const void *bytes, std::size_t nbytes, Method method,
                       std::size_t chunk_bytes, int dest, int tag,
                       MPI_Comm comm, const interpose::MpiTable &next,
                       MPI_Request *request) {
  if (nbytes > kMaxWireBytes && method != Method::Pipelined) {
    return MPI_ERR_COUNT; // one contiguous leg cannot carry it
  }
  flush_sends(FlushReason::NondeferrableSend, next);
  auto op = std::make_unique<AsyncOp>(AsyncOp::Kind::Send, method, nullptr,
                                      0, dest, tag, comm, trace::OpKind::Coll);
  op->packed = true;
  op->pipe.bytes = nbytes;
  if (method == Method::Pipelined) {
    // Ordered sub-slice legs, posted eagerly (buffered sends) — the same
    // deadlock discipline as pipelined Isends.
    const int rc = send_packed_pipelined(bytes, nbytes, dest, tag, comm,
                                         chunk_bytes, next);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  } else if (method == Method::Staged) {
    // Stage the device slice through a pinned lease onto the CPU wire.
    op->stream = vcuda::next_pool_stream();
    {
      trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                              nbytes);
      op->pipe.wire = lease_buffer(vcuda::MemorySpace::Pinned, nbytes);
    }
    if (op->pipe.wire.get() == nullptr && nbytes > 0) {
      return MPI_ERR_OTHER;
    }
    {
      trace::ScopedSpan pack(trace::Phase::PackLaunch, trace::OpKind::Coll,
                             nbytes, dest, tag,
                             static_cast<std::int8_t>(method));
      vcuda::MemcpyAsync(op->pipe.wire.get(), bytes, nbytes,
                         vcuda::MemcpyKind::DeviceToHost, op->stream);
      vcuda::StreamSynchronize(op->stream);
    }
    trace::ScopedSpan wire(trace::Phase::Wire, trace::OpKind::Coll, nbytes,
                           dest, tag, static_cast<std::int8_t>(method));
    const int rc = next.Isend(op->pipe.wire.get(), wire_count(*op), MPI_BYTE,
                              dest, tag, comm, &op->inner);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  } else {
    // Device (the default): the slice is already wire-ready; the system
    // MPI buffers it at post time, so no lease is pinned to the op.
    trace::ScopedSpan wire(trace::Phase::Wire, trace::OpKind::Coll, nbytes,
                           dest, tag, static_cast<std::int8_t>(method));
    const int rc = next.Isend(bytes, wire_count(*op), MPI_BYTE, dest, tag,
                              comm, &op->inner);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  op->phase = OpPhase::TransferPosted;
  pool().isends.add();
  *request = insert(std::move(op));
  return MPI_SUCCESS;
}

int start_irecv_packed(void *bytes, std::size_t nbytes, Method method,
                       int source, int tag, MPI_Comm comm,
                       const interpose::MpiTable & /*next*/,
                       MPI_Request *request) {
  if (nbytes > kMaxWireBytes && method != Method::Pipelined) {
    return MPI_ERR_COUNT;
  }
  auto op = std::make_unique<AsyncOp>(AsyncOp::Kind::Recv, method, nullptr,
                                      0, source, tag, comm,
                                      trace::OpKind::Coll);
  op->recv_buf = bytes;
  op->packed = true;
  op->pipe.bytes = nbytes;
  op->stream = vcuda::next_pool_stream();
  if (method == Method::Pipelined) {
    op->chunked =
        std::make_unique<ChunkedRecv>(bytes, nbytes, source, tag, comm);
  } else if (method == Method::Staged) {
    // A failed lease must not enter the pool (Wait would receive into a
    // null buffer).
    op->pipe.wire = lease_buffer(vcuda::MemorySpace::Pinned, nbytes);
    if (op->pipe.wire.get() == nullptr && nbytes > 0) {
      return MPI_ERR_OTHER;
    }
  }
  pool().irecvs.add();
  *request = insert(std::move(op));
  return MPI_SUCCESS;
}

int start_irecv(const Packer *packer, Method method, void *buf, int count,
                int source, int tag, MPI_Comm comm,
                const interpose::MpiTable &next, MPI_Request *request) {
  auto op = std::make_unique<AsyncOp>(AsyncOp::Kind::Recv, method, packer,
                                      count, source, tag, comm,
                                      trace::OpKind::Irecv);
  op->recv_buf = buf;
  if (const int rc = post_recv(*op); rc != MPI_SUCCESS) {
    return rc; // a failed lease never enters the pool
  }
  enroll(*op, next);
  pool().irecvs.add();
  *request = insert(std::move(op));
  return MPI_SUCCESS;
}

namespace {

/// Record `choice` into fresh programs for a persistent op and swap them
/// in only once recording succeeded, so a failed record leaves the op on
/// its current plan. Send_init/Recv_init freeze the first plan this way,
/// maybe_refreeze every later one.
int freeze(AsyncOp &op, TransferChoice choice) {
  std::shared_ptr<RecordedProgram> program;
  std::unique_ptr<PipelinedSendProgram> pipeprog;
  int rc = MPI_SUCCESS;
  if (choice.method != Method::Pipelined) {
    program = std::make_shared<RecordedProgram>();
    rc = record_program(op, choice.method, &program->prog);
  } else if (op.kind == AsyncOp::Kind::Send) {
    // One pack graph per wire leg (see record_pipelined_send).
    pipeprog = std::make_unique<PipelinedSendProgram>();
    rc = record_pipelined_send(*op.packer, op.send_buf, op.count,
                               choice.chunk_bytes, pipeprog.get());
  } else {
    // A pipelined receive records nothing: Start re-arms a ChunkedRecv,
    // whose leg sizes follow the sender's first leg and cannot be frozen.
    // It fails where its sender's recording does (a row beyond the wire
    // limit), so the two ends keep or change their plans together.
    PipelineFrame frame;
    rc = plan_pipeline_frame(
        static_cast<std::size_t>(op.packer->wire_block_bytes()),
        op.packer->total_blocks(op.count), choice.chunk_bytes, &frame);
  }
  if (rc != MPI_SUCCESS) {
    return rc; // the fresh programs release their leases and graphs here
  }
  op.method = choice.method;
  op.chunk_bytes = choice.chunk_bytes;
  op.leg_graph_count = 0;
  if (pipeprog) {
    for (vcuda::GraphHandle g : pipeprog->leg_graphs) {
      op.leg_graph_count += g != nullptr ? 1 : 0;
    }
  }
  op.pipeprog = std::move(pipeprog);
  if (program) {
    // Calls of the same key borrow the program while the request rests.
    programs().pin(key_of(op), ProgramPin{program});
  }
  if (op.program) {
    op.program->released.store(true, std::memory_order_release);
  }
  op.program = std::move(program);
  return MPI_SUCCESS;
}

/// Lazy re-freeze: when a tuned model landed since this op froze, re-run
/// the exhaustive search once and re-record the program only if the plan
/// actually changed. The no-bump hot path is a single relaxed generation
/// load; the generation is consumed before the search so an op re-chooses
/// at most once per bump even when the search keeps the old plan. A
/// failed re-record keeps the frozen plan, exactly as nullopt does.
void maybe_refreeze(AsyncOp &op) {
  const std::uint64_t gen = tune::refresh_generation();
  if (gen == op.frozen_gen) {
    return;
  }
  op.frozen_gen = gen;
  const void *buf =
      op.kind == AsyncOp::Kind::Send ? op.send_buf : op.recv_buf;
  const std::optional<TransferChoice> choice =
      persistent_choice(op.packer, buf, op.count);
  if (!choice ||
      (choice->method == op.method &&
       (choice->method != Method::Pipelined ||
        choice->chunk_bytes == op.chunk_bytes))) {
    return; // same plan: keep the recorded program
  }
  if (const int rc = freeze(op, *choice); rc != MPI_SUCCESS) {
    support::log_warn("tempi: re-freezing a persistent request (peer ",
                      op.peer, ", tag ", op.tag, ") failed with error ", rc,
                      "; it keeps its frozen plan");
    return;
  }
  tune::note_refreeze();
}

/// Create an inactive persistent op and freeze `choice` into it.
int open_persistent(AsyncOp::Kind kind, std::shared_ptr<const Packer> packer,
                    TransferChoice choice, const void *send_buf,
                    void *recv_buf, int count, int peer, int tag,
                    MPI_Comm comm, MPI_Request *request) {
  auto op = std::make_unique<AsyncOp>(kind, choice.method, packer.get(),
                                      count, peer, tag, comm,
                                      trace::OpKind::Persistent);
  op->persistent = true;
  op->phase = OpPhase::Complete; // inactive until Start
  op->packer_pin = std::move(packer);
  op->send_buf = send_buf;
  op->recv_buf = recv_buf;
  op->frozen_gen = tune::refresh_generation();
  if (const int rc = freeze(*op, choice); rc != MPI_SUCCESS) {
    return rc;
  }
  pool().p_inits.add();
  *request = insert(std::move(op));
  return MPI_SUCCESS;
}

} // namespace

int send_init(std::shared_ptr<const Packer> packer, TransferChoice choice,
              const void *buf, int count, int dest, int tag, MPI_Comm comm,
              const interpose::MpiTable & /*next*/, MPI_Request *request) {
  return open_persistent(AsyncOp::Kind::Send, std::move(packer), choice, buf,
                         nullptr, count, dest, tag, comm, request);
}

int recv_init(std::shared_ptr<const Packer> packer, TransferChoice choice,
              void *buf, int count, int source, int tag, MPI_Comm comm,
              const interpose::MpiTable & /*next*/, MPI_Request *request) {
  return open_persistent(AsyncOp::Kind::Recv, std::move(packer), choice,
                         nullptr, buf, count, source, tag, comm, request);
}

int start(MPI_Request *request, const interpose::MpiTable &next,
          bool burst) {
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  AsyncOp *op = find(*request);
  if (op == nullptr || !inactive(*op)) {
    return MPI_ERR_ARG; // not a persistent request, or already armed
  }
  maybe_refreeze(*op);
  pool().p_starts.add();
  // Armed as Send/Isend and Recv/Irecv are: the op brings its own program.
  int rc = MPI_SUCCESS;
  if (op->kind == AsyncOp::Kind::Send) {
    rc = post_send(*op, burst, next);
  } else if ((rc = post_recv(*op)) == MPI_SUCCESS) {
    enroll(*op, next);
  }
  if (rc != MPI_SUCCESS) {
    disarm(*op); // the request stays inactive
  }
  return rc;
}

int startall(int count, MPI_Request *requests,
             const interpose::MpiTable &next, bool burst) {
  if (count < 0 || (count > 0 && requests == nullptr)) {
    return MPI_ERR_ARG;
  }
  // A persistent fan-out arms its sends in node-aware order (see
  // tempi/topology.*): array positions stay untouched — only the order the
  // owned persistent sends hit the wire changes, and same-peer sends keep
  // their relative order (per-(peer, tag) FIFO). Receives and non-pool
  // requests arm at their original positions; their order carries no wire
  // traffic. Identity when the kill-switch is off or the shape is trivial.
  std::vector<std::size_t> send_pos;
  std::vector<int> send_peers;
  MPI_Comm fan_comm = nullptr;
  bool uniform_comm = true;
  for (int i = 0; i < count && uniform_comm; ++i) {
    const AsyncOp *op =
        requests[i] != MPI_REQUEST_NULL ? find(requests[i]) : nullptr;
    if (op == nullptr || !op->persistent || op->kind != AsyncOp::Kind::Send) {
      continue;
    }
    if (fan_comm == nullptr) {
      fan_comm = op->comm;
    }
    uniform_comm = op->comm == fan_comm;
    send_pos.push_back(static_cast<std::size_t>(i));
    send_peers.push_back(op->peer);
  }
  std::vector<std::size_t> arm = send_pos;
  if (uniform_comm && fan_comm != nullptr && send_pos.size() > 1) {
    const std::vector<std::size_t> order = topo::schedule(fan_comm,
                                                          send_peers);
    for (std::size_t k = 0; k < order.size(); ++k) {
      arm[k] = send_pos[order[k]];
    }
  }
  std::size_t next_send = 0;
  for (int i = 0; i < count; ++i) {
    const bool is_sched_send =
        next_send < send_pos.size() &&
        send_pos[next_send] == static_cast<std::size_t>(i);
    const int idx =
        is_sched_send ? static_cast<int>(arm[next_send++]) : i;
    // A one-shot pool ticket must fail cleanly in start() (MPI_ERR_ARG),
    // never reach next.Start, which would reinterpret the AsyncOp pointer
    // as a system request. Every arming after the first joins a burst.
    int rc = MPI_SUCCESS;
    if (owns(requests[idx])) {
      rc = start(&requests[idx], next, burst);
    } else {
      flush_sends(FlushReason::NondeferrableSend, next);
      rc = next.Start(&requests[idx]);
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    burst = true;
  }
  return MPI_SUCCESS;
}

int request_free(MPI_Request *request, const interpose::MpiTable &next) {
  if (request == nullptr || *request == MPI_REQUEST_NULL) {
    return MPI_ERR_ARG;
  }
  std::unique_ptr<AsyncOp> op = extract(*request);
  if (!op) {
    return MPI_ERR_ARG; // caller must check owns() first
  }
  // The op is destroyed when `op` leaves scope no matter what happens
  // below, so the handle must be nulled on every path — leaving it set
  // would hand the application a dangling pointer.
  *request = MPI_REQUEST_NULL;
  // Request_free never blocks, matching sys_Request_free: send-side wire
  // work was posted eagerly (buffered) and is reclaimed instantly, while
  // a receive whose completion would need an unmatched message is
  // discarded, exactly as the system MPI discards a pending Irecv. The
  // one exception is a multi-leg receive that already consumed legs: its
  // sender posted every leg eagerly, so completing it cannot block, and
  // discarding it would strand ordered legs for the next matcher on the
  // pair channel.
  int rc = MPI_SUCCESS;
  if (!inactive(*op)) {
    if (op->persistent) {
      support::log_warn("tempi: MPI_Request_free on an armed persistent ",
                        op->kind == AsyncOp::Kind::Send ? "send" : "receive",
                        " (peer ", op->peer, ", tag ", op->tag, ")");
    }
    if (op->kind == AsyncOp::Kind::Send) {
      rc = complete_send(*op, next);
    } else if (op->chunked && op->chunked->bytes_received() > 0) {
      rc = complete_recv(*op, next, /*sync=*/true);
    }
    drain_op_streams(*op);
  }
  if (!op->persistent) {
    pool().completions.add();
  }
  return rc; // destruction unpins leases and destroys graphs
}

std::size_t persistent_open() {
  Pool &p = pool();
  std::size_t n = 0;
  for (const auto &s : p.shards) {
    const std::lock_guard<support::ContendedMutex> lock(s->mutex);
    for (const auto &[ticket, op] : s->ops) {
      n += op->persistent ? 1 : 0;
    }
  }
  return n;
}

bool owns(MPI_Request request) {
  if (request == MPI_REQUEST_NULL) {
    return false;
  }
  PoolShard &s = shard_for(pool(), request);
  const std::lock_guard<support::ContendedMutex> lock(s.mutex);
  return s.ops.contains(request);
}

int wait(MPI_Request *request, MPI_Status *status,
         const interpose::MpiTable &next) {
  AsyncOp *op = find(*request);
  if (op == nullptr) {
    return MPI_ERR_ARG; // caller must check owns() first
  }
  if (inactive(*op)) {
    // Per MPI, waiting on an inactive persistent request completes
    // immediately with an empty status.
    if (status != MPI_STATUS_IGNORE) {
      *status = MPI_Status{};
    }
    return MPI_SUCCESS;
  }
  const int rc = finish(*op, status, next);
  // On error the op is still retired: the application cannot retry a
  // half-completed pipeline, and retiring releases the intermediates (a
  // persistent op just goes inactive).
  retire(*op, request);
  return rc;
}

int test(MPI_Request *request, int *flag, MPI_Status *status,
         const interpose::MpiTable &next) {
  AsyncOp *op = find(*request);
  if (op == nullptr) {
    return MPI_ERR_ARG;
  }
  if (inactive(*op)) {
    *flag = 1; // inactive persistent requests test as complete (empty)
    if (status != MPI_STATUS_IGNORE) {
      *status = MPI_Status{};
    }
    return MPI_SUCCESS;
  }
  if (op->kind == AsyncOp::Kind::Send) {
    // The transfer was posted at Isend/Start time and the system MPI's
    // sends are buffered, so a posted send can always complete here.
    *flag = 1;
    return wait(request, status, next);
  }
  if (op->chunked) {
    // Pipelined: consume every leg that has already arrived (each step
    // enqueues its unpack, overlapping later legs' wire time), and only
    // report completion once the terminating short leg is in.
    while (!op->chunked->done() && op->chunked->ready(next)) {
      const int rc = op->chunked->step(next);
      if (rc != MPI_SUCCESS) {
        op->chunked->synchronize();
        retire(*op, request);
        *flag = 1; // completed, though with an error
        return rc;
      }
    }
    if (!op->chunked->done()) {
      vcuda::this_thread_timeline().advance(kPollSweepNs);
      *flag = 0;
      return MPI_SUCCESS;
    }
    *flag = 1;
    return wait(request, status, next); // complete_recv finishes instantly
  }
  int matched = 0;
  if (op->delivered.load(std::memory_order_acquire)) {
    matched = 1; // a self-addressed send delivered into it: no wire to wait
  } else if (const int prc = next.Iprobe(op->peer, op->tag, op->comm,
                                         &matched, nullptr);
             prc != MPI_SUCCESS) {
    return prc;
  }
  if (matched == 0) {
    vcuda::this_thread_timeline().advance(kPollSweepNs);
    *flag = 0;
    return MPI_SUCCESS;
  }
  *flag = 1;
  return wait(request, status, next);
}

namespace {

/// One non-blocking completion probe of a mixed-array entry — TEMPI
/// tickets through test(), everything else through the system table.
/// Already-done entries (null slots, inactive persistent tickets) report
/// Inactive WITHOUT being re-tested or touching the status: Testall counts
/// them complete but must not clobber statuses written by the poll that
/// completed them, and the *some/*any calls ignore them outright
/// (reporting them as completions would livelock drain loops once a
/// persistent request completed and went inactive).
enum class EntryProbe { Inactive, Pending, Completed };

int probe_entry(MPI_Request *request, MPI_Status *status,
                const interpose::MpiTable &next, EntryProbe *probe) {
  *probe = EntryProbe::Inactive;
  if (*request == MPI_REQUEST_NULL) {
    return MPI_SUCCESS;
  }
  if (const AsyncOp *op = find(*request)) {
    if (inactive(*op)) {
      return MPI_SUCCESS; // ignored, per MPI
    }
  } else {
    // A system request: a one-element Testany distinguishes an inactive
    // persistent request (flag = 1, index = MPI_UNDEFINED) from a real
    // completion, which plain Test cannot.
    int flag = 0;
    int idx = MPI_UNDEFINED;
    const MPI_Request forwarded_request = *request;
    const int rc = next.Testany(1, request, &idx, &flag, status);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    *probe = flag == 0              ? EntryProbe::Pending
             : idx == MPI_UNDEFINED ? EntryProbe::Inactive
                                    : EntryProbe::Completed;
    if (*probe == EntryProbe::Completed) {
      note_forwarded_done(forwarded_request, /*freed=*/false);
    }
    return MPI_SUCCESS;
  }
  int flag = 0;
  const int rc = test(request, &flag, status, next);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  *probe = flag != 0 ? EntryProbe::Completed : EntryProbe::Pending;
  return MPI_SUCCESS;
}

/// A wire wait for more than the eager threshold is a rendezvous: long
/// enough that pending unpacks should already be running under it.
bool rendezvous_sized(std::size_t bytes) {
  return bytes > sysmpi::net_params().eager_bytes;
}

/// Payload bytes a receive op's wire wait expects.
std::size_t expected_bytes(const AsyncOp &op) {
  return op.chunked ? op.chunked->expected_bytes() : op.pipe.bytes;
}

void note_stream(std::vector<vcuda::StreamHandle> &list,
                 vcuda::StreamHandle s) {
  if (s != nullptr && std::find(list.begin(), list.end(), s) == list.end()) {
    list.push_back(s);
  }
}

// --- recorded fused batches -------------------------------------------------
//
// The halo exchange's Waitall completes the same receives every iteration:
// each into its recorded receive program, or, for a face the rank sends
// itself, by its self delivery's transcode. The claimed programs one flush
// of the fused batch unpacks, and the pending transcodes it runs, are the
// flush's members. A thread's batch table keys each ordered list of
// members by their programs (a transcode's is the pair's, keyed by both
// layouts): a repeated list replays every member's segment as one fused
// kernel, one graph launch on the first member's stream, which pass 2
// fences, instead of one graph launch per member. A flush of one claimed
// program alone replays that program: its recorded unpack already is the
// flush. A recorded batch owns its members' programs, so no address can be
// reused by a new program while its graph exists; a member evicted from
// the program table, or released by its persistent request, is never
// served again, so the batch stops matching and is never replayed. A
// flush of deferred sends (pack_members) records and replays its fused pack
// in the same table, keyed the same way by its members' send programs.

/// A recorded fused batch and the programs it reads and writes through.
struct BatchProgram {
  std::vector<std::shared_ptr<RecordedProgram>> programs;
  replay::GraphPtr graph;
  vcuda::StreamHandle stream = nullptr;
};

using BatchTable =
    replay::Table<replay::SequenceKey, std::unique_ptr<BatchProgram>>;

/// One member of a flush: a full message into a claimed program, or a
/// receive whose self delivery's transcode is still pending (`delivery`,
/// locked until the flush is done with it).
struct Member {
  AsyncOp *op = nullptr;
  Delivery *delivery = nullptr;
  std::unique_lock<std::mutex> lock;

  /// The recorded program that runs this member alone.
  [[nodiscard]] const std::shared_ptr<RecordedProgram> &program() const {
    return delivery != nullptr ? delivery->transcode : op->program;
  }
};

/// The fused unpack item of the objects `op`'s wire delivered into
/// `op`'s wire lease (or its claimed program's).
UnpackItem unpack_item(AsyncOp &op, int objects) {
  const Packer &pk = *op.packer;
  return {&pk.plan(), &pk.block(), pk.type_extent(), op.recv_buf,
          wire_pipe(op).wire.get(), objects};
}

/// Record `items`, one segment per program of `programs`, as one fused
/// kernel: one graph, labelled `kind`, on the first program's stream. The
/// batch owns the programs and charges their pinned bytes; empty when
/// recording fails.
BatchTable::Recorded
record_batch(std::vector<std::shared_ptr<RecordedProgram>> programs,
             std::span<const UnpackItem> items, trace::OpKind kind) {
  auto batch = std::make_unique<BatchProgram>();
  std::size_t pinned = 0;
  for (const std::shared_ptr<RecordedProgram> &program : programs) {
    const PackPipeline &pipe = program->prog.pipe;
    pinned += pipe.wire.capacity() + pipe.stage.capacity();
  }
  batch->stream = programs.front()->prog.stream;
  vcuda::GraphHandle graph = nullptr;
  const int rc = capture_on(batch->stream, &graph, kind, [&] {
    return launch_unpack_batch(items, batch->stream) == vcuda::Error::Success
               ? MPI_SUCCESS
               : MPI_ERR_OTHER;
  });
  if (rc != MPI_SUCCESS) {
    return {};
  }
  batch->graph.reset(graph);
  batch->programs = std::move(programs);
  return {std::move(batch), pinned};
}

/// Per-thread scratch of replay_members and pack_members, reused from one
/// flush to the next.
struct BatchScratch {
  std::vector<Member> members;
  replay::SequenceKey key;
};
thread_local BatchScratch t_batch_scratch;

/// Unpack full messages into claimed programs and run the pending
/// transcodes of self deliveries into receives: all of it replays as one
/// recorded batch when this thread flushed the same members before, else
/// each member runs from its own program. Each pending delivery's lock is
/// held until its transcode ran, so a completion of its send on another
/// thread waits for this flush. Holding several cannot deadlock: a
/// delivery's receive is in one flush at most, and a send's completion
/// holds no lock but its own delivery's. The streams to fence go to
/// `fence_streams`.
int replay_members(std::span<AsyncOp *const> ops,
                   std::vector<vcuda::StreamHandle> &fence_streams) {
  std::vector<Member> &members = t_batch_scratch.members;
  replay::SequenceKey &key = t_batch_scratch.key;
  key.items.clear();
  // Emptying the scratch unlocks the deliveries, on every return.
  struct Unlock {
    std::vector<Member> &members;
    ~Unlock() { members.clear(); }
  } unlock{members};
  vcuda::VirtualNs copied_at = 0; ///< transcodes the sends already ran
  bool transcodes = false;
  for (AsyncOp *op : ops) {
    Member m;
    m.op = op;
    if (Delivery *d = op->delivery.get()) {
      m.lock = std::unique_lock<std::mutex>(d->mutex);
      if (!d->transcode) {
        copied_at = std::max(copied_at, d->done_at);
        continue;
      }
      m.delivery = d;
      transcodes = true;
    }
    key.items.push_back(replay::bits(m.program().get()));
    members.push_back(std::move(m));
  }
  vcuda::this_thread_timeline().wait_until(copied_at);
  const BatchProgram *batch = nullptr;
  if (members.size() > 1 || transcodes) {
    auto &table =
        replay::thread_table<BatchTable>(pool().fused_unpack_evictions);
    const BatchTable::Entry *e =
        table.sight(key, 0, &pool().fused_unpack_captures, [&] {
          std::vector<std::shared_ptr<RecordedProgram>> programs;
          std::vector<UnpackItem> items;
          for (const Member &m : members) {
            programs.push_back(m.program());
            items.push_back(m.delivery != nullptr
                                ? m.delivery->item
                                : unpack_item(*m.op, m.op->count));
          }
          return record_batch(std::move(programs), items,
                              trace::OpKind::Irecv);
        });
    batch = e != nullptr ? e->program.get() : nullptr;
  }
  if (batch == nullptr) {
    for (const Member &m : members) {
      if (m.delivery != nullptr) {
        if (const int rc = launch_transcode(*m.delivery); rc != MPI_SUCCESS) {
          return rc;
        }
        continue;
      }
      if (const int rc = replay_unpack(*m.op); rc != MPI_SUCCESS) {
        return rc;
      }
      note_stream(fence_streams, m.op->stream);
    }
  } else {
    std::uint64_t bytes = 0;
    for (const Member &m : members) {
      bytes += m.op->packer->packed_bytes(
          m.delivery != nullptr ? m.delivery->item.count : m.op->count);
    }
    trace::ScopedSpan replay(trace::Phase::GraphReplay, trace::OpKind::Irecv,
                             bytes);
    if (vcuda::GraphLaunch(batch->graph.get(), batch->stream) !=
        vcuda::Error::Success) {
      return MPI_ERR_OTHER;
    }
    pool().fused_unpack_replays.add();
    for (const Member &m : members) {
      if (m.delivery != nullptr) {
        m.delivery->transcode.reset();
        m.delivery->done_at = vcuda::this_thread_timeline().now();
      } else {
        count_replay(*m.op, 0);
      }
    }
    note_stream(fence_streams, batch->stream);
  }
  members.clear(); // unlocks the deliveries before the receives let go
  for (AsyncOp *op : ops) {
    op->delivery.reset();
  }
  return MPI_SUCCESS;
}

/// The fused pack item of deferred send `op`: its objects into its claimed
/// program's wire lease, the segment the program's own graph records.
UnpackItem pack_item(const AsyncOp &op) {
  const Packer &pk = *op.packer;
  UnpackItem item{&pk.plan(), &pk.block(), pk.type_extent(),
                  op.program->prog.pipe.wire.get(), op.send_buf, op.count};
  item.pack = true;
  return item;
}

/// Pack the deferred sends `ops` into their programs' wire leases and
/// fence. The thread that deferred them replays their recorded fused pack,
/// one graph, when it flushed the same ordered sends before (the batch
/// table holds send batches beside Waitall's, keyed the same way); else
/// each send replays its own program, as a send posted alone does. Another
/// thread (`owner` false: uninstall's drain) replays each program on a
/// stream of its own, since the owner's streams die with it, and records
/// nothing in its tables.
int pack_members(std::span<AsyncOp *const> ops, bool owner) {
  Pool &p = pool();
  const BatchProgram *batch = nullptr;
  if (owner && ops.size() > 1) {
    replay::SequenceKey &key = t_batch_scratch.key;
    key.items.clear();
    for (const AsyncOp *op : ops) {
      key.items.push_back(replay::bits(op->program.get()));
    }
    auto &table = replay::thread_table<BatchTable>(p.fused_unpack_evictions);
    const BatchTable::Entry *e =
        table.sight(key, 0, &p.send_batch_captures, [&] {
          std::vector<std::shared_ptr<RecordedProgram>> programs;
          std::vector<UnpackItem> items;
          for (const AsyncOp *op : ops) {
            programs.push_back(op->program);
            items.push_back(pack_item(*op));
          }
          return record_batch(std::move(programs), items,
                              trace::OpKind::Isend);
        });
    batch = e != nullptr ? e->program.get() : nullptr;
  }
  if (batch == nullptr) {
    const vcuda::StreamHandle stream =
        owner ? nullptr : vcuda::next_pool_stream();
    for (AsyncOp *op : ops) {
      if (const int rc = replay_pack(
              *op, owner ? op->program->prog.stream : stream);
          rc != MPI_SUCCESS) {
        return rc;
      }
    }
    return MPI_SUCCESS;
  }
  std::uint64_t bytes = 0;
  for (const AsyncOp *op : ops) {
    bytes += op->program->prog.pipe.bytes;
  }
  trace::ScopedSpan replay(trace::Phase::GraphReplay, trace::OpKind::Isend,
                           bytes);
  if (vcuda::GraphLaunch(batch->graph.get(), batch->stream) !=
      vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  p.send_batch_replays.add();
  for (const AsyncOp *op : ops) {
    count_replay(*op, 0);
  }
  vcuda::StreamFence(batch->stream);
  return MPI_SUCCESS;
}

/// Flush `burst` (its lock held): pack every send waiting in it, then post
/// their wires in post order. A failed pack leaves its error on every
/// member; a failed post on its own send.
void flush_list(SendBurst &burst, FlushReason why,
                const interpose::MpiTable &next) {
  if (burst.ops.empty()) {
    return;
  }
  Pool &p = pool();
  p.send_flushes.add();
  p.send_flushes_by_reason[static_cast<std::size_t>(why)].add();
  const int rc = pack_members(burst.ops, &burst == t_burst.get());
  for (AsyncOp *op : burst.ops) {
    op->deferred = false;
    op->phase = OpPhase::TransferPosted;
    op->error = rc != MPI_SUCCESS ? rc : post_wire(*op, next);
  }
  burst.ops.clear();
}

/// Receives of one Waitall whose wire has landed, or whose self delivery
/// is decided, and whose unpack or transcode waits for the next flush.
/// Unpacks that must run live (first sightings of their key, busy
/// programs, short messages) go out as one fused kernel on one stream, so
/// pass 2 pays one sync for all of them; full messages into claimed
/// programs and delivered receives are members (see replay_members).
struct UnpackBatch {
  std::vector<UnpackItem> items;
  std::uint64_t bytes = 0;
  vcuda::StreamHandle stream = nullptr;
  std::vector<AsyncOp *> members;

  /// Queue the unpack of the objects `op`'s wire delivered, or the
  /// transcode of the self delivery into it (a no-op if its send's
  /// completion already ran it).
  int add(AsyncOp &op) {
    if (op.delivered.load(std::memory_order_acquire)) {
      count_delivered(op);
      members.push_back(&op);
      return MPI_SUCCESS;
    }
    const int objects = arrived_objects(op);
    if (objects > 0 && op.claimed && objects == op.count) {
      members.push_back(&op);
      return MPI_SUCCESS;
    }
    if (objects == 0) {
      return MPI_SUCCESS;
    }
    if (stream == nullptr) {
      stream = op.stream;
    }
    items.push_back(unpack_item(op, objects));
    bytes += op.packer->packed_bytes(objects);
    return MPI_SUCCESS;
  }

  /// Launch every pending live unpack as one kernel and replay the
  /// members (no-op when empty); the streams to synchronize go to
  /// `streams`, those to fence to `fence_streams`.
  int flush(std::vector<vcuda::StreamHandle> &streams,
            std::vector<vcuda::StreamHandle> &fence_streams) {
    int rc = MPI_SUCCESS;
    if (!items.empty()) {
      trace::ScopedSpan span(trace::Phase::Unpack, trace::OpKind::Irecv,
                             bytes);
      const vcuda::Error e = launch_unpack_batch(items, stream);
      const std::size_t n = items.size();
      items.clear();
      bytes = 0;
      if (e == vcuda::Error::Success) {
        Pool &p = pool();
        p.fused_unpack_launches.add();
        p.fused_unpacks.add(n);
        note_stream(streams, stream);
      } else {
        rc = MPI_ERR_OTHER;
      }
    }
    const int mrc = replay_members(members, fence_streams);
    members.clear();
    return rc != MPI_SUCCESS ? rc : mrc;
  }
};

/// Waitall's pass-1 step for one receive op: receive the wire, then either
/// append the unpack to `batch` or enqueue it on the op's own path without
/// a sync. A rendezvous-sized wire wait first flushes the pending batch; a
/// delivered receive waits for no wire, and its transcode joins the batch.
/// Streams left holding this op's work are added to `streams`, or, for an
/// op running from a claimed program, to `fence_streams`: those take the
/// cheaper pre-armed fence instead of a host synchronization.
int complete_recv_deferred(AsyncOp &op, const interpose::MpiTable &next,
                           UnpackBatch &batch,
                           std::vector<vcuda::StreamHandle> &streams,
                           std::vector<vcuda::StreamHandle> &fence_streams) {
  const bool delivered = op.delivered.load(std::memory_order_acquire);
  if (!delivered && rendezvous_sized(expected_bytes(op))) {
    if (const int rc = batch.flush(streams, fence_streams);
        rc != MPI_SUCCESS) {
      return rc;
    }
  }
  if (delivered || fusable(op)) {
    int rc = recv_wire(op, next);
    if (rc == MPI_SUCCESS) {
      rc = batch.add(op);
    }
    if (rc == MPI_SUCCESS) {
      op.phase = OpPhase::UnpackPending;
    }
    return rc;
  }
  const int rc = complete_recv(op, next, /*sync=*/false);
  // An op that already completed (a pre-packed leg landing in place, or a
  // self delivery) left no work on its stream: nothing to sync for it.
  if (op.phase == OpPhase::UnpackPending) {
    std::vector<vcuda::StreamHandle> &list =
        op.claimed ? fence_streams : streams;
    if (op.chunked) {
      op.chunked->append_streams(list);
    } else {
      note_stream(list, op.stream);
    }
  }
  return rc;
}

/// Whether an earlier Waitall entry `earlier` could take the message that
/// receive `recv` waits for: a receive of the same (source, tag, comm) or
/// a wildcard one that covers it, or any request forwarded to the system
/// MPI, whose envelope TEMPI does not see.
bool could_match_first(const AsyncOp *earlier, MPI_Request request,
                       const AsyncOp &recv) {
  if (request == MPI_REQUEST_NULL) {
    return false;
  }
  if (earlier == nullptr) {
    return true;
  }
  return earlier->kind == AsyncOp::Kind::Recv && !inactive(*earlier) &&
         could_take(earlier->peer, earlier->tag, earlier->comm, recv);
}

/// Pass 1's order over a Waitall array (see "Waitall batching" in
/// async.hpp): first the rendezvous-sized receives that wait for a wire,
/// name their source and tag, and follow no entry that could take their
/// message first; then every other entry, in array order. sysmpi starts a
/// rendezvous transfer only once its receive is matched, so matching those
/// first keeps eager messages that already arrived from delaying them.
/// Left empty when that is the array order.
void pass1_order(int count, const MPI_Request *requests,
                 const std::vector<AsyncOp *> &ops, std::vector<int> &order) {
  order.clear();
  for (int i = 0; i < count; ++i) {
    const AsyncOp *op = ops[static_cast<std::size_t>(i)];
    bool first = op != nullptr && op->kind == AsyncOp::Kind::Recv &&
                 !inactive(*op) &&
                 !op->delivered.load(std::memory_order_acquire) &&
                 op->peer != MPI_ANY_SOURCE && op->tag != MPI_ANY_TAG &&
                 rendezvous_sized(expected_bytes(*op));
    for (int j = 0; first && j < i; ++j) {
      first = !could_match_first(ops[static_cast<std::size_t>(j)],
                                 requests[j], *op);
    }
    if (first) {
      order.push_back(i);
    }
  }
  if (order.empty() ||
      order.back() == static_cast<int>(order.size()) - 1) {
    order.clear(); // only a prefix goes first: the array order
    return;
  }
  const std::size_t hoisted = order.size();
  for (int i = 0; i < count; ++i) {
    if (!std::binary_search(order.begin(),
                            order.begin() + static_cast<std::ptrdiff_t>(hoisted),
                            i)) {
      order.push_back(i);
    }
  }
}

/// Per-thread scratch of waitall, reused from one call to the next: the
/// ops behind the array's requests, the ops pass 3 retires, pass 1's order
/// and the sends whose self delivery completes after the last flush.
struct WaitallScratch {
  std::vector<AsyncOp *> ops;
  std::vector<AsyncOp *> pending;
  std::vector<int> order;
  std::vector<int> deferred_sends;
};
thread_local WaitallScratch t_waitall_scratch;

} // namespace

int waitall(int count, MPI_Request *requests, MPI_Status *statuses,
            const interpose::MpiTable &next) {
  if (count < 0 || (count > 0 && requests == nullptr)) {
    return MPI_ERR_ARG;
  }
  WaitallScratch &scratch = t_waitall_scratch;
  std::vector<AsyncOp *> &ops = scratch.ops;
  ops.assign(static_cast<std::size_t>(count), nullptr);
  for (int i = 0; i < count; ++i) {
    if (requests[i] != MPI_REQUEST_NULL) {
      ops[static_cast<std::size_t>(i)] = find(requests[i]);
    }
  }
  // Pass 1: complete every transfer leg, but only *enqueue* the unpack
  // legs — TEMPI receives pipeline on the stream without a host sync.
  // Rendezvous receives go first (pass1_order). Fusable receives do not
  // even launch: their unpacks collect in `batch` and go out just before
  // the next rendezvous-sized wire wait (so they run under it) and once
  // more at the end of the pass, as one kernel or one recorded batch.
  // Sends with a pending self delivery complete after that last flush, so
  // a delivery into a receive of this Waitall transcodes inside its flush.
  std::vector<AsyncOp *> &pending = scratch.pending;
  pending.assign(static_cast<std::size_t>(count), nullptr);
  std::vector<int> &deferred_sends = scratch.deferred_sends;
  deferred_sends.clear();
  std::vector<vcuda::StreamHandle> streams;
  std::vector<vcuda::StreamHandle> fence_streams; ///< claimed programs
  UnpackBatch batch;
  int unpacks_batched = 0;
  // On any failure, ops already completed in pass 1 must still be retired
  // so the application is not left holding dangling pool tickets (a
  // persistent op goes inactive instead). Wire bytes that already landed
  // still get their unpack (the pending batch launches first), and
  // enqueued unpack legs must drain: retiring returns the intermediates to
  // the cache, which is only safe once no stream work references them.
  const auto bail = [&](int rc) {
    batch.flush(streams, fence_streams);
    for (const int i : deferred_sends) {
      AsyncOp *op = ops[static_cast<std::size_t>(i)];
      complete_send(*op, next);
      pending[static_cast<std::size_t>(i)] = op;
    }
    for (vcuda::StreamHandle s : streams) {
      vcuda::StreamSynchronize(s);
    }
    for (vcuda::StreamHandle s : fence_streams) {
      vcuda::StreamFence(s);
    }
    for (int i = 0; i < count; ++i) {
      if (AsyncOp *op = pending[static_cast<std::size_t>(i)]) {
        retire(*op, &requests[i]);
      }
    }
    return rc;
  };
  std::vector<int> &order = scratch.order;
  pass1_order(count, requests, ops, order);
  for (int n = 0; n < count; ++n) {
    const int i = order.empty() ? n : order[static_cast<std::size_t>(n)];
    MPI_Status *status =
        statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
    if (requests[i] == MPI_REQUEST_NULL) {
      continue;
    }
    AsyncOp *op = ops[static_cast<std::size_t>(i)];
    if (op == nullptr) {
      const MPI_Request forwarded_request = requests[i];
      const int rc = next.Wait(&requests[i], status);
      if (rc != MPI_SUCCESS) {
        return bail(rc);
      }
      note_forwarded_done(forwarded_request, /*freed=*/false);
      continue;
    }
    if (inactive(*op)) {
      if (status != MPI_STATUS_IGNORE) {
        *status = MPI_Status{}; // completes immediately, empty
      }
      continue;
    }
    int rc = MPI_SUCCESS;
    if (op->kind == AsyncOp::Kind::Send) {
      if (op->delivery) {
        deferred_sends.push_back(i);
        continue;
      }
      rc = complete_send(*op, next);
    } else {
      rc = complete_recv_deferred(*op, next, batch, streams, fence_streams);
      unpacks_batched += op->phase == OpPhase::UnpackPending ? 1 : 0;
    }
    if (rc != MPI_SUCCESS) {
      // Drain any legs the failing op enqueued before its buffers return
      // to the cache (bail() syncs only after this retire).
      drain_op_streams(*op);
      retire(*op, &requests[i]);
      return bail(rc);
    }
    pending[static_cast<std::size_t>(i)] = op;
  }
  if (const int rc = batch.flush(streams, fence_streams);
      rc != MPI_SUCCESS) {
    return bail(rc);
  }
  for (const int i : deferred_sends) {
    AsyncOp *op = ops[static_cast<std::size_t>(i)];
    if (const int rc = complete_send(*op, next); rc != MPI_SUCCESS) {
      return bail(rc);
    }
    pending[static_cast<std::size_t>(i)] = op;
  }
  // Pass 2: one host synchronization per stream that holds batched unpack
  // work (the pipelining payoff of the request engine). Claimed program
  // streams take the cheaper pre-armed fence. A pass with no stream to
  // wait on emits no span.
  if (!streams.empty() || !fence_streams.empty()) {
    trace::ScopedSpan sync(trace::Phase::Unpack, trace::OpKind::None,
                           static_cast<std::uint64_t>(unpacks_batched));
    for (vcuda::StreamHandle s : streams) {
      vcuda::StreamSynchronize(s);
    }
    for (vcuda::StreamHandle s : fence_streams) {
      vcuda::StreamFence(s);
    }
  }
  if (unpacks_batched > 1) {
    pool().batched_syncs.add();
  }
  // Pass 3: publish statuses and retire (persistent ops re-arm).
  for (int i = 0; i < count; ++i) {
    AsyncOp *op = pending[static_cast<std::size_t>(i)];
    if (op == nullptr) {
      continue;
    }
    op->phase = OpPhase::Complete;
    if (statuses != MPI_STATUSES_IGNORE) {
      if (op->kind == AsyncOp::Kind::Recv) {
        fill_recv_status(*op, &statuses[i]);
      } else {
        statuses[i] = MPI_Status{}; // default send status, as sysmpi does
      }
    }
    retire(*op, &requests[i]);
  }
  return MPI_SUCCESS;
}

int waitany(int count, MPI_Request *requests, int *index, MPI_Status *status,
            const interpose::MpiTable &next) {
  if (count < 0 || (count > 0 && requests == nullptr) || index == nullptr) {
    return MPI_ERR_ARG;
  }
  // Fair poll across TEMPI tickets and system requests, mirroring the
  // system MPI's Waitany sweep (including its per-sweep virtual cost).
  // Inactive persistent entries are ignored like null slots, per MPI —
  // otherwise one that already completed would be "won" forever.
  while (true) {
    bool any_active = false;
    for (int i = 0; i < count; ++i) {
      EntryProbe probe = EntryProbe::Inactive;
      const int rc = probe_entry(&requests[i], status, next, &probe);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
      any_active = any_active || probe != EntryProbe::Inactive;
      if (probe == EntryProbe::Completed) {
        *index = i;
        return MPI_SUCCESS;
      }
    }
    if (!any_active) {
      *index = MPI_UNDEFINED;
      return MPI_SUCCESS;
    }
    vcuda::this_thread_timeline().advance(kPollSweepNs);
    std::this_thread::yield();
  }
}

int testsome(int incount, MPI_Request *requests, int *outcount, int *indices,
             MPI_Status *statuses, const interpose::MpiTable &next) {
  if (incount < 0 || (incount > 0 && requests == nullptr) ||
      outcount == nullptr || indices == nullptr) {
    return MPI_ERR_ARG;
  }
  bool any_active = false;
  int done = 0;
  for (int i = 0; i < incount; ++i) {
    MPI_Status *status = statuses == MPI_STATUSES_IGNORE
                             ? MPI_STATUS_IGNORE
                             : &statuses[done];
    EntryProbe probe = EntryProbe::Inactive;
    const int rc = probe_entry(&requests[i], status, next, &probe);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    any_active = any_active || probe != EntryProbe::Inactive;
    if (probe == EntryProbe::Completed) {
      indices[done++] = i;
    }
  }
  *outcount = any_active ? done : MPI_UNDEFINED;
  return MPI_SUCCESS;
}

int waitsome(int incount, MPI_Request *requests, int *outcount, int *indices,
             MPI_Status *statuses, const interpose::MpiTable &next) {
  if (incount < 0 || (incount > 0 && requests == nullptr) ||
      outcount == nullptr || indices == nullptr) {
    return MPI_ERR_ARG;
  }
  // Poll sweeps until at least one entry completes, returning everything
  // the successful sweep found (mirroring waitany's fair sweep).
  while (true) {
    const int rc = testsome(incount, requests, outcount, indices, statuses,
                            next);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    if (*outcount == MPI_UNDEFINED || *outcount > 0) {
      return MPI_SUCCESS;
    }
    vcuda::this_thread_timeline().advance(kPollSweepNs);
    std::this_thread::yield();
  }
}

int testall(int count, MPI_Request *requests, int *flag,
            MPI_Status *statuses, const interpose::MpiTable &next) {
  if (count < 0 || (count > 0 && requests == nullptr) || flag == nullptr) {
    return MPI_ERR_ARG;
  }
  // Already-done entries (null slots, disarmed persistent tickets) count
  // as complete without touching their status slot — probe_entry reports
  // them Inactive — so a status written by the poll that completed the
  // entry survives later flag=0 polls instead of being clobbered empty.
  int done = 0;
  for (int i = 0; i < count; ++i) {
    MPI_Status *status =
        statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
    EntryProbe probe = EntryProbe::Inactive;
    const int rc = probe_entry(&requests[i], status, next, &probe);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    done += probe != EntryProbe::Pending ? 1 : 0;
  }
  *flag = done == count ? 1 : 0;
  return MPI_SUCCESS;
}

int testany(int count, MPI_Request *requests, int *index, int *flag,
            MPI_Status *status, const interpose::MpiTable &next) {
  if (count < 0 || (count > 0 && requests == nullptr) || index == nullptr ||
      flag == nullptr) {
    return MPI_ERR_ARG;
  }
  bool any_active = false;
  for (int i = 0; i < count; ++i) {
    EntryProbe probe = EntryProbe::Inactive;
    const int rc = probe_entry(&requests[i], status, next, &probe);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    any_active = any_active || probe != EntryProbe::Inactive;
    if (probe == EntryProbe::Completed) {
      *index = i;
      *flag = 1;
      return MPI_SUCCESS;
    }
  }
  *index = MPI_UNDEFINED;
  *flag = any_active ? 0 : 1;
  return MPI_SUCCESS;
}

std::size_t in_flight() {
  Pool &p = pool();
  std::size_t n = 0;
  for (const auto &s : p.shards) {
    const std::lock_guard<support::ContendedMutex> lock(s->mutex);
    for (const auto &[ticket, op] : s->ops) {
      n += op->persistent ? 0 : 1;
    }
  }
  return n;
}

std::size_t drain(const interpose::MpiTable &next) {
  // Empty every shard (ascending order, one lock at a time); uninstall
  // runs with no MPI traffic in flight on other threads (see
  // tempi::uninstall's contract).
  std::unordered_map<MPI_Request, std::unique_ptr<AsyncOp>> orphans;
  {
    Pool &p = pool();
    for (const auto &s : p.shards) {
      const std::lock_guard<support::ContendedMutex> lock(s->mutex);
      orphans.merge(s->ops);
      s->ops.clear();
    }
    p.persistent_gen.fetch_add(1, std::memory_order_release);
  }
  {
    // Forwarded receives outlive the interposer; their completion is no
    // longer seen.
    ForwardedRecvs &f = forwarded();
    const std::lock_guard<std::mutex> lock(f.mutex);
    f.recvs.clear();
    f.size.store(0, std::memory_order_release);
  }
  // Deferred sends of any thread go on the wire first, in each list's
  // order.
  for (auto &[ticket, op] : orphans) {
    if (op->burst) {
      const std::lock_guard<std::mutex> lock(op->burst->mutex);
      if (op->deferred) {
        flush_list(*op->burst, FlushReason::Drain, next);
      }
    }
  }
  std::size_t dropped = 0;
  for (auto &[ticket, op] : orphans) {
    (void)ticket;
    const bool send = op->kind == AsyncOp::Kind::Send;
    if (send && op->phase == OpPhase::TransferPosted) {
      // The wire already departed; reclaiming the system request is safe
      // and silent (buffered sends are born complete). A self delivery's
      // pending transcode is dropped with its receive, never launched.
      op->drop_delivery();
      complete_send(*op, next);
      if (!op->persistent) {
        continue;
      }
    }
    // No stream drain here, deliberately: the op's pool streams are
    // thread-local to rank threads that have typically exited by
    // uninstall time (touching them would be use-after-free), and every
    // "async" leg already executed its byte movement synchronously at
    // enqueue — only virtual completion bookkeeping remains, which is
    // moot for an abandoned op whose user buffer is undefined per the
    // uninstall contract. Destroying the op returns its leases and
    // destroys its graphs.
    ++dropped;
    if (op->persistent) {
      // An un-freed persistent request holds pinned leases and recorded
      // graphs for its whole lifetime; leaking them past uninstall would
      // trip the ASan leak check, so it is released here, loudly.
      support::log_error(
          "tempi: uninstall dropped an un-freed persistent ",
          send ? "send" : "receive", " (peer ", op->peer, ", tag ", op->tag,
          ", ", inactive(*op) ? "inactive" : "ARMED",
          "); call MPI_Request_free on every persistent request before "
          "tempi::uninstall()");
      continue;
    }
    // A receive that was never matched (or a send that never reached the
    // wire) cannot be finished without the application: fail loudly and
    // release the op's resources rather than leaking pool state.
    support::log_error(
        "tempi: uninstall dropped an in-flight non-blocking ",
        send ? "send" : "receive", " (peer ", op->peer, ", tag ", op->tag,
        "); complete all requests before tempi::uninstall()");
  }
  return dropped;
}

bool configure_shards(std::size_t n) {
  Pool &p = pool();
  const std::size_t want =
      std::bit_ceil(std::clamp<std::size_t>(n, 1, kMaxShards));
  // The layout can only change while the pool is idle: an op keyed under
  // the old hash would be unreachable under the new one.
  for (const auto &s : p.shards) {
    const std::lock_guard<support::ContendedMutex> lock(s->mutex);
    if (!s->ops.empty()) {
      return false;
    }
  }
  if (want != p.shards.size()) {
    p.resize(want);
  }
  p.persistent_gen.fetch_add(1, std::memory_order_release);
  return true;
}

std::size_t shard_count() { return pool().shards.size(); }

support::LockStats pool_lock_stats() {
  support::LockStats total;
  for (const auto &s : pool().shards) {
    const support::LockStats ls = s->mutex.stats();
    total.acquires += ls.acquires;
    total.contended += ls.contended;
  }
  return total;
}

void reset_pool_lock_stats() {
  for (const auto &s : pool().shards) {
    s->mutex.reset_stats();
  }
}

} // namespace tempi::async
