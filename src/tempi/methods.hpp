// Datatype-accelerated point-to-point transfers built from contiguous
// system MPI primitives (Sec. 4): the device, one-shot, and staged packing
// methods, plus the Pipelined (chunked) method.
//
// All three monolithic methods share the structure pack -> contiguous
// transfer -> unpack; they differ in where the intermediate buffer lives
// and which transfer leg the system MPI performs. The wire carries plain
// packed bytes, so sender and receiver may independently choose methods.
//
// Each method is split into asynchronous start/finish halves, which the
// request engine (async.hpp) strings together for every packer-driven
// transfer, blocking MPI_Send/MPI_Recv included:
//   sender:   lease_pack -> start_pack -> StreamSynchronize
//             -> contiguous transfer
//   receiver: start_recv -> contiguous transfer -> start_unpack
//             -> StreamSynchronize
// The start halves only enqueue work on the vcuda stream, so several legs
// from different requests can pipeline before a single host sync. Every
// transfer draws its streams round-robin from the per-rank pool
// (vcuda::next_pool_stream), keeping its legs off the default stream, so
// it neither waits for nor delays unrelated work enqueued there.
#pragma once

#include "interpose/table.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/packer.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/trace.hpp"

#include <cstdint>
#include <functional>
#include <vector>

namespace tempi {

/// The intermediate buffers of one in-flight accelerated operation. The
/// leased buffers stay pinned to the pipeline (not the lexical scope), so a
/// non-blocking op can hold them until request completion.
struct PackPipeline {
  CachedBuffer wire;     ///< buffer handed to the system MPI transfer leg
  CachedBuffer stage;    ///< staged method only: device-side kernel target
  std::size_t bytes = 0; ///< packed wire bytes (full width; no int wrap)

  /// The wire leg's MPI count. Valid only after lease_pack/start_recv
  /// succeeded, which guarantees bytes <= kMaxWireBytes.
  [[nodiscard]] int wire_count() const { return static_cast<int>(bytes); }
};

// kMaxWireBytes and the injectable wire_chunk_limit() the monolithic
// methods enforce (MPI_ERR_COUNT beyond it) live in perf_model.hpp; the
// Pipelined method below carries larger messages as multiple wire legs.

/// Where the packed intermediate lives for a method's wire leg.
vcuda::MemorySpace intermediate_space(Method m);

/// Sender lease half: size the pipeline for `count` objects and lease the
/// intermediates of `m`. Fails with MPI_ERR_COUNT above the wire limit and
/// MPI_ERR_OTHER when a lease fails. Kept apart from start_pack so a timed
/// pack does not include a cache miss's allocation.
int lease_pack(const Packer &packer, Method m, int count, PackPipeline *pipe);

/// Sender start half: enqueue the pack leg(s) of `m` on `stream` into a
/// pipeline lease_pack filled, without synchronizing. After
/// StreamSynchronize, the wire buffer holds `pipe->bytes` packed bytes
/// ready for a contiguous transfer.
int start_pack(const Packer &packer, Method m, const void *buf, int count,
               vcuda::StreamHandle stream, PackPipeline *pipe);

/// Receiver start half: lease the wire intermediate the contiguous
/// transfer should land in (before any transfer is posted). Fails with
/// MPI_ERR_COUNT above the wire limit and MPI_ERR_OTHER when the lease
/// itself fails; callers must not post a transfer into a failed pipeline.
int start_recv(const Packer &packer, Method m, int count, PackPipeline *pipe);

/// Receiver finish half: enqueue the unpack leg(s) of `m` for the first
/// `count` objects in the filled wire buffer into `buf` on `stream`,
/// without synchronizing. A short message passes the objects that
/// arrived. The staged method leases its device stage unless the pipeline
/// already holds one that large.
int start_unpack(const Packer &packer, Method m, void *buf, int count,
                 PackPipeline &pipe, vcuda::StreamHandle stream);

// --- the Pipelined (chunked) method ------------------------------------------
//
// One message is split at block boundaries (dimension-0 rows, the packed
// stream's natural unit — so even a single count==1 object splits) into
// wire legs of up to `chunk` packed bytes and pipelined: while leg i
// rides the wire, leg i+1 packs (sender) and leg i-1 unpacks (receiver),
// double-buffering two chunk-sized wire leases instead of one
// whole-message buffer. All legs share (source, tag, comm), so the system
// MPI's per-pair ordering keeps reassembly trivial, and messages above
// the wire-chunk limit — which the monolithic methods reject with
// MPI_ERR_COUNT — are carried as multiple ordered legs.
//
// Wire protocol: every leg except the last carries exactly `chunk` bytes
// (a whole number of blocks); the final leg is strictly smaller, with an
// empty terminator leg appended when the total divides evenly. The
// receiver therefore needs no out-of-band chunk size: the first leg's
// actual byte count *is* the chunk, and any shorter leg ends the message.
//
// Framing contract: unlike the monolithic methods — whose one-message
// wire format lets sender and receiver pick methods independently, even
// when one side falls through to the system path — multi-leg framing
// must be run by BOTH endpoints of a message. Auto mode therefore only
// selects Pipelined above the wire-chunk limit, where the decision is
// forced identically on both accelerated endpoints by the payload size
// itself and where the monolithic methods could not carry the message at
// all (a peer receiving such a message into a buffer TEMPI cannot
// accelerate — host-resident, untranslatable type — stays outside the
// contract, exactly as it was outside the monolithic sender's 2 GiB
// reach); under the
// limit, pipelining is an explicit opt-in (SendMode::ForcePipelined /
// TEMPI_METHOD=pipelined) for symmetric SPMD deployments where every
// rank runs the same configuration against the same payloads. A single
// contiguous block whose packed size exceeds the wire-chunk limit cannot
// be split and still fails with MPI_ERR_COUNT.

/// The frozen leg layout of one pipelined message: every full leg carries
/// exactly `chunk` bytes (a whole number of blocks), the final leg is
/// strictly smaller (an empty terminator on even division). Every sender
/// walks one frame — the live and replayed packer-driven ones and the
/// collectives engine's pre-packed one — so the wire framing cannot drift
/// between them.
struct PipelineFrame {
  std::size_t block = 0;        ///< bytes per block (1 for pre-packed bytes)
  std::size_t chunk = 0;        ///< bytes per full leg
  long long blocks_per_leg = 0;
  long long full_legs = 0;      ///< legs carrying exactly `chunk`
  long long rem_blocks = 0;     ///< blocks on the final (short) leg
  long long legs = 0;           ///< full_legs + 1: remainder or terminator
  [[nodiscard]] long long leg_blocks(long long leg) const {
    return leg < full_legs ? blocks_per_leg : rem_blocks;
  }
  [[nodiscard]] std::size_t leg_bytes(long long leg) const {
    return static_cast<std::size_t>(leg_blocks(leg)) * block;
  }
  [[nodiscard]] std::size_t total_bytes() const {
    return static_cast<std::size_t>(full_legs) * chunk + leg_bytes(full_legs);
  }
};

/// Frame `total_blocks` blocks of `block_bytes` each — a packer passes
/// (wire_block_bytes(), total_blocks(count)), a pre-packed payload
/// (1, bytes) — with target leg size `chunk_target` (0 =
/// fallback_chunk_bytes; the TEMPI_CHUNK_BYTES override is authoritative;
/// legs are whole blocks clamped to the wire-chunk limit and to the
/// payload, so at least one full leg precedes the final one). Fails with
/// MPI_ERR_ARG on empty payloads and MPI_ERR_COUNT when a single block
/// exceeds the wire limit.
int plan_pipeline_frame(std::size_t block_bytes, long long total_blocks,
                        std::size_t chunk_target, PipelineFrame *frame);

/// Send `count` objects chunked over the wire, overlapping each leg's
/// pack with the previous leg's transfer. `chunk_target` is the model- or
/// override-chosen leg size in bytes (see plan_pipeline_frame). Runs every
/// leg to completion: the system MPI's sends are buffered, so this never
/// blocks on the receiver, which is what lets the request engine post
/// pipelined sends eagerly at Isend time. Every leg's spans carry `kind`,
/// the API call the message belongs to.
int send_pipelined(const Packer &packer, const void *buf, int count,
                   int dest, int tag, MPI_Comm comm, std::size_t chunk_target,
                   const interpose::MpiTable &next, trace::OpKind kind);

/// Send `total` pre-packed contiguous bytes (a collectives-engine leg) as
/// plain sub-slice legs of the same framing: no pack kernels, no chunk
/// leases. Every leg is a buffered send, preserving the request engine's
/// eager deadlock discipline.
int send_packed_pipelined(const void *bytes, std::size_t total, int dest,
                          int tag, MPI_Comm comm, std::size_t chunk_target,
                          const interpose::MpiTable &next);

/// Receiver-side per-chunk state machine, driven leg by leg by the request
/// engine: Wait (and a blocking MPI_Recv) run it to completion, Test
/// consumes the legs that have arrived. Each step() blocks for one wire
/// leg.
///
/// A leg goes one of two ways. Unpacking: when legs are whole receiver
/// blocks, each lands in one of two ping-pong chunk leases and its unpack
/// is enqueued without synchronizing, so the unpack of leg i-1 overlaps
/// the wire wait of leg i. Landing: legs land at a running offset of one
/// contiguous buffer, each capped at min(chunk, bytes still expected), so
/// an overrunning sender gets the system MPI's MPI_ERR_TRUNCATE. That
/// buffer is the caller's pre-packed bytes (a collectives-engine leg: no
/// streams, leases or syncs at all), or, when the sender's blocks are not
/// whole receiver blocks, one full-size lease unpacked once after the
/// final leg — correct, though no longer pipelined.
///
/// Call synchronize() before releasing the machine (even on error) so no
/// stream work references the leased buffers when they return to the
/// cache. Its wire and unpack spans carry `kind`, the API call the
/// receive belongs to.
class ChunkedRecv {
public:
  /// Unpack the legs into `count` objects at `buf` through `packer`.
  ChunkedRecv(const Packer &packer, void *buf, int count, int source,
              int tag, MPI_Comm comm, trace::OpKind kind);
  /// Land the legs in `expected` pre-packed bytes at `dst`.
  ChunkedRecv(void *dst, std::size_t expected, int source, int tag,
              MPI_Comm comm);

  /// Receive the next wire leg (blocking) and land or unpack it.
  /// Returns MPI_SUCCESS and flips done() after the final (short) leg.
  int step(const interpose::MpiTable &next);

  /// True if the next leg has already arrived, so step() would not block
  /// on the wire (Test-driven progress in the request engine).
  [[nodiscard]] bool ready(const interpose::MpiTable &next) const;

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::size_t bytes_received() const { return received_; }
  [[nodiscard]] std::size_t expected_bytes() const { return expected_; }
  /// False for a machine landing in the caller's bytes: it leaves no
  /// stream work behind.
  [[nodiscard]] bool unpacks() const { return packer_ != nullptr; }

  /// Streams carrying still-unsynchronized unpack legs (Waitall batches
  /// the final sync across requests).
  void append_streams(std::vector<vcuda::StreamHandle> &streams) const;

  /// Synchronize the unpack streams (idempotent; nothing to do when the
  /// legs land in the caller's bytes).
  void synchronize();

  /// Publish MPI_SOURCE/MPI_TAG of the message (from the first leg) and
  /// the logical received byte count. Call only after done().
  void fill_status(MPI_Status *status) const;

private:
  int first_step(const interpose::MpiTable &next);
  int unpack_leg(std::size_t leg_bytes, int slot);

  const Packer *packer_ = nullptr; ///< null: landing in the caller's bytes
  void *buf_;
  int count_ = 0;
  int peer_;       ///< locked to the first leg's source (MPI_ANY_SOURCE)
  int tag_;        ///< locked to the first leg's tag (MPI_ANY_TAG)
  MPI_Comm comm_;
  trace::OpKind kind_;

  std::size_t expected_ = 0; ///< the packed bytes the receive can take
  std::size_t chunk_ = 0;    ///< first leg's size; legs < chunk_ terminate
  std::size_t received_ = 0;
  long long blocks_done_ = 0;
  long long legs_ = 0;
  bool started_ = false;
  bool done_ = false;
  /// Landing mode: legs land at offset received_ of this buffer (the
  /// caller's bytes, or slot_[0] when accumulating for one final unpack).
  std::byte *land_ = nullptr;

  CachedBuffer slot_[2]; ///< ping-pong chunk leases (or [0] = full buffer)
  vcuda::StreamHandle stream_[2] = {nullptr, nullptr};
  MPI_Status first_status_{};
};

// --- persistent-channel replay programs --------------------------------------
//
// MPI_Send_init/MPI_Recv_init freeze a channel: the method choice is made
// once (the model's exact Persistent decision), the staging/wire leases are
// acquired once and stay pinned for the channel's lifetime, and the
// pack/unpack launch sequence is recorded once as a vcuda graph — so
// every MPI_Start replays pre-baked work (one graph launch + a pre-armed
// fence) instead of paying per-kernel driver costs, lease probes, and
// model queries per send.

/// Run `record` between GraphBeginCapture/GraphEndCapture on `stream`
/// under a GraphCapture span of `kind`, storing the recorded graph in
/// `*graph`. When recording fails (or the capture cannot open or close),
/// the half-open capture is ended, its graph destroyed, `*graph` left
/// untouched, and the failure returned. Shared by persistent channels and
/// the repeated MPI_Pack/MPI_Unpack replay table.
int capture_on(vcuda::StreamHandle stream, vcuda::GraphHandle *graph,
               trace::OpKind kind, const std::function<int()> &record);

/// Frozen monolithic (one-shot/device/staged) program: the pinned
/// pipeline, the channel's dedicated stream, and one recorded graph
/// (sender: pack legs [+ D2H]; receiver: [H2D +] unpack legs).
struct PersistentProgram {
  PackPipeline pipe; ///< leases pinned until the channel is freed
  vcuda::StreamHandle stream = nullptr;
  vcuda::GraphHandle graph = nullptr;
  PersistentProgram() = default;
  PersistentProgram(const PersistentProgram &) = delete;
  PersistentProgram &operator=(const PersistentProgram &) = delete;
  ~PersistentProgram();
  /// Release the recorded graph and the pinned leases, returning to the
  /// freshly-constructed state — the re-freeze path (async.cpp) records a
  /// new program in place after a tuned-model generation bump.
  void clear();
};

/// Record the sender-side program: lease intermediates sized for `count`
/// objects and capture the pack leg(s) of `m` (not executed until
/// replay) under a GraphCapture span of `kind`. The user buffer pointer
/// is frozen into the graph, per MPI persistent semantics. Shared by
/// persistent send channels and the send-program replay table.
int record_persistent_send(const Packer &packer, Method m, const void *buf,
                           int count, PersistentProgram *prog,
                           trace::OpKind kind = trace::OpKind::Persistent);

/// Record the receiver-side program: lease the wire (and staged-method
/// staging) intermediates and capture the unpack leg(s) of `m` under a
/// GraphCapture span of `kind`. Replay order at completion: wire bytes
/// land in prog->pipe.wire, then the graph scatters them into the user
/// buffer. Shared by persistent receive channels and the blocking-receive
/// replay table.
int record_persistent_recv(const Packer &packer, Method m, void *buf,
                           int count, PersistentProgram *prog,
                           trace::OpKind kind = trace::OpKind::Persistent);

/// Frozen pipelined send program: per-leg pack graphs over two ping-pong
/// chunk leases on two fixed pool streams — the per-launch-overhead
/// worst case (L legs used to pay L kernel launches + L cold syncs; the
/// replay pays L graph launches + L pre-armed fences).
struct PipelinedSendProgram {
  PipelineFrame frame;
  CachedBuffer slot[2];
  vcuda::StreamHandle stream[2] = {nullptr, nullptr};
  /// One graph per leg; the empty terminator leg records none (nullptr).
  std::vector<vcuda::GraphHandle> leg_graphs;
  PipelinedSendProgram() = default;
  PipelinedSendProgram(const PipelinedSendProgram &) = delete;
  PipelinedSendProgram &operator=(const PipelinedSendProgram &) = delete;
  ~PipelinedSendProgram();
};

int record_pipelined_send(const Packer &packer, const void *buf, int count,
                          std::size_t chunk_target,
                          PipelinedSendProgram *prog);

/// Replay the program: identical wire framing and pack/wire overlap to
/// send_pipelined, with every leg's kernel chain replayed from its
/// recorded graph.
int replay_pipelined_send(const PipelinedSendProgram &prog, int dest, int tag,
                          MPI_Comm comm, const interpose::MpiTable &next);

} // namespace tempi
