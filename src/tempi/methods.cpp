#include "tempi/methods.hpp"

#include "sysmpi/mpi.hpp"
#include "tempi/trace.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

namespace tempi {

vcuda::MemorySpace intermediate_space(Method m) {
  switch (m) {
  case Method::Device:
  case Method::Pipelined: return vcuda::MemorySpace::Device;
  case Method::OneShot:
  case Method::Staged: return vcuda::MemorySpace::Pinned;
  }
  return vcuda::MemorySpace::Device;
}

namespace {

/// Size the pipeline for `count` objects; rejects packs the single wire
/// leg cannot express rather than wrapping. The limit is injectable
/// (wire_chunk_limit) so tests can exercise the rejection — and the
/// Pipelined method's multi-leg alternative — without gigabyte payloads.
int size_pipeline(const Packer &packer, int count, PackPipeline *pipe) {
  pipe->bytes = packer.packed_bytes(count);
  return pipe->bytes > wire_chunk_limit() ? MPI_ERR_COUNT : MPI_SUCCESS;
}

bool lease_failed(const CachedBuffer &buf, std::size_t bytes) {
  return bytes > 0 && buf.get() == nullptr;
}

} // namespace

int lease_pack(const Packer &packer, Method m, int count,
               PackPipeline *pipe) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // chunked transfers use send_pipelined/ChunkedRecv
  }
  if (const int rc = size_pipeline(packer, count, pipe); rc != MPI_SUCCESS) {
    return rc;
  }
  const std::size_t bytes = pipe->bytes;
  trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                          bytes);
  // Device: pack in device memory, hand the device buffer to CUDA-aware
  // MPI. OneShot: pack straight into mapped host memory through zero-copy
  // stores, then a plain host-to-host MPI transfer. Staged: pack in device
  // memory, copy down to pinned host, send from host.
  if (m == Method::Staged) {
    pipe->stage = lease_buffer(vcuda::MemorySpace::Device, bytes);
    if (lease_failed(pipe->stage, bytes)) {
      return MPI_ERR_OTHER;
    }
  }
  pipe->wire = lease_buffer(intermediate_space(m), bytes);
  return lease_failed(pipe->wire, bytes) ? MPI_ERR_OTHER : MPI_SUCCESS;
}

int start_pack(const Packer &packer, Method m, const void *buf, int count,
               vcuda::StreamHandle stream, PackPipeline *pipe) {
  void *target = m == Method::Staged ? pipe->stage.get() : pipe->wire.get();
  if (packer.pack_async(target, buf, count, stream) !=
      vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  if (m == Method::Staged) {
    vcuda::MemcpyAsync(pipe->wire.get(), pipe->stage.get(), pipe->bytes,
                       vcuda::MemcpyKind::DeviceToHost, stream);
  }
  return MPI_SUCCESS;
}

int start_recv(const Packer &packer, Method m, int count, PackPipeline *pipe) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // chunked transfers use send_pipelined/ChunkedRecv
  }
  if (const int rc = size_pipeline(packer, count, pipe); rc != MPI_SUCCESS) {
    return rc;
  }
  {
    trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                            pipe->bytes);
    pipe->wire = lease_buffer(intermediate_space(m), pipe->bytes);
  }
  if (lease_failed(pipe->wire, pipe->bytes)) {
    return MPI_ERR_OTHER;
  }
  return MPI_SUCCESS;
}

int start_unpack(const Packer &packer, Method m, void *buf, int count,
                 PackPipeline &pipe, vcuda::StreamHandle stream) {
  const std::size_t bytes = packer.packed_bytes(count);
  const void *unpack_src = pipe.wire.get();
  if (m == Method::Staged) {
    // Staged only: lift the wire bytes back to device memory first.
    if (pipe.stage.capacity() < bytes) {
      {
        trace::ScopedSpan lease(trace::Phase::LeaseAcquire,
                                trace::OpKind::None, bytes);
        pipe.stage = lease_buffer(vcuda::MemorySpace::Device, bytes);
      }
      if (lease_failed(pipe.stage, bytes)) {
        return MPI_ERR_OTHER;
      }
    }
    vcuda::MemcpyAsync(pipe.stage.get(), pipe.wire.get(), bytes,
                       vcuda::MemcpyKind::HostToDevice, stream);
    unpack_src = pipe.stage.get();
  }
  return packer.unpack_async(buf, unpack_src, count, stream) ==
                 vcuda::Error::Success
             ? MPI_SUCCESS
             : MPI_ERR_OTHER;
}

// --- the Pipelined (chunked) method ------------------------------------------

int plan_pipeline_frame(std::size_t block_bytes, long long total_blocks,
                        std::size_t chunk_target, PipelineFrame *frame) {
  const std::size_t limit = wire_chunk_limit();
  if (block_bytes == 0 || total_blocks <= 0) {
    return MPI_ERR_ARG; // the acceleration gate filters empty payloads
  }
  if (block_bytes > limit) {
    // Chunks split at block (dimension-0 row) boundaries; one contiguous
    // block beyond the wire limit keeps the historical rejection.
    return MPI_ERR_COUNT;
  }
  if (const std::size_t o = chunk_bytes_override(); o != 0) {
    chunk_target = o; // TEMPI_CHUNK_BYTES is authoritative
  } else if (chunk_target == 0) {
    chunk_target = fallback_chunk_bytes(
        static_cast<std::size_t>(total_blocks) * block_bytes);
  }
  // Whole blocks per leg, at least one, never exceeding the wire limit or
  // the payload: a lone data leg the receiver took for a full one would
  // leave it waiting for a terminator forever.
  frame->block = block_bytes;
  frame->blocks_per_leg = std::min<long long>(
      std::max<long long>(
          static_cast<long long>(std::min(chunk_target, limit) / block_bytes),
          1),
      total_blocks);
  frame->chunk = static_cast<std::size_t>(frame->blocks_per_leg) * block_bytes;
  frame->full_legs = total_blocks / frame->blocks_per_leg;
  frame->rem_blocks = total_blocks % frame->blocks_per_leg;
  // Wire protocol: full legs carry exactly `chunk` bytes; the final leg is
  // strictly smaller, so an evenly divided message appends an empty
  // terminator leg. The receiver keys termination off "leg < first leg".
  frame->legs = frame->full_legs + 1; // remainder leg or empty terminator
  return MPI_SUCCESS;
}

namespace {

struct PipelineCounters {
  trace::Counter sends{"tempi.pipeline.sends"};
  trace::Counter recvs{"tempi.pipeline.recvs"};
  trace::Counter chunks{"tempi.pipeline.chunks"};
  trace::Counter over_ceiling_bytes{"tempi.pipeline.over_ceiling_bytes"};
};

/// Namespace scope, so the counters register at static initialisation.
PipelineCounters g_pipeline_counters;

/// The one leg loop every pipelined sender runs. Per leg, `step(leg,
/// &wire)` readies the leg's bytes at `wire` (a live sender also enqueues
/// the next leg's pack, a replayed one launches its graph); the leg then
/// leaves as one buffered system Send under a Wire span of `kind`.
/// `observe_wire` feeds those sends to the tuner's GPU wire axis.
template <class Step>
int send_legs(const PipelineFrame &f, int dest, int tag, MPI_Comm comm,
              const interpose::MpiTable &next, trace::OpKind kind,
              bool observe_wire, Step &&step) {
  g_pipeline_counters.sends.add();
  if (const std::size_t total = f.total_bytes(); total > wire_chunk_limit()) {
    g_pipeline_counters.over_ceiling_bytes.add(total);
  }
  for (long long leg = 0; leg < f.legs; ++leg) {
    const void *wire = nullptr;
    int rc = step(leg, &wire);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    const std::size_t leg_bytes = f.leg_bytes(leg);
    {
      trace::ScopedSpan span(trace::Phase::Wire, kind, leg_bytes, dest, tag,
                             static_cast<std::int8_t>(Method::Pipelined));
      tune::ScopedObservation obs(
          tune::Axis::GpuWire, 0, leg_bytes,
          observe_wire && tune::wire_observable(leg_bytes));
      rc = next.Send(wire, static_cast<int>(leg_bytes), MPI_BYTE, dest, tag,
                     comm);
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    g_pipeline_counters.chunks.add();
  }
  return MPI_SUCCESS;
}

} // namespace

int send_pipelined(const Packer &packer, const void *buf, int count,
                   int dest, int tag, MPI_Comm comm, std::size_t chunk_target,
                   const interpose::MpiTable &next, trace::OpKind kind) {
  PipelineFrame f;
  if (const int rc = plan_pipeline_frame(
          static_cast<std::size_t>(packer.wire_block_bytes()),
          packer.total_blocks(count), chunk_target, &f);
      rc != MPI_SUCCESS) {
    return rc;
  }
  // Two chunk-sized wire leases ping-pong: while leg i rides the wire,
  // leg i+1 packs into the other buffer on the other stream. The system
  // MPI copies the payload out before Send returns, so a slot is reusable
  // as soon as its Send completes.
  vcuda::StreamHandle stream[2] = {vcuda::next_pool_stream(),
                                   vcuda::next_pool_stream()};
  CachedBuffer slot[2];
  {
    trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                            2 * f.chunk);
    for (int s = 0; s < 2; ++s) {
      slot[s] = lease_buffer(vcuda::MemorySpace::Device, f.chunk);
    }
  }
  for (int s = 0; s < 2; ++s) {
    if (lease_failed(slot[s], f.chunk)) {
      return MPI_ERR_OTHER;
    }
  }
  const auto pack = [&](long long leg) {
    return packer.pack_range_async(slot[leg & 1].get(), buf,
                                   leg * f.blocks_per_leg, f.leg_blocks(leg),
                                   stream[leg & 1]) == vcuda::Error::Success;
  };
  const int rc = send_legs(
      f, dest, tag, comm, next, kind, /*observe_wire=*/true,
      [&](long long leg, const void **wire) {
        const int s = static_cast<int>(leg & 1);
        if (leg == 0 && !pack(0)) {
          return MPI_ERR_OTHER;
        }
        {
          // The wire must not depart before this leg's pack completes. The
          // measured duration is the *residual* pack time after overlap
          // with the previous leg's wire — exactly the effective per-chunk
          // pack cost estimate_pipelined_us should use, so full
          // (chunk-sized) legs feed the tuner at the chunk's {block, leg
          // bytes} knot.
          trace::ScopedSpan span(trace::Phase::PackLaunch, kind, 0, dest, tag,
                                 static_cast<std::int8_t>(Method::Pipelined));
          tune::ScopedObservation obs(
              tune::Axis::DevicePack, f.block, f.leg_bytes(leg),
              leg < f.full_legs); // stay on-knot: full legs only
          vcuda::StreamSynchronize(stream[s]);
        }
        // Enqueue the next leg's pack *before* this leg's blocking send:
        // the stream runs ahead of the host, so the pack overlaps the
        // wire time.
        if (leg + 1 < f.legs && f.leg_blocks(leg + 1) > 0 && !pack(leg + 1)) {
          return MPI_ERR_OTHER;
        }
        *wire = slot[s].get();
        return MPI_SUCCESS;
      });
  // Drain both streams before the leases return to the cache (also covers
  // the error path, where a pack for the next leg may still be enqueued).
  vcuda::StreamSynchronize(stream[0]);
  vcuda::StreamSynchronize(stream[1]);
  return rc;
}

int send_packed_pipelined(const void *bytes, std::size_t total, int dest,
                          int tag, MPI_Comm comm, std::size_t chunk_target,
                          const interpose::MpiTable &next) {
  PipelineFrame f;
  if (const int rc = plan_pipeline_frame(1, static_cast<long long>(total),
                                         chunk_target, &f);
      rc != MPI_SUCCESS) {
    return rc;
  }
  const auto *p = static_cast<const std::byte *>(bytes);
  return send_legs(f, dest, tag, comm, next, trace::OpKind::Coll,
                   /*observe_wire=*/false,
                   [&](long long leg, const void **wire) {
                     *wire = p + static_cast<std::size_t>(leg) * f.chunk;
                     return MPI_SUCCESS;
                   });
}

// --- persistent-channel replay programs --------------------------------------

PersistentProgram::~PersistentProgram() {
  if (graph != nullptr) {
    vcuda::GraphDestroy(graph);
  }
}

void PersistentProgram::clear() {
  if (graph != nullptr) {
    vcuda::GraphDestroy(graph);
    graph = nullptr;
  }
  pipe = PackPipeline{}; // drops the pinned wire/stage leases
  stream = nullptr;      // pool stream: not owned, just forgotten
}

PipelinedSendProgram::~PipelinedSendProgram() {
  for (vcuda::GraphHandle g : leg_graphs) {
    if (g != nullptr) {
      vcuda::GraphDestroy(g);
    }
  }
}

int capture_on(vcuda::StreamHandle stream, vcuda::GraphHandle *graph,
               trace::OpKind kind, const std::function<int()> &record) {
  trace::ScopedSpan span(trace::Phase::GraphCapture, kind);
  if (vcuda::GraphBeginCapture(stream) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  const int rc = record();
  vcuda::GraphHandle g = nullptr;
  if (vcuda::GraphEndCapture(stream, &g) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  if (rc != MPI_SUCCESS) {
    vcuda::GraphDestroy(g);
    return rc;
  }
  *graph = g;
  return MPI_SUCCESS;
}

int record_persistent_send(const Packer &packer, Method m, const void *buf,
                           int count, PersistentProgram *prog,
                           trace::OpKind kind) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // pipelined channels use record_pipelined_send
  }
  prog->stream = vcuda::next_pool_stream();
  // Under capture the leases happen live (they are pinned to the channel)
  // while the kernel/copy chain is recorded instead of executed.
  return capture_on(prog->stream, &prog->graph, kind, [&] {
    const int rc = lease_pack(packer, m, count, &prog->pipe);
    return rc != MPI_SUCCESS ? rc
                             : start_pack(packer, m, buf, count, prog->stream,
                                          &prog->pipe);
  });
}

int record_persistent_recv(const Packer &packer, Method m, void *buf,
                           int count, PersistentProgram *prog,
                           trace::OpKind kind) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // pipelined receives re-arm a ChunkedRecv instead
  }
  prog->stream = vcuda::next_pool_stream();
  // The wire lease is acquired live (the transfer lands in it every
  // replay); only the [H2D +] unpack chain is recorded.
  if (const int rc = start_recv(packer, m, count, &prog->pipe);
      rc != MPI_SUCCESS) {
    return rc;
  }
  return capture_on(prog->stream, &prog->graph, kind, [&] {
    return start_unpack(packer, m, buf, count, prog->pipe, prog->stream);
  });
}

int record_pipelined_send(const Packer &packer, const void *buf, int count,
                          std::size_t chunk_target,
                          PipelinedSendProgram *prog) {
  if (const int rc = plan_pipeline_frame(
          static_cast<std::size_t>(packer.wire_block_bytes()),
          packer.total_blocks(count), chunk_target, &prog->frame);
      rc != MPI_SUCCESS) {
    return rc;
  }
  const PipelineFrame &f = prog->frame;
  prog->stream[0] = vcuda::next_pool_stream();
  prog->stream[1] = vcuda::next_pool_stream();
  for (int s = 0; s < 2; ++s) {
    prog->slot[s] = lease_buffer(vcuda::MemorySpace::Device, f.chunk);
    if (lease_failed(prog->slot[s], f.chunk)) {
      return MPI_ERR_OTHER;
    }
  }
  prog->leg_graphs.assign(static_cast<std::size_t>(f.legs), nullptr);
  for (long long leg = 0; leg < f.legs; ++leg) {
    if (f.leg_blocks(leg) == 0) {
      continue; // the empty terminator replays as a bare zero-byte send
    }
    const int s = static_cast<int>(leg & 1);
    const int rc = capture_on(
        prog->stream[s], &prog->leg_graphs[static_cast<std::size_t>(leg)],
        trace::OpKind::Persistent, [&] {
          return packer.pack_range_async(prog->slot[s].get(), buf,
                                         leg * f.blocks_per_leg,
                                         f.leg_blocks(leg),
                                         prog->stream[s]) ==
                         vcuda::Error::Success
                     ? MPI_SUCCESS
                     : MPI_ERR_OTHER;
        });
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

int replay_pipelined_send(const PipelinedSendProgram &prog, int dest, int tag,
                          MPI_Comm comm, const interpose::MpiTable &next) {
  const PipelineFrame &f = prog.frame;
  const auto launch_leg = [&](long long leg) {
    vcuda::GraphHandle g = prog.leg_graphs[static_cast<std::size_t>(leg)];
    return g == nullptr ||
           vcuda::GraphLaunch(g, prog.stream[leg & 1]) ==
               vcuda::Error::Success;
  };
  // Same overlap discipline as send_pipelined — replay leg i+1's pack
  // graph before leg i's blocking send — with the per-leg launch + cold
  // sync replaced by a graph launch + pre-armed fence.
  const int rc = send_legs(
      f, dest, tag, comm, next, trace::OpKind::Persistent,
      /*observe_wire=*/false, [&](long long leg, const void **wire) {
        const int s = static_cast<int>(leg & 1);
        if (leg == 0 && !launch_leg(0)) {
          return MPI_ERR_OTHER;
        }
        {
          trace::ScopedSpan replay(trace::Phase::GraphReplay,
                                   trace::OpKind::Persistent, 0, dest, tag);
          vcuda::StreamFence(prog.stream[s]);
          if (leg + 1 < f.legs && !launch_leg(leg + 1)) {
            return MPI_ERR_OTHER;
          }
        }
        *wire = prog.slot[s].get();
        return MPI_SUCCESS;
      });
  // The slots are channel-pinned (not returning to the cache), but the
  // error path must still drain any replayed-but-unsent pack work.
  vcuda::StreamFence(prog.stream[0]);
  vcuda::StreamFence(prog.stream[1]);
  return rc;
}

ChunkedRecv::ChunkedRecv(const Packer &packer, void *buf, int count,
                         int source, int tag, MPI_Comm comm,
                         trace::OpKind kind)
    : packer_(&packer), buf_(buf), count_(count), peer_(source), tag_(tag),
      comm_(comm), kind_(kind), expected_(packer.packed_bytes(count)) {
  stream_[0] = vcuda::next_pool_stream();
  stream_[1] = vcuda::next_pool_stream();
  g_pipeline_counters.recvs.add();
}

ChunkedRecv::ChunkedRecv(void *dst, std::size_t expected, int source,
                         int tag, MPI_Comm comm)
    : buf_(dst), peer_(source), tag_(tag), comm_(comm),
      kind_(trace::OpKind::Coll), expected_(expected),
      land_(static_cast<std::byte *>(dst)) {
  g_pipeline_counters.recvs.add();
}

int ChunkedRecv::first_step(const interpose::MpiTable &next) {
  // The first leg defines the chunk size. Its buffer must hold any legal
  // first leg: the sender's chunk is bounded by the wire limit and by the
  // message itself (a larger first leg means the sender is shipping more
  // than we can take — the system MPI's truncation error reports it).
  const std::size_t cap =
      std::min(std::max<std::size_t>(expected_, 1), wire_chunk_limit());
  if (land_ == nullptr) {
    {
      trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                              cap);
      slot_[0] = lease_buffer(vcuda::MemorySpace::Device, cap);
    }
    if (lease_failed(slot_[0], cap)) {
      return MPI_ERR_OTHER;
    }
  }
  void *first = land_ != nullptr ? land_ : slot_[0].get();
  int rc;
  {
    trace::ScopedSpan wire(trace::Phase::Wire, kind_, cap, peer_, tag_,
                           static_cast<std::int8_t>(Method::Pipelined));
    rc = next.Recv(first, static_cast<int>(cap), MPI_BYTE, peer_, tag_,
                   comm_, &first_status_);
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  started_ = true;
  // Later legs belong to the same message: lock the match to the first
  // leg's source/tag (MPI_ANY_SOURCE / MPI_ANY_TAG must not re-wildcard).
  peer_ = first_status_.MPI_SOURCE;
  tag_ = first_status_.MPI_TAG;
  chunk_ = static_cast<std::size_t>(first_status_.count_bytes);
  g_pipeline_counters.chunks.add();
  legs_ = 1;
  if (chunk_ == 0) {
    done_ = true; // degenerate: an empty message
    return MPI_SUCCESS;
  }
  if (chunk_ > expected_) {
    return MPI_ERR_TRUNCATE;
  }
  received_ = chunk_;
  if (land_ != nullptr) {
    return MPI_SUCCESS;
  }
  const auto blk = static_cast<std::size_t>(packer_->wire_block_bytes());
  if (blk == 0 || chunk_ % blk != 0) {
    // Legs are whole *sender* blocks; if they are not whole receiver
    // blocks, land the packed stream in one full-size lease and unpack
    // it once at the end.
    CachedBuffer all =
        lease_buffer(vcuda::MemorySpace::Device,
                     std::max<std::size_t>(expected_, 1));
    if (lease_failed(all, expected_)) {
      return MPI_ERR_OTHER;
    }
    vcuda::MemcpyAsync(all.get(), slot_[0].get(), chunk_,
                       vcuda::MemcpyKind::DeviceToDevice, stream_[0]);
    // The first-leg lease returns to the cache; drain the copy that read
    // from it first.
    vcuda::StreamSynchronize(stream_[0]);
    slot_[0] = std::move(all);
    land_ = static_cast<std::byte *>(slot_[0].get());
    return MPI_SUCCESS;
  }
  slot_[1] = lease_buffer(vcuda::MemorySpace::Device, chunk_);
  if (lease_failed(slot_[1], chunk_)) {
    return MPI_ERR_OTHER;
  }
  return unpack_leg(chunk_, 0);
}

int ChunkedRecv::unpack_leg(std::size_t leg_bytes, int slot) {
  const auto blk = static_cast<std::size_t>(packer_->wire_block_bytes());
  const auto n = static_cast<long long>(leg_bytes / blk);
  if (static_cast<std::size_t>(n) * blk != leg_bytes) {
    return MPI_ERR_OTHER; // partial receiver block; cannot scatter it
  }
  if (blocks_done_ + n > packer_->total_blocks(count_)) {
    return MPI_ERR_TRUNCATE;
  }
  trace::ScopedSpan span(trace::Phase::Unpack, kind_, leg_bytes, peer_, tag_,
                         static_cast<std::int8_t>(Method::Pipelined));
  // Effective overlapped per-chunk unpack cost: the enqueue (launch)
  // only — the kernel itself overlaps the next leg's wire time. Observe
  // at the chunk knot so tuned pipelined estimates use overlapped costs.
  tune::ScopedObservation obs(tune::Axis::DeviceUnpack, blk, leg_bytes,
                              leg_bytes == chunk_);
  const vcuda::Error e = packer_->unpack_range_async(
      buf_, slot_[slot].get(), blocks_done_, n, stream_[slot]);
  if (e != vcuda::Error::Success) {
    obs.disarm();
    return MPI_ERR_OTHER;
  }
  blocks_done_ += n;
  return MPI_SUCCESS;
}

int ChunkedRecv::step(const interpose::MpiTable &next) {
  if (done_) {
    return MPI_SUCCESS;
  }
  if (!started_) {
    return first_step(next);
  }
  const int s = legs_ & 1;
  MPI_Status leg_status;
  int rc;
  if (land_ != nullptr) {
    // Full legs carry exactly chunk_; near the end the cap shrinks to the
    // remaining budget, so an overrunning sender gets the system MPI's
    // precise truncation error.
    const std::size_t cap = std::min(chunk_, expected_ - received_);
    trace::ScopedSpan wire(trace::Phase::Wire, kind_, cap, peer_, tag_,
                           static_cast<std::int8_t>(Method::Pipelined));
    rc = next.Recv(land_ + received_, static_cast<int>(cap), MPI_BYTE, peer_,
                   tag_, comm_, &leg_status);
  } else {
    {
      // Before reusing this slot, its unpack from two legs ago must have
      // drained; the other slot's unpack keeps overlapping this wire wait.
      trace::ScopedSpan drain(trace::Phase::Unpack, kind_, 0, peer_, tag_,
                              static_cast<std::int8_t>(Method::Pipelined));
      vcuda::StreamSynchronize(stream_[s]);
    }
    trace::ScopedSpan wire(trace::Phase::Wire, kind_, chunk_, peer_, tag_,
                           static_cast<std::int8_t>(Method::Pipelined));
    rc = next.Recv(slot_[s].get(), static_cast<int>(chunk_), MPI_BYTE, peer_,
                   tag_, comm_, &leg_status);
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const auto leg_bytes = static_cast<std::size_t>(leg_status.count_bytes);
  g_pipeline_counters.chunks.add();
  ++legs_;
  if (received_ + leg_bytes > expected_) {
    return MPI_ERR_TRUNCATE;
  }
  if (leg_bytes > 0 && land_ == nullptr) {
    if (const int urc = unpack_leg(leg_bytes, s); urc != MPI_SUCCESS) {
      return urc;
    }
  }
  received_ += leg_bytes;
  if (leg_bytes < chunk_) {
    done_ = true;
    if (land_ != nullptr && packer_ != nullptr) {
      // The accumulated stream: one unpack of every block that arrived.
      const auto blk = static_cast<std::size_t>(packer_->wire_block_bytes());
      if (blk == 0 || received_ % blk != 0) {
        return MPI_ERR_OTHER; // stream ends mid-block
      }
      const vcuda::Error e = packer_->unpack_range_async(
          buf_, land_, 0, static_cast<long long>(received_ / blk),
          stream_[0]);
      if (e != vcuda::Error::Success) {
        return MPI_ERR_OTHER;
      }
    }
  }
  return MPI_SUCCESS;
}

bool ChunkedRecv::ready(const interpose::MpiTable &next) const {
  if (done_) {
    return false;
  }
  int flag = 0;
  if (next.Iprobe(peer_, tag_, comm_, &flag, nullptr) != MPI_SUCCESS) {
    return false;
  }
  return flag != 0;
}

void ChunkedRecv::append_streams(
    std::vector<vcuda::StreamHandle> &streams) const {
  for (vcuda::StreamHandle s : stream_) {
    bool seen = false;
    for (vcuda::StreamHandle have : streams) {
      seen = seen || have == s;
    }
    if (!seen && s != nullptr) {
      streams.push_back(s);
    }
  }
}

void ChunkedRecv::synchronize() {
  if (!unpacks()) {
    return; // the legs landed in the caller's bytes: no stream work
  }
  trace::ScopedSpan drain(trace::Phase::Unpack, kind_, received_, peer_,
                          tag_, static_cast<std::int8_t>(Method::Pipelined));
  vcuda::StreamSynchronize(stream_[0]);
  vcuda::StreamSynchronize(stream_[1]);
}

void ChunkedRecv::fill_status(MPI_Status *status) const {
  if (status == MPI_STATUS_IGNORE) {
    return;
  }
  *status = first_status_;
  status->count_bytes = static_cast<long long>(received_);
}

} // namespace tempi
