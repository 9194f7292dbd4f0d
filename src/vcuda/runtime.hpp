// Public API of the virtual CUDA runtime ("vcuda").
//
// The surface mirrors the subset of the CUDA runtime API that TEMPI and the
// system MPI's datatype path consume: memory management with distinct
// device/pinned/pageable spaces, async memcpy on streams, kernel launch,
// events, and pointer attribute queries. Functions return Error and follow
// CUDA naming minus the "cuda" prefix (vcuda::Malloc == cudaMalloc).
//
// Timing: every call advances the calling thread's virtual Timeline by a
// modeled driver overhead, and enqueues modeled device-side durations on the
// stream (see costmodel.hpp). The payload bytes really move, synchronously,
// so results are testable.
#pragma once

#include "support/contended_mutex.hpp"
#include "vcuda/clock.hpp"
#include "vcuda/costmodel.hpp"
#include "vcuda/memory.hpp"
#include "vcuda/stream.hpp"

#include <cstddef>
#include <functional>
#include <span>

namespace vcuda {

enum class Error {
  Success = 0,
  InvalidValue,
  MemoryAllocation,
  InvalidDevice,
  NotReady, ///< StreamQuery: work still outstanding
};

/// Human-readable error name (CUDA's cudaGetErrorString).
const char *error_string(Error e);

using StreamHandle = Stream *;
using EventHandle = Event *;

/// Kernel bodies run synchronously on the calling thread. Grid/block
/// geometry participates only in the cost model and in tests; the body is
/// responsible for moving all payload bytes itself.
using KernelBody = std::function<void()>;

struct Dim3 {
  unsigned x = 1, y = 1, z = 1;
  [[nodiscard]] unsigned long long volume() const {
    return static_cast<unsigned long long>(x) * y * z;
  }
};

struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
};

// --- device management -----------------------------------------------------

/// Number of virtual devices visible to this process (Summit node: 6).
int device_count();

/// Reconfigure the number of virtual devices (benches/tests only; resets
/// nothing else). Returns the previous count.
int set_device_count(int n);

Error SetDevice(int device);
Error GetDevice(int *device);
Error DeviceSynchronize();

// --- memory ------------------------------------------------------------------

Error Malloc(void **ptr, std::size_t bytes);          ///< device space
Error MallocHost(void **ptr, std::size_t bytes);      ///< pinned host space
Error Free(void *ptr);
Error FreeHost(void *ptr);

/// cudaHostRegister/cudaHostUnregister: pin (register) an existing host
/// range so the GPU can access it zero-copy; the range must not overlap a
/// registered allocation.
Error HostRegister(void *ptr, std::size_t bytes);
Error HostUnregister(void *ptr);

/// cudaPointerGetAttributes: classify `ptr` (unregistered -> Pageable).
Error PointerGetAttributes(MemorySpace *space, int *device, const void *ptr);

/// The same query, priced the same, with the range included
/// (cuPointerGetAttributes with CU_POINTER_ATTRIBUTE_RANGE_START_ADDR and
/// RANGE_SIZE): the registered allocation that contains `ptr`, or a default
/// Allocation (Pageable, size 0) when none does.
Error PointerGetAttributes(Allocation *range, const void *ptr);

// --- streams & events --------------------------------------------------------

Error StreamCreate(StreamHandle *stream);
Error StreamDestroy(StreamHandle stream);
Error StreamSynchronize(StreamHandle stream);
/// Success if all work is complete at the host's current virtual time,
/// NotReady otherwise. Does not block.
Error StreamQuery(StreamHandle stream);

/// Make `stream` wait (device-side) until all work recorded in `event`
/// completes, without blocking the host (cudaStreamWaitEvent).
Error StreamWaitEvent(StreamHandle stream, EventHandle event);

Error EventCreate(EventHandle *event);
Error EventDestroy(EventHandle event);
Error EventRecord(EventHandle event, StreamHandle stream);
Error EventSynchronize(EventHandle event);
/// Elapsed virtual milliseconds between two recorded events.
Error EventElapsedTime(float *ms, EventHandle start, EventHandle stop);

/// The calling thread's default stream on the current device (the CUDA
/// "per-thread default stream"); never destroyed by the user.
StreamHandle default_stream();

/// A small per-thread (per-rank) pool of streams, distinct from
/// default_stream(), for pipelining independent operations: consecutive
/// messages' pack/D2H legs enqueue on different streams so their modeled
/// device work overlaps, and a batch completion (Waitall) pays at most one
/// sync per pool stream instead of serializing every leg on one stream.
/// Streams are created lazily per thread and never destroyed by the user.
int stream_pool_size();
/// The pool stream at index `i` modulo the pool size.
StreamHandle pool_stream(int i);
/// Round-robin: each call hands out the calling thread's next pool stream.
StreamHandle next_pool_stream();

// --- data movement -----------------------------------------------------------

Error MemcpyAsync(void *dst, const void *src, std::size_t bytes,
                  MemcpyKind kind, StreamHandle stream);
Error Memcpy(void *dst, const void *src, std::size_t bytes, MemcpyKind kind);

/// cudaMemcpy2DAsync: `height` rows of `width` bytes with independent
/// pitches. Used by the "cudaMemcpy2D" strategy of Wang et al. that the
/// paper's future-work section mentions.
Error Memcpy2DAsync(void *dst, std::size_t dpitch, const void *src,
                    std::size_t spitch, std::size_t width, std::size_t height,
                    MemcpyKind kind, StreamHandle stream);

Error MemsetAsync(void *ptr, int value, std::size_t bytes,
                  StreamHandle stream);

// --- kernels -----------------------------------------------------------------

/// Launch `body` with geometry `cfg` and modeled cost `cost` on `stream`.
Error LaunchKernel(const LaunchConfig &cfg, const KernelCost &cost,
                   StreamHandle stream, const KernelBody &body);

/// One segment of a fused launch: the geometry and modeled cost the
/// segment's work would have as a launch of its own.
struct KernelSegment {
  LaunchConfig cfg;
  KernelCost cost;
};

/// Fused launch: one kernel whose `body` does the work of every segment.
/// It charges one kernel_launch_ns and counts as one launch. Its device
/// time is one kernel_fixed_ns plus, per segment, that segment's
/// kernel_duration minus kernel_fixed_ns: fusing earns no bandwidth or
/// utilization credit, so the only modeled saving is the launches removed.
/// A one-segment launch costs exactly what the single-cost overload does.
/// On a capturing stream it records one kernel node, which replays as its
/// fused device time minus kernel_fixed_ns plus graph_node_sched_ns, like
/// any in-graph kernel. An empty segment list or any segment with invalid
/// geometry is rejected (InvalidValue).
Error LaunchKernel(std::span<const KernelSegment> segments,
                   StreamHandle stream, const KernelBody &body);

// --- graph capture & replay --------------------------------------------------
//
// The subset of the CUDA graph API that TEMPI's persistent-operation fast
// path consumes: record a fixed sequence of stream operations once
// (MPI_Send_init/MPI_Recv_init time), then replay it with ONE driver-side
// launch overhead instead of one per node (MPI_Start time). Semantics
// mirror cudaStreamBeginCapture: while a stream is capturing, work
// enqueued on it is recorded, NOT executed — bodies run (and payload bytes
// move) only at GraphLaunch. Graph-scheduled kernels also dispatch with a
// smaller per-node device floor than a cold launch (see
// CostParams::graph_node_sched_ns). Capture is per stream; one capture may
// be open per stream at a time, and cross-stream capture is not modeled.

struct Graph; // opaque
using GraphHandle = Graph *;

/// Put `stream` into capture mode (cudaStreamBeginCapture).
Error GraphBeginCapture(StreamHandle stream);

/// End capture and return the recorded graph (cudaStreamEndCapture +
/// cudaGraphInstantiate; the one-time instantiation cost is charged here).
Error GraphEndCapture(StreamHandle stream, GraphHandle *graph);

/// True if `stream` is currently capturing (cudaStreamIsCapturing).
bool StreamIsCapturing(StreamHandle stream);

/// Replay the graph on `stream`: one graph_launch_ns host cost, then every
/// node's device duration enqueues back-to-back and its body executes.
Error GraphLaunch(GraphHandle graph, StreamHandle stream);

/// Number of recorded nodes (tests, cost-model assertions).
std::size_t GraphNodeCount(GraphHandle graph);

Error GraphDestroy(GraphHandle graph);

/// Fold `stream`'s completion into the host clock through a pre-armed
/// event spin (stream_fence_ns) instead of a blocking StreamSynchronize
/// wake-up. Used by the persistent fast path, which keeps the event
/// recorded across replays.
Error StreamFence(StreamHandle stream);

// --- observability -----------------------------------------------------------

/// Kind of device-side work reported to the trace hook.
enum class TraceOp : std::uint8_t { Kernel, Memcpy };

/// Observability hook: called after each modeled device operation (live
/// launch, async copy/memset, or graph-replayed node) with its modeled
/// device-side execution interval [t0, t1) and the stream it ran on. The
/// hook must be cheap and safe to call from any rank thread; pass nullptr
/// to remove it. Cost when unset: one relaxed atomic load per enqueue.
/// vcuda stays independent of higher layers — tempi's tracer registers
/// itself here.
using TraceHook = void (*)(TraceOp op, VirtualNs t0, VirtualNs t1,
                           std::size_t bytes, const Stream *stream);
void set_trace_hook(TraceHook hook);

// --- accounting --------------------------------------------------------------

/// Counters for tests/ablations (per process, monotonically increasing).
struct Counters {
  std::uint64_t memcpy_async_calls = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t stream_syncs = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t pointer_queries = 0; ///< PointerGetAttributes calls
  std::uint64_t frees = 0;
  std::uint64_t graph_launches = 0;      ///< GraphLaunch calls
  std::uint64_t graph_nodes_replayed = 0; ///< nodes executed by replays
  std::uint64_t graph_nodes_captured = 0; ///< nodes recorded by captures
  std::uint64_t stream_fences = 0;        ///< StreamFence completions
  std::uint64_t reduce_launches = 0;      ///< kernels with reduce_ops > 0
};
Counters counters();
void reset_counters();

/// Acquire/contention counters of the live-stream registry mutex (held at
/// stream create/destroy and DeviceSynchronize only). vcuda stays
/// independent of higher layers — tempi registers this as the
/// tempi.lock.vcuda_streams.* gauges.
support::LockStats stream_registry_lock_stats();

} // namespace vcuda
