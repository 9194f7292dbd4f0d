#include "vcuda/runtime.hpp"

#include "support/contended_mutex.hpp"
#include "support/log.hpp"
#include "support/striped_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

namespace vcuda {

namespace {

struct Counters64 {
  support::StripedCounter memcpy_async_calls;
  support::StripedCounter kernel_launches;
  support::StripedCounter stream_syncs;
  support::StripedCounter mallocs;
  support::StripedCounter frees;
  support::StripedCounter graph_launches;
  support::StripedCounter graph_nodes_replayed;
  support::StripedCounter graph_nodes_captured;
  support::StripedCounter stream_fences;
  support::StripedCounter reduce_launches;
};

Counters64 &counters64() {
  static Counters64 c;
  return c;
}

std::atomic<int> g_device_count{6}; // one Summit node by default

thread_local int t_current_device = 0;

/// All live user-created streams, for DeviceSynchronize. Held only at
/// stream create/destroy and device-wide sync — never per enqueue — and
/// counted so TEMPI_STATS can prove it stays uncontended (the
/// tempi.lock.vcuda_streams.* gauges read stream_registry_lock_stats()).
support::ContendedMutex &streams_mutex() {
  static support::ContendedMutex m;
  return m;
}
std::set<Stream *> &live_streams() {
  static std::set<Stream *> s;
  return s;
}

constexpr int kStreamPoolSize = 4;

struct ThreadStreamPool {
  std::vector<Stream> streams;
  unsigned next = 0;
  ThreadStreamPool() {
    streams.reserve(kStreamPoolSize);
    for (int i = 0; i < kStreamPoolSize; ++i) {
      streams.emplace_back(t_current_device);
    }
  }
};

/// Non-null once this thread has touched its pool; lets DeviceSynchronize
/// skip pool construction on threads that never used pool streams.
thread_local ThreadStreamPool *t_stream_pool = nullptr;

ThreadStreamPool &this_thread_stream_pool() {
  thread_local ThreadStreamPool pool;
  t_stream_pool = &pool;
  return pool;
}

void host_advance(VirtualNs ns) { this_thread_timeline().advance(ns); }

/// The observability hook (see runtime.hpp). Unset is the common case and
/// costs one relaxed load per modeled device op.
std::atomic<TraceHook> g_trace_hook{nullptr};

/// Report a device op that completes at `end` after running `dur` ns.
void note_device_op(TraceOp op, const Stream *stream, VirtualNs end,
                    VirtualNs dur, std::size_t bytes) {
  if (const TraceHook hook = g_trace_hook.load(std::memory_order_relaxed)) {
    hook(op, end - dur, end, bytes, stream);
  }
}

} // namespace

/// One recorded stream operation. Kernel nodes keep their KernelCost so
/// replay can price them with the graph dispatch discount; a fused kernel
/// node keeps the live duration its segments summed to at capture, and
/// replay discounts it the same way; copy nodes keep the modeled duration
/// computed at capture (the DMA engine's cost does not change under
/// graphs). Bodies execute only at replay.
struct Graph {
  struct Node {
    enum class Kind { Kernel, FusedKernel, Copy };
    Kind kind = Kind::Copy;
    KernelCost cost{};        ///< kernel nodes
    VirtualNs duration = 0;   ///< fused kernel and copy nodes
    KernelBody body;
  };
  std::vector<Node> nodes;
};

namespace {

/// Streams currently in capture mode. The fast-path gate is one relaxed
/// atomic load so non-capturing traffic (every steady-state send) never
/// touches the mutex.
std::atomic<int> g_capturing_streams{0};
std::mutex &capture_mutex() {
  static std::mutex m;
  return m;
}
std::unordered_map<Stream *, Graph *> &capturing_map() {
  static std::unordered_map<Stream *, Graph *> m;
  return m;
}

/// The open capture on `stream`, or nullptr (the common case).
Graph *capture_target(StreamHandle stream) {
  if (g_capturing_streams.load(std::memory_order_relaxed) == 0) {
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(capture_mutex());
  const auto it = capturing_map().find(stream);
  return it == capturing_map().end() ? nullptr : it->second;
}

/// Record one node on a capturing stream: the host pays per-node capture
/// bookkeeping instead of the live driver cost, and neither the stream nor
/// the payload moves until GraphLaunch.
void capture_node(Graph *g, Graph::Node node) {
  host_advance(cost_params().graph_capture_node_ns);
  counters64().graph_nodes_captured.add();
  g->nodes.push_back(std::move(node));
}

MemcpyKind infer_kind(const void *dst, const void *src) {
  const MemorySpace d = memory_registry().space_of(dst);
  const MemorySpace s = memory_registry().space_of(src);
  const bool dst_dev = d == MemorySpace::Device;
  const bool src_dev = s == MemorySpace::Device;
  if (dst_dev && src_dev) return MemcpyKind::DeviceToDevice;
  if (dst_dev) return MemcpyKind::HostToDevice;
  if (src_dev) return MemcpyKind::DeviceToHost;
  return MemcpyKind::HostToHost;
}

bool touches_pageable(const void *dst, const void *src) {
  return memory_registry().space_of(dst) == MemorySpace::Pageable ||
         memory_registry().space_of(src) == MemorySpace::Pageable;
}

Error alloc_in_space(void **ptr, std::size_t bytes, MemorySpace space,
                     int device, VirtualNs api_cost) {
  if (ptr == nullptr) {
    return Error::InvalidValue;
  }
  host_advance(api_cost);
  if (bytes == 0) {
    *ptr = nullptr;
    return Error::Success;
  }
  void *p = std::aligned_alloc(256, (bytes + 255) / 256 * 256);
  if (p == nullptr) {
    return Error::MemoryAllocation;
  }
  memory_registry().insert(Allocation{reinterpret_cast<std::uintptr_t>(p),
                                      bytes, space, device});
  counters64().mallocs.add();
  *ptr = p;
  return Error::Success;
}

Error free_from_space(void *ptr, MemorySpace expected, VirtualNs api_cost) {
  host_advance(api_cost);
  if (ptr == nullptr) {
    return Error::Success;
  }
  const auto found = memory_registry().find(ptr);
  if (!found || found->space != expected ||
      found->base != reinterpret_cast<std::uintptr_t>(ptr)) {
    support::log_error("vcuda: freeing pointer not allocated in this space");
    return Error::InvalidValue;
  }
  memory_registry().erase(found->base);
  std::free(ptr);
  counters64().frees.add();
  return Error::Success;
}

} // namespace

const char *error_string(Error e) {
  switch (e) {
  case Error::Success: return "success";
  case Error::InvalidValue: return "invalid value";
  case Error::MemoryAllocation: return "memory allocation failure";
  case Error::InvalidDevice: return "invalid device";
  case Error::NotReady: return "not ready";
  }
  return "unknown";
}

int device_count() { return g_device_count.load(std::memory_order_relaxed); }

int set_device_count(int n) {
  return g_device_count.exchange(n > 0 ? n : 1, std::memory_order_relaxed);
}

Error SetDevice(int device) {
  if (device < 0 || device >= device_count()) {
    return Error::InvalidDevice;
  }
  t_current_device = device;
  return Error::Success;
}

Error GetDevice(int *device) {
  if (device == nullptr) {
    return Error::InvalidValue;
  }
  *device = t_current_device;
  return Error::Success;
}

Error DeviceSynchronize() {
  const CostParams &p = cost_params();
  Timeline &tl = this_thread_timeline();
  VirtualNs latest = 0;
  {
    const std::lock_guard<support::ContendedMutex> lock(streams_mutex());
    for (const Stream *s : live_streams()) {
      if (s->device() == t_current_device && s->ready_at() > latest) {
        latest = s->ready_at();
      }
    }
  }
  if (default_stream()->ready_at() > latest) {
    latest = default_stream()->ready_at();
  }
  if (t_stream_pool != nullptr) { // only if this thread ever used the pool
    for (const Stream &s : t_stream_pool->streams) {
      if (s.device() == t_current_device && s.ready_at() > latest) {
        latest = s.ready_at();
      }
    }
  }
  tl.wait_until(latest);
  tl.advance(p.stream_sync_ns);
  counters64().stream_syncs.add();
  return Error::Success;
}

Error Malloc(void **ptr, std::size_t bytes) {
  return alloc_in_space(ptr, bytes, MemorySpace::Device, t_current_device,
                        cost_params().malloc_ns);
}

Error MallocHost(void **ptr, std::size_t bytes) {
  return alloc_in_space(ptr, bytes, MemorySpace::Pinned, -1,
                        cost_params().malloc_host_ns);
}

Error Free(void *ptr) {
  return free_from_space(ptr, MemorySpace::Device, cost_params().free_ns);
}

Error FreeHost(void *ptr) {
  return free_from_space(ptr, MemorySpace::Pinned, cost_params().free_host_ns);
}

Error HostRegister(void *ptr, std::size_t bytes) {
  if (ptr == nullptr || bytes == 0) {
    return Error::InvalidValue;
  }
  if (memory_registry().find(ptr)) {
    return Error::InvalidValue; // already registered / overlaps
  }
  host_advance(cost_params().malloc_host_ns); // pinning cost ~ MallocHost
  memory_registry().insert(Allocation{reinterpret_cast<std::uintptr_t>(ptr),
                                      bytes, MemorySpace::Pinned, -1});
  return Error::Success;
}

Error HostUnregister(void *ptr) {
  if (ptr == nullptr) {
    return Error::InvalidValue;
  }
  host_advance(cost_params().free_host_ns);
  const auto a = memory_registry().find(ptr);
  if (!a || a->space != MemorySpace::Pinned ||
      a->base != reinterpret_cast<std::uintptr_t>(ptr)) {
    return Error::InvalidValue;
  }
  memory_registry().erase(a->base);
  return Error::Success;
}

Error PointerGetAttributes(MemorySpace *space, int *device, const void *ptr) {
  if (space == nullptr) {
    return Error::InvalidValue;
  }
  host_advance(cost_params().pointer_query_ns);
  const auto a = memory_registry().find(ptr);
  *space = a ? a->space : MemorySpace::Pageable;
  if (device != nullptr) {
    *device = a ? a->device : -1;
  }
  return Error::Success;
}

Error StreamCreate(StreamHandle *stream) {
  if (stream == nullptr) {
    return Error::InvalidValue;
  }
  auto *s = new Stream(t_current_device);
  {
    const std::lock_guard<support::ContendedMutex> lock(streams_mutex());
    live_streams().insert(s);
  }
  *stream = s;
  return Error::Success;
}

Error StreamDestroy(StreamHandle stream) {
  if (stream == nullptr) {
    return Error::InvalidValue;
  }
  {
    const std::lock_guard<support::ContendedMutex> lock(streams_mutex());
    live_streams().erase(stream);
  }
  delete stream;
  return Error::Success;
}

StreamHandle default_stream() {
  thread_local Stream stream(t_current_device);
  return &stream;
}

int stream_pool_size() { return kStreamPoolSize; }

StreamHandle pool_stream(int i) {
  int idx = i % kStreamPoolSize;
  if (idx < 0) {
    idx += kStreamPoolSize;
  }
  return &this_thread_stream_pool().streams[static_cast<std::size_t>(idx)];
}

StreamHandle next_pool_stream() {
  ThreadStreamPool &pool = this_thread_stream_pool();
  return &pool.streams[pool.next++ % kStreamPoolSize];
}

Error StreamSynchronize(StreamHandle stream) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  const CostParams &p = cost_params();
  Timeline &tl = this_thread_timeline();
  tl.wait_until(stream->ready_at());
  tl.advance(p.stream_sync_ns);
  counters64().stream_syncs.add();
  return Error::Success;
}

Error StreamQuery(StreamHandle stream) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  host_advance(cost_params().stream_query_ns);
  return stream->ready_at() <= virtual_now() ? Error::Success
                                             : Error::NotReady;
}

Error StreamWaitEvent(StreamHandle stream, EventHandle event) {
  if (event == nullptr || !event->recorded()) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  host_advance(cost_params().event_record_ns); // cheap host-side call
  stream->wait_until(event->time());
  return Error::Success;
}

Error EventCreate(EventHandle *event) {
  if (event == nullptr) {
    return Error::InvalidValue;
  }
  *event = new Event();
  return Error::Success;
}

Error EventDestroy(EventHandle event) {
  delete event;
  return Error::Success;
}

Error EventRecord(EventHandle event, StreamHandle stream) {
  if (event == nullptr) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  host_advance(cost_params().event_record_ns);
  // The event completes when all prior stream work does (at least "now").
  const VirtualNs t =
      stream->ready_at() > virtual_now() ? stream->ready_at() : virtual_now();
  event->record(t);
  return Error::Success;
}

Error EventSynchronize(EventHandle event) {
  if (event == nullptr || !event->recorded()) {
    return Error::InvalidValue;
  }
  Timeline &tl = this_thread_timeline();
  tl.wait_until(event->time());
  tl.advance(cost_params().event_sync_ns);
  return Error::Success;
}

Error EventElapsedTime(float *ms, EventHandle start, EventHandle stop) {
  if (ms == nullptr || start == nullptr || stop == nullptr ||
      !start->recorded() || !stop->recorded()) {
    return Error::InvalidValue;
  }
  const double ns = static_cast<double>(stop->time()) -
                    static_cast<double>(start->time());
  *ms = static_cast<float>(ns / 1e6);
  return Error::Success;
}

Error MemcpyAsync(void *dst, const void *src, std::size_t bytes,
                  MemcpyKind kind, StreamHandle stream) {
  if ((dst == nullptr || src == nullptr) && bytes > 0) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  const CostParams &p = cost_params();
  if (kind == MemcpyKind::Default) {
    kind = infer_kind(dst, src);
  }
  if (bytes > 0) {
    if (Graph *g = capture_target(stream)) {
      const VirtualNs dur =
          memcpy_duration(p, bytes, kind, touches_pageable(dst, src));
      capture_node(g, Graph::Node{Graph::Node::Kind::Copy, {}, dur,
                                  [dst, src, bytes] {
                                    std::memcpy(dst, src, bytes);
                                  }});
      return Error::Success;
    }
  }
  host_advance(p.memcpy_async_call_ns);
  counters64().memcpy_async_calls.add();
  if (bytes == 0) {
    return Error::Success;
  }
  const VirtualNs dur =
      memcpy_duration(p, bytes, kind, touches_pageable(dst, src));
  const VirtualNs end = stream->enqueue(virtual_now(), dur);
  std::memcpy(dst, src, bytes); // payload really moves
  note_device_op(TraceOp::Memcpy, stream, end, dur, bytes);
  return Error::Success;
}

Error Memcpy(void *dst, const void *src, std::size_t bytes, MemcpyKind kind) {
  const Error e = MemcpyAsync(dst, src, bytes, kind, default_stream());
  if (e != Error::Success) {
    return e;
  }
  return StreamSynchronize(default_stream());
}

Error Memcpy2DAsync(void *dst, std::size_t dpitch, const void *src,
                    std::size_t spitch, std::size_t width, std::size_t height,
                    MemcpyKind kind, StreamHandle stream) {
  if ((dst == nullptr || src == nullptr) && width * height > 0) {
    return Error::InvalidValue;
  }
  if (width > dpitch || width > spitch) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  const CostParams &p = cost_params();
  if (kind == MemcpyKind::Default) {
    kind = infer_kind(dst, src);
  }
  const std::size_t total = width * height;
  Graph *capture = total > 0 ? capture_target(stream) : nullptr;
  if (capture == nullptr) {
    host_advance(p.memcpy_async_call_ns);
    counters64().memcpy_async_calls.add();
  }
  if (total == 0) {
    return Error::Success;
  }
  // The DMA engine processes one descriptor per row and needs wide rows to
  // reach full throughput (see CostParams::dma_row_ns).
  const double eff = strided_efficiency(width, p.dma_row_saturation_b);
  const VirtualNs base =
      memcpy_duration(p, total, kind, touches_pageable(dst, src));
  const auto dur = static_cast<VirtualNs>(
                       static_cast<double>(base - p.copy_engine_latency_ns) /
                       eff) +
                   p.copy_engine_latency_ns +
                   static_cast<VirtualNs>(height) * p.dma_row_ns;
  const auto body = [dst, dpitch, src, spitch, width, height] {
    auto *d = static_cast<std::byte *>(dst);
    const auto *s = static_cast<const std::byte *>(src);
    for (std::size_t row = 0; row < height; ++row) {
      std::memcpy(d + row * dpitch, s + row * spitch, width);
    }
  };
  if (capture != nullptr) {
    capture_node(capture, Graph::Node{Graph::Node::Kind::Copy, {}, dur, body});
    return Error::Success;
  }
  const VirtualNs end = stream->enqueue(virtual_now(), dur);
  body();
  note_device_op(TraceOp::Memcpy, stream, end, dur, total);
  return Error::Success;
}

Error MemsetAsync(void *ptr, int value, std::size_t bytes,
                  StreamHandle stream) {
  if (ptr == nullptr && bytes > 0) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  const CostParams &p = cost_params();
  if (bytes > 0) {
    if (Graph *g = capture_target(stream)) {
      const VirtualNs dur =
          memcpy_duration(p, bytes, MemcpyKind::DeviceToDevice, false);
      capture_node(g, Graph::Node{Graph::Node::Kind::Copy, {}, dur,
                                  [ptr, value, bytes] {
                                    std::memset(ptr, value, bytes);
                                  }});
      return Error::Success;
    }
  }
  host_advance(p.memcpy_async_call_ns);
  if (bytes == 0) {
    return Error::Success;
  }
  const VirtualNs dur =
      memcpy_duration(p, bytes, MemcpyKind::DeviceToDevice, false);
  const VirtualNs end = stream->enqueue(virtual_now(), dur);
  std::memset(ptr, value, bytes);
  note_device_op(TraceOp::Memcpy, stream, end, dur, bytes);
  return Error::Success;
}

namespace {

bool valid_geometry(const LaunchConfig &cfg) {
  return cfg.grid.volume() != 0 && cfg.block.volume() != 0 &&
         cfg.block.volume() <= 1024;
}

/// The live (non-captured) launch both LaunchKernel overloads share: one
/// driver cost, one counted launch, `dur` ns of device time on `stream`.
Error launch_live(StreamHandle stream, VirtualNs dur, bool reduce,
                  const KernelBody &body) {
  host_advance(cost_params().kernel_launch_ns);
  counters64().kernel_launches.add();
  if (reduce) {
    counters64().reduce_launches.add();
  }
  const VirtualNs end = stream->enqueue(virtual_now(), dur);
  body();
  note_device_op(TraceOp::Kernel, stream, end, dur, 0);
  return Error::Success;
}

} // namespace

Error LaunchKernel(const LaunchConfig &cfg, const KernelCost &cost,
                   StreamHandle stream, const KernelBody &body) {
  if (!body || !valid_geometry(cfg)) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  if (Graph *g = capture_target(stream)) {
    // Record, don't execute: the KernelCost rides along so replay can
    // price the node with the graph dispatch discount.
    capture_node(g, Graph::Node{Graph::Node::Kind::Kernel, cost, 0, body});
    return Error::Success;
  }
  return launch_live(stream, kernel_duration(cost_params(), cost),
                     cost.reduce_ops > 0, body);
}

Error LaunchKernel(std::span<const KernelSegment> segments,
                   StreamHandle stream, const KernelBody &body) {
  if (!body || segments.empty()) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  const CostParams &p = cost_params();
  VirtualNs dur = p.kernel_fixed_ns;
  bool reduce = false;
  for (const KernelSegment &s : segments) {
    if (!valid_geometry(s.cfg)) {
      return Error::InvalidValue;
    }
    dur += kernel_duration(p, s.cost) - p.kernel_fixed_ns;
    reduce = reduce || s.cost.reduce_ops > 0;
  }
  if (Graph *g = capture_target(stream)) {
    capture_node(g, Graph::Node{Graph::Node::Kind::FusedKernel, {}, dur,
                                body});
    return Error::Success;
  }
  return launch_live(stream, dur, reduce, body);
}

Error GraphBeginCapture(StreamHandle stream) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  const std::lock_guard<std::mutex> lock(capture_mutex());
  if (capturing_map().contains(stream)) {
    return Error::InvalidValue; // one open capture per stream
  }
  capturing_map().emplace(stream, new Graph());
  g_capturing_streams.fetch_add(1, std::memory_order_relaxed);
  return Error::Success;
}

Error GraphEndCapture(StreamHandle stream, GraphHandle *graph) {
  if (graph == nullptr) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  Graph *g = nullptr;
  {
    const std::lock_guard<std::mutex> lock(capture_mutex());
    const auto it = capturing_map().find(stream);
    if (it == capturing_map().end()) {
      return Error::InvalidValue; // stream was not capturing
    }
    g = it->second;
    capturing_map().erase(it);
    g_capturing_streams.fetch_sub(1, std::memory_order_relaxed);
  }
  host_advance(cost_params().graph_instantiate_ns); // cudaGraphInstantiate
  *graph = g;
  return Error::Success;
}

bool StreamIsCapturing(StreamHandle stream) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  return capture_target(stream) != nullptr;
}

Error GraphLaunch(GraphHandle graph, StreamHandle stream) {
  if (graph == nullptr) {
    return Error::InvalidValue;
  }
  if (stream == nullptr) {
    stream = default_stream();
  }
  if (capture_target(stream) != nullptr) {
    return Error::InvalidValue; // no replay onto a capturing stream
  }
  const CostParams &p = cost_params();
  // ONE driver-side cost for the whole node chain — the accounting the
  // persistent fast path buys, versus kernel_launch_ns/memcpy_async_call_ns
  // per node on the live path.
  host_advance(p.graph_launch_ns);
  Counters64 &c = counters64();
  c.graph_launches.add();
  c.graph_nodes_replayed.add(graph->nodes.size());
  for (const Graph::Node &node : graph->nodes) {
    const bool kernel = node.kind != Graph::Node::Kind::Copy;
    VirtualNs dur = node.duration;
    if (kernel) {
      const VirtualNs live = node.kind == Graph::Node::Kind::Kernel
                                 ? kernel_duration(p, node.cost)
                                 : node.duration;
      // Graph-scheduled kernels swap the cold per-kernel dispatch floor
      // for the (smaller) in-graph scheduling cost.
      dur = live - std::min(live, p.kernel_fixed_ns) + p.graph_node_sched_ns;
    }
    const VirtualNs end = stream->enqueue(virtual_now(), dur);
    node.body();
    note_device_op(kernel ? TraceOp::Kernel : TraceOp::Memcpy, stream, end,
                   dur, 0);
  }
  return Error::Success;
}

std::size_t GraphNodeCount(GraphHandle graph) {
  return graph == nullptr ? 0 : graph->nodes.size();
}

Error GraphDestroy(GraphHandle graph) {
  delete graph;
  return Error::Success;
}

Error StreamFence(StreamHandle stream) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  Timeline &tl = this_thread_timeline();
  tl.wait_until(stream->ready_at());
  tl.advance(cost_params().stream_fence_ns);
  counters64().stream_fences.add();
  return Error::Success;
}

void set_trace_hook(TraceHook hook) {
  g_trace_hook.store(hook, std::memory_order_relaxed);
}

support::LockStats stream_registry_lock_stats() {
  return streams_mutex().stats();
}

Counters counters() {
  const Counters64 &c = counters64();
  return Counters{
      c.memcpy_async_calls.value(),
      c.kernel_launches.value(),
      c.stream_syncs.value(),
      c.mallocs.value(),
      c.frees.value(),
      c.graph_launches.value(),
      c.graph_nodes_replayed.value(),
      c.graph_nodes_captured.value(),
      c.stream_fences.value(),
      c.reduce_launches.value(),
  };
}

void reset_counters() {
  Counters64 &c = counters64();
  c.memcpy_async_calls.reset();
  c.kernel_launches.reset();
  c.stream_syncs.reset();
  c.mallocs.reset();
  c.frees.reset();
  c.graph_launches.reset();
  c.graph_nodes_replayed.reset();
  c.graph_nodes_captured.reset();
  c.stream_fences.reset();
  c.reduce_launches.reset();
}

} // namespace vcuda
