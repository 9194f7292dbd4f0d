// The GPU reduction-collectives engine (see reduce.hpp for the
// architecture, the interoperability contract, and the floating-point
// ordering guarantees).
#include "tempi/reduce.hpp"

#include "sysmpi/collectives.hpp"
#include "sysmpi/netmodel.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/kernels.hpp"
#include "tempi/packer.hpp"
#include "tempi/tempi.hpp"
#include "tempi/topology.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

namespace tempi::red {

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<Schedule> g_forced{Schedule::Auto};

struct RedCounters {
  trace::Counter allreduce{"tempi.red.allreduce"};
  trace::Counter reduce{"tempi.red.reduce"};
  trace::Counter reduce_scatter{"tempi.red.reduce_scatter"};
  trace::Counter fallback{"tempi.red.fallback"};
  trace::Counter peer_legs{"tempi.red.peer_legs"};
  trace::Counter kernel_launches{"tempi.red.kernel_launches"};
};

/// Namespace scope, so the counters register at static initialisation.
RedCounters g_counters;

/// The resolved device combine shape of one (datatype, op) pair.
struct Shape {
  sysmpi::OpKind kind = sysmpi::OpKind::Sum;
  ReduceOp rop = ReduceOp::Sum;
  ReduceWord word = ReduceWord::I32;
  sysmpi::Named base = sysmpi::Named::Int;
  std::size_t word_bytes = 4;
};

/// Walk to the named leaves of `dt`; true when every leaf is one uniform
/// named base (recorded in `base`).
bool scan_base(MPI_Datatype dt, sysmpi::Named &base, bool &seen) {
  if (dt == nullptr) {
    return false;
  }
  if (dt->combiner == MPI_COMBINER_NAMED) {
    if (seen && base != dt->named) {
      return false;
    }
    base = dt->named;
    seen = true;
    return true;
  }
  if (dt->subtypes.empty()) {
    return false;
  }
  for (MPI_Datatype sub : dt->subtypes) {
    if (!scan_base(sub, base, seen)) {
      return false;
    }
  }
  return true;
}

std::optional<Shape> resolve_shape(MPI_Datatype dt, MPI_Op op) {
  if (dt == nullptr || op == nullptr || dt->size <= 0) {
    return std::nullopt;
  }
  sysmpi::Named base = sysmpi::Named::Byte;
  bool seen = false;
  if (!scan_base(dt, base, seen) || !seen) {
    return std::nullopt;
  }
  Shape sh;
  sh.kind = op->kind;
  sh.base = base;
  switch (base) {
  case sysmpi::Named::Int:
    sh.word = ReduceWord::I32;
    break;
  case sysmpi::Named::Long:
    sh.word = sizeof(long) == 8 ? ReduceWord::I64 : ReduceWord::I32;
    break;
  case sysmpi::Named::LongLong:
    sh.word = ReduceWord::I64;
    break;
  case sysmpi::Named::Float:
    sh.word = ReduceWord::F32;
    break;
  case sysmpi::Named::Double:
    sh.word = ReduceWord::F64;
    break;
  default:
    return std::nullopt; // no native device combine word
  }
  const bool fp =
      base == sysmpi::Named::Float || base == sysmpi::Named::Double;
  switch (op->kind) {
  case sysmpi::OpKind::Sum:
    sh.rop = ReduceOp::Sum;
    break;
  case sysmpi::OpKind::Prod:
    sh.rop = ReduceOp::Prod;
    break;
  case sysmpi::OpKind::Min:
    sh.rop = ReduceOp::Min;
    break;
  case sysmpi::OpKind::Max:
    sh.rop = ReduceOp::Max;
    break;
  case sysmpi::OpKind::Lor:
  case sysmpi::OpKind::Land:
  case sysmpi::OpKind::Bor:
  case sysmpi::OpKind::Band:
    if (fp) {
      return std::nullopt; // integer-only, as in the system MPI
    }
    sh.rop = op->kind == sysmpi::OpKind::Lor    ? ReduceOp::Lor
             : op->kind == sysmpi::OpKind::Land ? ReduceOp::Land
             : op->kind == sysmpi::OpKind::Bor  ? ReduceOp::Bor
                                                : ReduceOp::Band;
    break;
  }
  sh.word_bytes = reduce_word_bytes(sh.word);
  if (dt->size % static_cast<long long>(sh.word_bytes) != 0) {
    return std::nullopt;
  }
  // Derived types need an addressable packed form: a committed canonical
  // packer (span kernels) or a contiguous layout (plain byte copies).
  if (dt->combiner != MPI_COMBINER_NAMED && !dt->is_contiguous() &&
      find_packer_fast(dt) == nullptr) {
    return std::nullopt;
  }
  return sh;
}

bool peer_on_my_node(MPI_Comm comm, int peer) {
  sysmpi::World &world = *comm->world;
  return world.node_of(comm->world_rank_of(peer)) ==
         world.node_of(comm->world_rank_of(comm->my_rank));
}

bool lease_failed(const CachedBuffer &buf, std::size_t bytes) {
  return bytes > 0 && buf.get() == nullptr;
}

/// How one rank addresses its packed contribution (per rank, per call —
/// the packed wire format is identical regardless, see reduce.hpp).
enum class Mode {
  Fused,  ///< device + canonical packer: span/combine kernels
  Direct, ///< device + contiguous: MemcpyAsync slices, combine kernels
  Host,   ///< anything else: baseline pack/unpack + host combine
};

/// A schedule-domain buffer: a device lease or a host vector, matching
/// the rank's combine domain.
struct Carrier {
  bool device = false;
  CachedBuffer lease;
  std::vector<std::byte> host;

  [[nodiscard]] std::byte *data() {
    return device ? static_cast<std::byte *>(lease.get()) : host.data();
  }
  bool acquire(bool on_device, std::size_t bytes) {
    device = on_device;
    if (device) {
      trace::ScopedSpan span(trace::Phase::LeaseAcquire, trace::OpKind::Coll,
                             bytes);
      lease = lease_buffer(vcuda::MemorySpace::Device, bytes);
      return !lease_failed(lease, bytes);
    }
    host.resize(bytes);
    return true;
  }
  void swap_with(Carrier &other) {
    std::swap(device, other.device);
    std::swap(lease, other.lease);
    host.swap(other.host);
  }
};

/// Per-call state shared by the schedule cores.
struct Ctx {
  Shape sh;
  MPI_Comm comm = nullptr;
  const interpose::MpiTable *next = nullptr;
  Mode mode = Mode::Host;
  const Packer *pk = nullptr; ///< Fused only
  MPI_Datatype dt = nullptr;
  vcuda::StreamHandle stream = nullptr;
  [[nodiscard]] bool on_device() const { return mode != Mode::Host; }
};

/// Resolve the rank's mode from its buffer residency. `result` is null on
/// ranks that never materialize a result (non-root Reduce).
Ctx make_ctx(const Shape &sh, MPI_Comm comm, const interpose::MpiTable &next,
             MPI_Datatype dt, const void *contrib, const void *result) {
  Ctx ctx;
  ctx.sh = sh;
  ctx.comm = comm;
  ctx.next = &next;
  ctx.dt = dt;
  ctx.stream = vcuda::next_pool_stream();
  const bool dev = device_resident(contrib) &&
                   (result == nullptr || device_resident(result));
  if (!dev) {
    ctx.mode = Mode::Host;
  } else if (dt->is_contiguous()) {
    ctx.mode = Mode::Direct;
  } else {
    ctx.mode = Mode::Fused;
    ctx.pk = find_packer_fast(dt);
  }
  return ctx;
}

int modp(int v, int p) { return ((v % p) + p) % p; }

/// Pack `count` objects of the user buffer `src` into packed bytes `dst`.
int pack_contrib(Ctx &ctx, void *dst, const void *src, int count) {
  const std::size_t bytes = static_cast<std::size_t>(ctx.dt->size) *
                            static_cast<std::size_t>(count);
  if (bytes == 0) {
    return MPI_SUCCESS;
  }
  switch (ctx.mode) {
  case Mode::Fused: {
    trace::ScopedSpan pack(trace::Phase::PackLaunch, trace::OpKind::Coll,
                           bytes);
    tune::ScopedObservation obs(
        tune::Axis::DevicePack,
        static_cast<std::size_t>(ctx.pk->wire_block_bytes()), bytes);
    if (ctx.pk->pack(dst, src, count, ctx.stream) != vcuda::Error::Success) {
      obs.disarm();
      return MPI_ERR_OTHER;
    }
    return MPI_SUCCESS;
  }
  case Mode::Direct:
    if (vcuda::MemcpyAsync(dst, src, bytes, vcuda::MemcpyKind::Default,
                           ctx.stream) != vcuda::Error::Success) {
      return MPI_ERR_OTHER;
    }
    vcuda::StreamSynchronize(ctx.stream);
    return MPI_SUCCESS;
  case Mode::Host:
    sysmpi::baseline_pack(dst, src, count, *ctx.dt);
    return MPI_SUCCESS;
  }
  return MPI_ERR_OTHER;
}

/// Scatter packed bytes `src` back into `count` objects of user `dst`.
int unpack_result(Ctx &ctx, void *dst, const void *src, int count) {
  const std::size_t bytes = static_cast<std::size_t>(ctx.dt->size) *
                            static_cast<std::size_t>(count);
  if (bytes == 0) {
    return MPI_SUCCESS;
  }
  switch (ctx.mode) {
  case Mode::Fused: {
    trace::ScopedSpan unpack(trace::Phase::Unpack, trace::OpKind::Coll,
                             bytes);
    tune::ScopedObservation obs(
        tune::Axis::DeviceUnpack,
        static_cast<std::size_t>(ctx.pk->wire_block_bytes()), bytes);
    if (ctx.pk->unpack(dst, src, count, ctx.stream) !=
        vcuda::Error::Success) {
      obs.disarm();
      return MPI_ERR_OTHER;
    }
    return MPI_SUCCESS;
  }
  case Mode::Direct:
    if (vcuda::MemcpyAsync(dst, src, bytes, vcuda::MemcpyKind::Default,
                           ctx.stream) != vcuda::Error::Success) {
      return MPI_ERR_OTHER;
    }
    vcuda::StreamSynchronize(ctx.stream);
    return MPI_SUCCESS;
  case Mode::Host:
    sysmpi::baseline_unpack(dst, src, count, *ctx.dt);
    return MPI_SUCCESS;
  }
  return MPI_ERR_OTHER;
}

/// inout[i] = op(inout[i], in[i]) over `bytes` of packed words, on the
/// rank's combine domain (device kernel or host apply_reduce). The
/// accumulator is always the left operand.
int combine(Ctx &ctx, void *inout, const void *in, std::size_t bytes) {
  if (bytes == 0) {
    return MPI_SUCCESS;
  }
  if (ctx.on_device()) {
    trace::ScopedSpan span(trace::Phase::PackLaunch, trace::OpKind::Coll,
                           bytes);
    if (launch_reduce(ctx.sh.rop, ctx.sh.word, inout, in,
                      bytes / ctx.sh.word_bytes,
                      ctx.stream) != vcuda::Error::Success) {
      return MPI_ERR_OTHER;
    }
    vcuda::StreamSynchronize(ctx.stream);
    g_counters.kernel_launches.add();
    return MPI_SUCCESS;
  }
  if (!sysmpi::apply_reduce(ctx.sh.kind, inout, in,
                            static_cast<int>(bytes / ctx.sh.word_bytes),
                            ctx.sh.base)) {
    return MPI_ERR_TYPE;
  }
  return MPI_SUCCESS;
}

/// Fused-root fold: combine one incoming packed contribution directly into
/// the strided objects of the user recvbuf (the reduce-flavored span pass;
/// no staging unpack).
int combine_into_user(Ctx &ctx, void *recvbuf, const void *packed,
                      int count) {
  const std::size_t bytes = static_cast<std::size_t>(ctx.dt->size) *
                            static_cast<std::size_t>(count);
  trace::ScopedSpan span(trace::Phase::PackLaunch, trace::OpKind::Coll,
                         bytes);
  const PackSpan sp{0, 0, count};
  if (launch_reduce_spans(ctx.sh.rop, ctx.sh.word, ctx.pk->plan(),
                          ctx.pk->block(), ctx.pk->type_extent(), recvbuf,
                          packed, std::span<const PackSpan>(&sp, 1),
                          ctx.stream) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  vcuda::StreamSynchronize(ctx.stream);
  g_counters.kernel_launches.add();
  return MPI_SUCCESS;
}

/// Post one packed send leg. The wire path comes from choose_leg (queued-
/// bytes aware on fan-outs); Pipelined is clamped to Device — a leg's two
/// endpoints may differ in residency, and only the single-leg methods keep
/// the wire a plain byte message. Host-mode ranks always ship Device (the
/// staged path assumes a device source). Zero-byte legs are skipped on
/// both ends (segment sizes are globally known, so the skip is symmetric).
int post_send_leg(Ctx &ctx, const void *ptr, std::size_t nbytes, int peer,
                  int tag, std::vector<MPI_Request> &reqs,
                  std::size_t queued = 0) {
  if (nbytes == 0) {
    return MPI_SUCCESS;
  }
  const bool same_node = peer_on_my_node(ctx.comm, peer);
  TransferChoice c{Method::Device, 0};
  if (ctx.on_device()) {
    trace::ScopedSpan choice(trace::Phase::ModelChoice, trace::OpKind::Coll,
                             nbytes, peer, tag);
    c = perf_model().choose_leg(
        nbytes, same_node, (same_node || !topo::enabled()) ? 0 : queued);
    if (c.method == Method::Pipelined) {
      c = TransferChoice{Method::Device, 0};
    }
    choice.set_method(static_cast<std::int8_t>(c.method));
  }
  MPI_Request req = MPI_REQUEST_NULL;
  const int rc = async::start_isend_packed(ptr, nbytes, c.method,
                                           c.chunk_bytes, peer, tag, ctx.comm,
                                           *ctx.next, &req);
  if (rc == MPI_SUCCESS) {
    reqs.push_back(req);
    g_counters.peer_legs.add();
  }
  return rc;
}

/// Receive-side mirror of post_send_leg (no queue term: ejection pricing
/// is the sender's job).
int post_recv_leg(Ctx &ctx, void *ptr, std::size_t nbytes, int peer, int tag,
                  std::vector<MPI_Request> &reqs) {
  if (nbytes == 0) {
    return MPI_SUCCESS;
  }
  TransferChoice c{Method::Device, 0};
  if (ctx.on_device()) {
    trace::ScopedSpan choice(trace::Phase::ModelChoice, trace::OpKind::Coll,
                             nbytes, peer, tag);
    c = perf_model().choose_leg(nbytes, peer_on_my_node(ctx.comm, peer));
    if (c.method == Method::Pipelined) {
      c = TransferChoice{Method::Device, 0};
    }
    choice.set_method(static_cast<std::int8_t>(c.method));
  }
  MPI_Request req = MPI_REQUEST_NULL;
  const int rc = async::start_irecv_packed(ptr, nbytes, c.method, peer, tag,
                                           ctx.comm, *ctx.next, &req);
  if (rc == MPI_SUCCESS) {
    reqs.push_back(req);
    g_counters.peer_legs.add();
  }
  return rc;
}

/// Complete every posted leg (even on an earlier error: sends are
/// buffered and posted receives pair with peers' eager sends, so draining
/// cannot hang) and clear the array.
int finish_legs(Ctx &ctx, std::vector<MPI_Request> &reqs, int rc) {
  if (!reqs.empty()) {
    const int wrc = async::waitall(static_cast<int>(reqs.size()), reqs.data(),
                                   MPI_STATUSES_IGNORE, *ctx.next);
    if (rc == MPI_SUCCESS) {
      rc = wrc;
    }
    reqs.clear();
  }
  return rc;
}

// --- netmodel schedule selection ---------------------------------------------

bool comm_multi_node(MPI_Comm comm) {
  sysmpi::World &world = *comm->world;
  const int node0 = world.node_of(comm->world_rank_of(0));
  for (int r = 1; r < comm->size(); ++r) {
    if (world.node_of(comm->world_rank_of(r)) != node0) {
      return true;
    }
  }
  return false;
}

double hop_ns(std::size_t bytes, bool same_node, bool gpu) {
  return static_cast<double>(
      sysmpi::transfer_duration(sysmpi::net_params(), bytes, gpu, gpu,
                                same_node));
}

int ceil_log2(int p) {
  int rounds = 0;
  for (int m = 1; m < p; m <<= 1) {
    ++rounds;
  }
  return rounds;
}

} // namespace

Schedule choose_allreduce_schedule(std::size_t bytes, MPI_Comm comm,
                                   bool gpu) {
  const Schedule forced = g_forced.load(std::memory_order_relaxed);
  if (forced != Schedule::Auto) {
    return forced;
  }
  const int P = comm->size();
  if (P <= 2) {
    return Schedule::Linear;
  }
  const bool multi = comm_multi_node(comm);
  const int rpn = comm->world->ranks_per_node();
  // Ring: 2(P-1) neighbor hops of bytes/P. On a multi-node comm most
  // neighbors are intra-node and one hop per node crosses the wire; blend
  // the neighbor hop accordingly.
  const std::size_t seg =
      std::max<std::size_t>(1, bytes / static_cast<std::size_t>(P));
  double neigh = 0.0;
  if (multi && rpn > 1) {
    neigh = (static_cast<double>(rpn - 1) * hop_ns(seg, true, gpu) +
             hop_ns(seg, false, gpu)) /
            static_cast<double>(rpn);
  } else {
    neigh = hop_ns(seg, !multi, gpu);
  }
  const double ring = 2.0 * static_cast<double>(P - 1) * neigh;
  // Recursive doubling: ceil(log2 P) exchanges of the full payload; the
  // low-mask rounds pair ranks on one node.
  double dbl = 0.0;
  for (int mask = 1; mask < P; mask <<= 1) {
    dbl += hop_ns(bytes, !multi || mask < rpn, gpu);
  }
  // Linear: P-1 serialized gather legs at the root plus the binomial
  // broadcast's critical path.
  const double full_hop = hop_ns(bytes, !multi, gpu);
  const double lin = static_cast<double>(P - 1) * full_hop +
                     static_cast<double>(ceil_log2(P)) * full_hop;
  if (lin <= ring && lin <= dbl) {
    return Schedule::Linear;
  }
  return ring <= dbl ? Schedule::Ring : Schedule::Doubling;
}

namespace {

/// Reduce has no ring flavor (nothing to allgather): a forced Ring maps to
/// Doubling, and Auto weighs the linear fold against the binomial tree.
Schedule choose_reduce_schedule(std::size_t bytes, MPI_Comm comm, bool gpu) {
  Schedule forced = g_forced.load(std::memory_order_relaxed);
  if (forced == Schedule::Ring) {
    forced = Schedule::Doubling;
  }
  if (forced != Schedule::Auto) {
    return forced;
  }
  const int P = comm->size();
  if (P <= 2) {
    return Schedule::Linear;
  }
  const bool multi = comm_multi_node(comm);
  const double full_hop = hop_ns(bytes, !multi, gpu);
  const double lin = static_cast<double>(P - 1) * full_hop;
  const double tree = static_cast<double>(ceil_log2(P)) * full_hop;
  return tree < lin ? Schedule::Doubling : Schedule::Linear;
}

// --- schedule cores (derived datatypes, packed byte domain) ------------------
//
// Every core consumes exactly the call's collective-tag budget itself
// (allreduce / reduce_scatter: two slots, reduce: one), in the same order
// on every rank, so engine ranks stay sequence-aligned with the system
// MPI across consecutive collectives.

/// Packed binomial broadcast of `bytes` from rank 0 (the derived linear
/// allreduce's distribution phase; same tree as sysmpi's bcast_impl).
int packed_bcast(Ctx &ctx, std::byte *data, std::size_t bytes, int tag,
                 std::vector<MPI_Request> &reqs) {
  const int P = ctx.comm->size();
  const int me = ctx.comm->my_rank;
  int rc = MPI_SUCCESS;
  int mask = 1;
  while (mask < P) {
    if (me & mask) {
      rc = post_recv_leg(ctx, data, bytes, me - mask, tag, reqs);
      rc = finish_legs(ctx, reqs, rc);
      break;
    }
    mask <<= 1;
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  mask >>= 1;
  while (mask > 0 && rc == MPI_SUCCESS) {
    if (me + mask < P) {
      rc = post_send_leg(ctx, data, bytes, me + mask, tag, reqs);
    }
    mask >>= 1;
  }
  return finish_legs(ctx, reqs, rc);
}

/// Linear fold of every rank's packed contribution to rank 0, ascending
/// source order (the system association). Consumes one tag slot.
int linear_fold_to_zero(Ctx &ctx, Carrier &acc, std::size_t bytes) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const int tag = sysmpi::next_collective_tag(comm);
  std::vector<MPI_Request> reqs;
  int rc = MPI_SUCCESS;
  if (me != 0) {
    rc = post_send_leg(ctx, acc.data(), bytes, 0, tag, reqs);
    return finish_legs(ctx, reqs, rc);
  }
  if (P == 1) {
    return MPI_SUCCESS;
  }
  Carrier stage;
  if (!stage.acquire(ctx.on_device(),
                     bytes * static_cast<std::size_t>(P - 1))) {
    return MPI_ERR_OTHER;
  }
  std::vector<int> peers(static_cast<std::size_t>(P - 1));
  for (int r = 1; r < P; ++r) {
    peers[static_cast<std::size_t>(r - 1)] = r;
  }
  const std::vector<std::size_t> order = topo::schedule(comm, peers);
  for (std::size_t oi = 0; oi < order.size() && rc == MPI_SUCCESS; ++oi) {
    const std::size_t i = order[oi];
    rc = post_recv_leg(ctx, stage.data() + i * bytes, bytes,
                       peers[i], tag, reqs);
  }
  rc = finish_legs(ctx, reqs, rc);
  for (std::size_t i = 0; i < peers.size() && rc == MPI_SUCCESS; ++i) {
    rc = combine(ctx, acc.data(), stage.data() + i * bytes, bytes);
  }
  return rc;
}

/// Linear allreduce: fold to rank 0, packed binomial broadcast back.
int allreduce_linear(Ctx &ctx, Carrier &acc, std::size_t bytes) {
  int rc = linear_fold_to_zero(ctx, acc, bytes);
  const int tag2 = sysmpi::next_collective_tag(ctx.comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  std::vector<MPI_Request> reqs;
  return packed_bcast(ctx, acc.data(), bytes, tag2, reqs);
}

/// Ring fold phase over the segment table `off` (P+1 byte boundaries):
/// after P-1 steps rank r holds the finalized segment (r+1) mod P. Each
/// segment is folded as a sequential accumulator-left chain in ring
/// order, at exactly one rank per step, so the result is deterministic.
int ring_fold(Ctx &ctx, Carrier &acc, Carrier &scratch,
              const std::vector<std::size_t> &off, int tag) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const int right = modp(me + 1, P);
  const int left = modp(me - 1, P);
  std::vector<MPI_Request> reqs;
  int rc = MPI_SUCCESS;
  for (int s = 0; s < P - 1 && rc == MPI_SUCCESS; ++s) {
    const int send_seg = modp(me - s, P);
    const int recv_seg = modp(me - s - 1, P);
    const std::size_t sb = off[send_seg + 1] - off[send_seg];
    const std::size_t rb = off[recv_seg + 1] - off[recv_seg];
    rc = post_send_leg(ctx, acc.data() + off[send_seg], sb, right, tag, reqs);
    if (rc == MPI_SUCCESS) {
      rc = post_recv_leg(ctx, scratch.data(), rb, left, tag, reqs);
    }
    rc = finish_legs(ctx, reqs, rc);
    if (rc == MPI_SUCCESS) {
      rc = combine(ctx, acc.data() + off[recv_seg], scratch.data(), rb);
    }
  }
  return rc;
}

/// Ring allreduce (word-granularity segments): reduce-scatter fold, then
/// a P-1 step allgather shifting finalized segments around the ring.
int ring_allreduce(Ctx &ctx, Carrier &acc, std::size_t bytes) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const std::size_t words = bytes / ctx.sh.word_bytes;
  std::vector<std::size_t> off(static_cast<std::size_t>(P) + 1, 0);
  for (int s = 0; s < P; ++s) {
    const std::size_t w =
        words / static_cast<std::size_t>(P) +
        (static_cast<std::size_t>(s) < words % static_cast<std::size_t>(P)
             ? 1
             : 0);
    off[static_cast<std::size_t>(s) + 1] =
        off[static_cast<std::size_t>(s)] + w * ctx.sh.word_bytes;
  }
  const int tag1 = sysmpi::next_collective_tag(comm);
  if (P == 1) {
    sysmpi::next_collective_tag(comm);
    return MPI_SUCCESS;
  }
  Carrier scratch;
  if (!scratch.acquire(ctx.on_device(), off[1])) {
    sysmpi::next_collective_tag(comm);
    return MPI_ERR_OTHER;
  }
  int rc = ring_fold(ctx, acc, scratch, off, tag1);
  const int tag2 = sysmpi::next_collective_tag(comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const int right = modp(me + 1, P);
  const int left = modp(me - 1, P);
  std::vector<MPI_Request> reqs;
  for (int s = 0; s < P - 1 && rc == MPI_SUCCESS; ++s) {
    const int send_seg = modp(me + 1 - s, P);
    const int recv_seg = modp(me - s, P);
    const std::size_t sb = off[send_seg + 1] - off[send_seg];
    const std::size_t rb = off[recv_seg + 1] - off[recv_seg];
    rc = post_send_leg(ctx, acc.data() + off[send_seg], sb, right, tag2,
                       reqs);
    if (rc == MPI_SUCCESS) {
      rc = post_recv_leg(ctx, acc.data() + off[recv_seg], rb, left, tag2,
                         reqs);
    }
    rc = finish_legs(ctx, reqs, rc);
  }
  return rc;
}

/// Recursive-doubling allreduce. P rounds down to the nearest power of
/// two p2; extras (rank >= p2) pre-fold into rank-p2 partners and receive
/// the result afterwards. Every combine puts the lower rank's accumulator
/// on the left, so all ranks evaluate the same expression.
int doubling_allreduce(Ctx &ctx, Carrier &acc, std::size_t bytes) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const int p2 =
      static_cast<int>(std::bit_floor(static_cast<unsigned>(P)));
  const int tag1 = sysmpi::next_collective_tag(comm);
  std::vector<MPI_Request> reqs;
  int rc = MPI_SUCCESS;
  Carrier scratch;
  if (P > 1 && !scratch.acquire(ctx.on_device(), bytes)) {
    sysmpi::next_collective_tag(comm);
    return MPI_ERR_OTHER;
  }
  if (me >= p2) {
    rc = post_send_leg(ctx, acc.data(), bytes, me - p2, tag1, reqs);
    rc = finish_legs(ctx, reqs, rc);
  } else {
    if (me + p2 < P) {
      rc = post_recv_leg(ctx, scratch.data(), bytes, me + p2, tag1, reqs);
      rc = finish_legs(ctx, reqs, rc);
      if (rc == MPI_SUCCESS) {
        rc = combine(ctx, acc.data(), scratch.data(), bytes);
      }
    }
    for (int mask = 1; mask < p2 && rc == MPI_SUCCESS; mask <<= 1) {
      const int partner = me ^ mask;
      rc = post_send_leg(ctx, acc.data(), bytes, partner, tag1, reqs);
      if (rc == MPI_SUCCESS) {
        rc = post_recv_leg(ctx, scratch.data(), bytes, partner, tag1, reqs);
      }
      rc = finish_legs(ctx, reqs, rc);
      if (rc != MPI_SUCCESS) {
        break;
      }
      if (me < partner) {
        rc = combine(ctx, acc.data(), scratch.data(), bytes);
      } else {
        rc = combine(ctx, scratch.data(), acc.data(), bytes);
        if (rc == MPI_SUCCESS) {
          acc.swap_with(scratch);
        }
      }
    }
  }
  const int tag2 = sysmpi::next_collective_tag(comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  if (me >= p2) {
    rc = post_recv_leg(ctx, acc.data(), bytes, me - p2, tag2, reqs);
  } else if (me + p2 < P) {
    rc = post_send_leg(ctx, acc.data(), bytes, me + p2, tag2, reqs);
  }
  return finish_legs(ctx, reqs, rc);
}

/// Binomial-tree reduce to `root` in the packed domain (one tag slot).
/// Balanced tree, lower relative rank's accumulator always left.
int tree_reduce(Ctx &ctx, Carrier &acc, std::size_t bytes, int root) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const int rel = modp(me - root, P);
  const int tag = sysmpi::next_collective_tag(comm);
  std::vector<MPI_Request> reqs;
  int rc = MPI_SUCCESS;
  Carrier scratch;
  if (P > 1 && (rel & 1) == 0 &&
      !scratch.acquire(ctx.on_device(), bytes)) {
    return MPI_ERR_OTHER;
  }
  for (int mask = 1; mask < P && rc == MPI_SUCCESS; mask <<= 1) {
    if (rel & mask) {
      const int parent = modp(rel - mask + root, P);
      rc = post_send_leg(ctx, acc.data(), bytes, parent, tag, reqs);
      rc = finish_legs(ctx, reqs, rc);
      break;
    }
    if (rel + mask < P) {
      const int child = modp(rel + mask + root, P);
      rc = post_recv_leg(ctx, scratch.data(), bytes, child, tag, reqs);
      rc = finish_legs(ctx, reqs, rc);
      if (rc == MPI_SUCCESS) {
        rc = combine(ctx, acc.data(), scratch.data(), bytes);
      }
    }
  }
  return rc;
}

} // namespace

namespace {

// --- named-datatype cores (the system wire shape) ----------------------------
//
// Named engine ranks speak sysmpi's exact linear schedule — same tags,
// same sequence slots, same ascending association — so they interoperate
// with system-path peers within one call and produce bitwise-identical
// results (floats included).

Ctx named_ctx(const Shape &sh, MPI_Comm comm, const interpose::MpiTable &next,
              MPI_Datatype dt) {
  Ctx ctx;
  ctx.sh = sh;
  ctx.comm = comm;
  ctx.next = &next;
  ctx.dt = dt;
  ctx.mode = Mode::Direct; // named engine ranks are device + contiguous
  ctx.stream = vcuda::next_pool_stream();
  return ctx;
}

/// Gather-combine at `root` in ascending source order (mirrors
/// reduce_impl's association: root's own contribution first, then sources
/// ascending, skipping the root). `seed` is the root's contribution
/// location; `accum` is where the fold lands (device, `bytes` long).
int named_fold(Ctx &ctx, std::byte *accum, std::size_t bytes, int root,
               int tag) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  if (P == 1) {
    return MPI_SUCCESS;
  }
  Carrier stage;
  if (!stage.acquire(true, bytes * static_cast<std::size_t>(P - 1))) {
    return MPI_ERR_OTHER;
  }
  std::vector<int> peers;
  peers.reserve(static_cast<std::size_t>(P - 1));
  for (int r = 0; r < P; ++r) {
    if (r != root) {
      peers.push_back(r);
    }
  }
  const std::vector<std::size_t> order = topo::schedule(comm, peers);
  std::vector<MPI_Request> reqs;
  int rc = MPI_SUCCESS;
  for (std::size_t oi = 0; oi < order.size() && rc == MPI_SUCCESS; ++oi) {
    const std::size_t i = order[oi];
    rc = post_recv_leg(ctx, stage.data() + i * bytes, bytes, peers[i], tag,
                       reqs);
  }
  rc = finish_legs(ctx, reqs, rc);
  for (std::size_t i = 0; i < peers.size() && rc == MPI_SUCCESS; ++i) {
    rc = combine(ctx, accum, stage.data() + i * bytes, bytes);
  }
  return rc;
}

int allreduce_named(const void *sendbuf, void *recvbuf, int count,
                    MPI_Datatype dt, const Shape &sh, MPI_Comm comm,
                    const interpose::MpiTable &next) {
  Ctx ctx = named_ctx(sh, comm, next, dt);
  const int me = comm->my_rank;
  const std::size_t bytes = static_cast<std::size_t>(dt->size) *
                            static_cast<std::size_t>(count);
  const int tag = sysmpi::next_collective_tag(comm);
  int rc = MPI_SUCCESS;
  if (me == 0) {
    if (sendbuf != MPI_IN_PLACE) {
      if (vcuda::MemcpyAsync(recvbuf, sendbuf, bytes,
                             vcuda::MemcpyKind::Default,
                             ctx.stream) != vcuda::Error::Success) {
        rc = MPI_ERR_OTHER;
      } else {
        vcuda::StreamSynchronize(ctx.stream);
      }
    }
    if (rc == MPI_SUCCESS) {
      rc = named_fold(ctx, static_cast<std::byte *>(recvbuf), bytes, 0, tag);
    }
  } else {
    const void *contrib = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::vector<MPI_Request> reqs;
    rc = post_send_leg(ctx, contrib, bytes, 0, tag, reqs);
    rc = finish_legs(ctx, reqs, rc);
  }
  // The system broadcast consumes the second sequence slot identically on
  // engine and system ranks (bcast_impl reserves its tag before the
  // size==1 early return).
  const int brc = next.Bcast(recvbuf, count, dt, 0, comm);
  return rc == MPI_SUCCESS ? brc : rc;
}

int reduce_named(const void *sendbuf, void *recvbuf, int count,
                 MPI_Datatype dt, const Shape &sh, int root, MPI_Comm comm,
                 const interpose::MpiTable &next) {
  Ctx ctx = named_ctx(sh, comm, next, dt);
  const int me = comm->my_rank;
  const std::size_t bytes = static_cast<std::size_t>(dt->size) *
                            static_cast<std::size_t>(count);
  const int tag = sysmpi::next_collective_tag(comm);
  if (me == root) {
    if (sendbuf != MPI_IN_PLACE) {
      if (vcuda::MemcpyAsync(recvbuf, sendbuf, bytes,
                             vcuda::MemcpyKind::Default,
                             ctx.stream) != vcuda::Error::Success) {
        return MPI_ERR_OTHER;
      }
      vcuda::StreamSynchronize(ctx.stream);
    }
    return named_fold(ctx, static_cast<std::byte *>(recvbuf), bytes, root,
                      tag);
  }
  std::vector<MPI_Request> reqs;
  const int rc = post_send_leg(ctx, sendbuf, bytes, root, tag, reqs);
  return finish_legs(ctx, reqs, rc);
}

int reduce_scatter_named(const void *in, void *recvbuf,
                         const int *recvcounts, int total, MPI_Datatype dt,
                         const Shape &sh, MPI_Comm comm,
                         const interpose::MpiTable &next) {
  Ctx ctx = named_ctx(sh, comm, next, dt);
  const int P = comm->size();
  const int me = comm->my_rank;
  const std::size_t bytes = static_cast<std::size_t>(dt->size) *
                            static_cast<std::size_t>(total);
  const int tag1 = sysmpi::next_collective_tag(comm);
  int rc = MPI_SUCCESS;
  Carrier acc;
  if (me == 0) {
    if (!acc.acquire(true, bytes)) {
      sysmpi::next_collective_tag(comm);
      return MPI_ERR_OTHER;
    }
    if (vcuda::MemcpyAsync(acc.data(), in, bytes, vcuda::MemcpyKind::Default,
                           ctx.stream) != vcuda::Error::Success) {
      rc = MPI_ERR_OTHER;
    } else {
      vcuda::StreamSynchronize(ctx.stream);
      rc = named_fold(ctx, acc.data(), bytes, 0, tag1);
    }
  } else {
    std::vector<MPI_Request> reqs;
    rc = post_send_leg(ctx, in, bytes, 0, tag1, reqs);
    rc = finish_legs(ctx, reqs, rc);
  }
  const int tag2 = sysmpi::next_collective_tag(comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  if (me == 0) {
    std::vector<std::size_t> off(static_cast<std::size_t>(P) + 1, 0);
    for (int r = 0; r < P; ++r) {
      off[static_cast<std::size_t>(r) + 1] =
          off[static_cast<std::size_t>(r)] +
          static_cast<std::size_t>(recvcounts[r]) *
              static_cast<std::size_t>(dt->size);
    }
    std::vector<int> peers;
    peers.reserve(static_cast<std::size_t>(P - 1));
    for (int r = 1; r < P; ++r) {
      peers.push_back(r);
    }
    const std::vector<std::size_t> order = topo::schedule(comm, peers);
    std::vector<MPI_Request> reqs;
    std::size_t queued = 0;
    for (std::size_t oi = 0; oi < order.size() && rc == MPI_SUCCESS; ++oi) {
      const int dst = peers[order[oi]];
      const std::size_t sb = off[static_cast<std::size_t>(dst) + 1] -
                             off[static_cast<std::size_t>(dst)];
      rc = post_send_leg(ctx, acc.data() + off[static_cast<std::size_t>(dst)],
                         sb, dst, tag2, reqs, queued);
      if (rc == MPI_SUCCESS && !peer_on_my_node(comm, dst)) {
        queued += sb;
      }
    }
    if (rc == MPI_SUCCESS && recvcounts[0] > 0) {
      const std::size_t sb = off[1];
      if (vcuda::MemcpyAsync(recvbuf, acc.data(), sb,
                             vcuda::MemcpyKind::Default,
                             ctx.stream) != vcuda::Error::Success) {
        rc = MPI_ERR_OTHER;
      } else {
        vcuda::StreamSynchronize(ctx.stream);
      }
    }
    return finish_legs(ctx, reqs, rc);
  }
  std::vector<MPI_Request> reqs;
  rc = post_recv_leg(ctx, recvbuf,
                     static_cast<std::size_t>(recvcounts[me]) *
                         static_cast<std::size_t>(dt->size),
                     0, tag2, reqs);
  return finish_legs(ctx, reqs, rc);
}

} // namespace

namespace {

// --- derived-datatype cores --------------------------------------------------

/// Derived allreduce: pack, run the netmodel-chosen schedule in the
/// packed domain, unpack.
int allreduce_derived(const void *sendbuf, void *recvbuf, int count,
                      MPI_Datatype dt, const Shape &sh, MPI_Comm comm,
                      const interpose::MpiTable &next) {
  const void *contrib = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  Ctx ctx = make_ctx(sh, comm, next, dt, contrib, recvbuf);
  const std::size_t bytes = static_cast<std::size_t>(dt->size) *
                            static_cast<std::size_t>(count);
  Carrier acc;
  if (!acc.acquire(ctx.on_device(), bytes)) {
    return MPI_ERR_OTHER;
  }
  int rc = pack_contrib(ctx, acc.data(), contrib, count);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  // Schedules are priced for the device wire: the choice must be
  // process-uniform, and per-rank residency is not.
  switch (choose_allreduce_schedule(bytes, comm, true)) {
  case Schedule::Ring:
    rc = ring_allreduce(ctx, acc, bytes);
    break;
  case Schedule::Doubling:
    rc = doubling_allreduce(ctx, acc, bytes);
    break;
  case Schedule::Auto:
  case Schedule::Linear:
    rc = allreduce_linear(ctx, acc, bytes);
    break;
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  return unpack_result(ctx, recvbuf, acc.data(), count);
}

/// Derived reduce, linear schedule: the root folds incoming packed
/// contributions in ascending source order. A Fused root combines them
/// straight into the strided user recvbuf with the span kernel; a Direct
/// root folds into the contiguous recvbuf; a Host root folds packed and
/// unpacks at the end.
int reduce_derived_linear(Ctx &ctx, const void *sendbuf, void *recvbuf,
                          int count, std::size_t bytes, int root) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const int tag = sysmpi::next_collective_tag(comm);
  std::vector<MPI_Request> reqs;
  int rc = MPI_SUCCESS;
  if (me != root) {
    const void *contrib = sendbuf; // IN_PLACE is root-only
    Carrier acc;
    if (!acc.acquire(ctx.on_device(), bytes)) {
      return MPI_ERR_OTHER;
    }
    rc = pack_contrib(ctx, acc.data(), contrib, count);
    if (rc == MPI_SUCCESS) {
      rc = post_send_leg(ctx, acc.data(), bytes, root, tag, reqs);
    }
    return finish_legs(ctx, reqs, rc);
  }
  const void *contrib = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  if (ctx.mode == Mode::Fused) {
    // Seed recvbuf with the root contribution through a packed round
    // trip (touches only the type's data blocks, never the gaps).
    if (sendbuf != MPI_IN_PLACE) {
      Carrier seed;
      if (!seed.acquire(true, bytes)) {
        return MPI_ERR_OTHER;
      }
      rc = pack_contrib(ctx, seed.data(), sendbuf, count);
      if (rc == MPI_SUCCESS) {
        rc = unpack_result(ctx, recvbuf, seed.data(), count);
      }
      if (rc != MPI_SUCCESS) {
        return rc;
      }
    }
    if (P == 1) {
      return MPI_SUCCESS;
    }
    Carrier stage;
    if (!stage.acquire(true, bytes * static_cast<std::size_t>(P - 1))) {
      return MPI_ERR_OTHER;
    }
    std::vector<int> peers;
    peers.reserve(static_cast<std::size_t>(P - 1));
    for (int r = 0; r < P; ++r) {
      if (r != root) {
        peers.push_back(r);
      }
    }
    const std::vector<std::size_t> order = topo::schedule(comm, peers);
    for (std::size_t oi = 0; oi < order.size() && rc == MPI_SUCCESS; ++oi) {
      const std::size_t i = order[oi];
      rc = post_recv_leg(ctx, stage.data() + i * bytes, bytes, peers[i], tag,
                         reqs);
    }
    rc = finish_legs(ctx, reqs, rc);
    for (std::size_t i = 0; i < peers.size() && rc == MPI_SUCCESS; ++i) {
      rc = combine_into_user(ctx, recvbuf, stage.data() + i * bytes, count);
    }
    return rc;
  }
  if (ctx.mode == Mode::Direct) {
    // Contiguous device recvbuf doubles as the accumulator.
    if (sendbuf != MPI_IN_PLACE) {
      if (vcuda::MemcpyAsync(recvbuf, sendbuf, bytes,
                             vcuda::MemcpyKind::Default,
                             ctx.stream) != vcuda::Error::Success) {
        return MPI_ERR_OTHER;
      }
      vcuda::StreamSynchronize(ctx.stream);
    }
    return named_fold(ctx, static_cast<std::byte *>(recvbuf), bytes, root,
                      tag);
  }
  // Host root: packed fold, then a baseline unpack.
  Carrier acc;
  if (!acc.acquire(false, bytes)) {
    return MPI_ERR_OTHER;
  }
  rc = pack_contrib(ctx, acc.data(), contrib, count);
  if (rc == MPI_SUCCESS) {
    rc = named_fold(ctx, acc.data(), bytes, root, tag);
  }
  if (rc == MPI_SUCCESS) {
    rc = unpack_result(ctx, recvbuf, acc.data(), count);
  }
  return rc;
}

int reduce_derived(const void *sendbuf, void *recvbuf, int count,
                   MPI_Datatype dt, const Shape &sh, int root, MPI_Comm comm,
                   const interpose::MpiTable &next) {
  const int me = comm->my_rank;
  const void *contrib =
      (me == root && sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  Ctx ctx = make_ctx(sh, comm, next, dt, contrib,
                     me == root ? recvbuf : nullptr);
  const std::size_t bytes = static_cast<std::size_t>(dt->size) *
                            static_cast<std::size_t>(count);
  if (choose_reduce_schedule(bytes, comm, true) == Schedule::Linear) {
    return reduce_derived_linear(ctx, sendbuf, recvbuf, count, bytes, root);
  }
  Carrier acc;
  if (!acc.acquire(ctx.on_device(), bytes)) {
    sysmpi::next_collective_tag(comm);
    return MPI_ERR_OTHER;
  }
  int rc = pack_contrib(ctx, acc.data(), contrib, count);
  if (rc != MPI_SUCCESS) {
    sysmpi::next_collective_tag(comm);
    return rc;
  }
  rc = tree_reduce(ctx, acc, bytes, root);
  if (rc == MPI_SUCCESS && me == root) {
    rc = unpack_result(ctx, recvbuf, acc.data(), count);
  }
  return rc;
}

/// Ring reduce-scatter over the uneven recvcounts segment table: the ring
/// fold leaves rank r with finalized segment (r+1) mod P, and one shift
/// step delivers each segment to its owner.
int ring_reduce_scatter(Ctx &ctx, Carrier &acc, void *recvbuf,
                        const int *recvcounts,
                        const std::vector<std::size_t> &off) {
  MPI_Comm comm = ctx.comm;
  const int P = comm->size();
  const int me = comm->my_rank;
  const int tag1 = sysmpi::next_collective_tag(comm);
  if (P == 1) {
    sysmpi::next_collective_tag(comm);
    return unpack_result(ctx, recvbuf, acc.data(), recvcounts[0]);
  }
  std::size_t max_seg = 0;
  for (int s = 0; s < P; ++s) {
    max_seg = std::max(max_seg, off[static_cast<std::size_t>(s) + 1] -
                                    off[static_cast<std::size_t>(s)]);
  }
  Carrier scratch;
  if (!scratch.acquire(ctx.on_device(), max_seg)) {
    sysmpi::next_collective_tag(comm);
    return MPI_ERR_OTHER;
  }
  int rc = ring_fold(ctx, acc, scratch, off, tag1);
  const int tag2 = sysmpi::next_collective_tag(comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const int owner = modp(me + 1, P); // owns the segment I finalized
  const int left = modp(me - 1, P);
  const std::size_t send_bytes =
      off[static_cast<std::size_t>(owner) + 1] -
      off[static_cast<std::size_t>(owner)];
  const std::size_t my_bytes = off[static_cast<std::size_t>(me) + 1] -
                               off[static_cast<std::size_t>(me)];
  std::vector<MPI_Request> reqs;
  rc = post_send_leg(ctx, acc.data() + off[static_cast<std::size_t>(owner)],
                     send_bytes, owner, tag2, reqs);
  if (rc == MPI_SUCCESS) {
    rc = post_recv_leg(ctx, scratch.data(), my_bytes, left, tag2, reqs);
  }
  rc = finish_legs(ctx, reqs, rc);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  return unpack_result(ctx, recvbuf, scratch.data(), recvcounts[me]);
}

int reduce_scatter_derived(const void *in, void *recvbuf,
                           const int *recvcounts, int total, MPI_Datatype dt,
                           const Shape &sh, MPI_Comm comm,
                           const interpose::MpiTable &next) {
  const int P = comm->size();
  const int me = comm->my_rank;
  Ctx ctx = make_ctx(sh, comm, next, dt, in,
                     recvcounts[me] > 0 ? recvbuf : nullptr);
  const std::size_t bytes = static_cast<std::size_t>(dt->size) *
                            static_cast<std::size_t>(total);
  std::vector<std::size_t> off(static_cast<std::size_t>(P) + 1, 0);
  for (int r = 0; r < P; ++r) {
    off[static_cast<std::size_t>(r) + 1] =
        off[static_cast<std::size_t>(r)] +
        static_cast<std::size_t>(recvcounts[r]) *
            static_cast<std::size_t>(dt->size);
  }
  Carrier acc;
  if (!acc.acquire(ctx.on_device(), bytes)) {
    sysmpi::next_collective_tag(comm);
    sysmpi::next_collective_tag(comm);
    return MPI_ERR_OTHER;
  }
  int rc = pack_contrib(ctx, acc.data(), in, total);
  if (rc != MPI_SUCCESS) {
    sysmpi::next_collective_tag(comm);
    sysmpi::next_collective_tag(comm);
    return rc;
  }
  switch (choose_allreduce_schedule(bytes, comm, true)) {
  case Schedule::Ring:
    return ring_reduce_scatter(ctx, acc, recvbuf, recvcounts, off);
  case Schedule::Doubling:
    rc = doubling_allreduce(ctx, acc, bytes);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    return unpack_result(ctx, recvbuf,
                         acc.data() + off[static_cast<std::size_t>(me)],
                         recvcounts[me]);
  case Schedule::Auto:
  case Schedule::Linear:
    break;
  }
  // Linear: fold to rank 0, then scatter the packed segments.
  rc = linear_fold_to_zero(ctx, acc, bytes);
  const int tag2 = sysmpi::next_collective_tag(comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  std::vector<MPI_Request> reqs;
  if (me == 0) {
    std::vector<int> peers;
    peers.reserve(static_cast<std::size_t>(P - 1));
    for (int r = 1; r < P; ++r) {
      peers.push_back(r);
    }
    const std::vector<std::size_t> order = topo::schedule(comm, peers);
    std::size_t queued = 0;
    for (std::size_t oi = 0; oi < order.size() && rc == MPI_SUCCESS; ++oi) {
      const int dst = peers[order[oi]];
      const std::size_t sb = off[static_cast<std::size_t>(dst) + 1] -
                             off[static_cast<std::size_t>(dst)];
      rc = post_send_leg(ctx, acc.data() + off[static_cast<std::size_t>(dst)],
                         sb, dst, tag2, reqs, queued);
      if (rc == MPI_SUCCESS && !peer_on_my_node(comm, dst)) {
        queued += sb;
      }
    }
    rc = finish_legs(ctx, reqs, rc);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    return unpack_result(ctx, recvbuf, acc.data(), recvcounts[0]);
  }
  const std::size_t my_bytes = off[static_cast<std::size_t>(me) + 1] -
                               off[static_cast<std::size_t>(me)];
  rc = post_recv_leg(ctx, acc.data(), my_bytes, 0, tag2, reqs);
  rc = finish_legs(ctx, reqs, rc);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  return unpack_result(ctx, recvbuf, acc.data(), recvcounts[me]);
}

} // namespace

// --- public entry points -----------------------------------------------------

int allreduce(const void *sendbuf, void *recvbuf, int count,
              MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
              const interpose::MpiTable &next) {
  if (comm == nullptr) {
    return MPI_ERR_ARG;
  }
  const std::optional<Shape> sh = resolve_shape(datatype, op);
  if (!sh) {
    g_counters.fallback.add();
    return next.Allreduce(sendbuf, recvbuf, count, datatype, op, comm);
  }
  if (datatype->combiner == MPI_COMBINER_NAMED) {
    // System peers work for named types: admit this rank only when both
    // buffers are device-resident, and then speak the system wire shape.
    const void *contrib = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    if (count <= 0 || !device_resident(contrib) || !device_resident(recvbuf)) {
      g_counters.fallback.add();
      return next.Allreduce(sendbuf, recvbuf, count, datatype, op, comm);
    }
    g_counters.allreduce.add();
    return allreduce_named(sendbuf, recvbuf, count, datatype, *sh, comm,
                           next);
  }
  // Derived: no functioning system peers — every rank is in the engine.
  if (count < 0) {
    return MPI_ERR_COUNT;
  }
  g_counters.allreduce.add();
  if (count == 0) {
    sysmpi::next_collective_tag(comm);
    sysmpi::next_collective_tag(comm);
    return MPI_SUCCESS;
  }
  return allreduce_derived(sendbuf, recvbuf, count, datatype, *sh, comm,
                           next);
}

int reduce(const void *sendbuf, void *recvbuf, int count,
           MPI_Datatype datatype, MPI_Op op, int root, MPI_Comm comm,
           const interpose::MpiTable &next) {
  if (comm == nullptr) {
    return MPI_ERR_ARG;
  }
  const std::optional<Shape> sh = resolve_shape(datatype, op);
  if (!sh) {
    g_counters.fallback.add();
    return next.Reduce(sendbuf, recvbuf, count, datatype, op, root, comm);
  }
  const int P = comm->size();
  const int me = comm->my_rank;
  if (root < 0 || root >= P) {
    return MPI_ERR_ARG;
  }
  if (sendbuf == MPI_IN_PLACE && me != root) {
    return MPI_ERR_ARG;
  }
  if (datatype->combiner == MPI_COMBINER_NAMED) {
    const void *contrib =
        (me == root && sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
    const bool eligible = count > 0 && device_resident(contrib) &&
                          (me != root || device_resident(recvbuf));
    if (!eligible) {
      g_counters.fallback.add();
      return next.Reduce(sendbuf, recvbuf, count, datatype, op, root, comm);
    }
    g_counters.reduce.add();
    return reduce_named(sendbuf, recvbuf, count, datatype, *sh, root, comm,
                        next);
  }
  if (count < 0) {
    return MPI_ERR_COUNT;
  }
  g_counters.reduce.add();
  if (count == 0) {
    sysmpi::next_collective_tag(comm);
    return MPI_SUCCESS;
  }
  return reduce_derived(sendbuf, recvbuf, count, datatype, *sh, root, comm,
                        next);
}

int reduce_scatter(const void *sendbuf, void *recvbuf, const int *recvcounts,
                   MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
                   const interpose::MpiTable &next) {
  if (comm == nullptr) {
    return MPI_ERR_ARG;
  }
  const std::optional<Shape> sh = resolve_shape(datatype, op);
  if (!sh || recvcounts == nullptr) {
    g_counters.fallback.add();
    return next.Reduce_scatter(sendbuf, recvbuf, recvcounts, datatype, op,
                               comm);
  }
  const int P = comm->size();
  const int me = comm->my_rank;
  long long total = 0;
  for (int r = 0; r < P; ++r) {
    if (recvcounts[r] < 0) {
      return MPI_ERR_COUNT;
    }
    total += recvcounts[r];
  }
  if (total > INT_MAX) {
    return MPI_ERR_COUNT;
  }
  const void *in = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  if (datatype->combiner == MPI_COMBINER_NAMED) {
    if (total == 0 || !device_resident(in) || !device_resident(recvbuf)) {
      g_counters.fallback.add();
      return next.Reduce_scatter(sendbuf, recvbuf, recvcounts, datatype, op,
                                 comm);
    }
    g_counters.reduce_scatter.add();
    return reduce_scatter_named(in, recvbuf, recvcounts,
                                static_cast<int>(total), datatype, *sh, comm,
                                next);
  }
  g_counters.reduce_scatter.add();
  if (total == 0) {
    sysmpi::next_collective_tag(comm);
    sysmpi::next_collective_tag(comm);
    return MPI_SUCCESS;
  }
  (void)me;
  return reduce_scatter_derived(in, recvbuf, recvcounts,
                                static_cast<int>(total), datatype, *sh, comm,
                                next);
}

int reduce_scatter_block(const void *sendbuf, void *recvbuf, int recvcount,
                         MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
                         const interpose::MpiTable &next) {
  if (comm == nullptr || recvcount < 0) {
    return MPI_ERR_ARG;
  }
  const std::optional<Shape> sh = resolve_shape(datatype, op);
  if (!sh) {
    g_counters.fallback.add();
    return next.Reduce_scatter_block(sendbuf, recvbuf, recvcount, datatype,
                                     op, comm);
  }
  const int P = comm->size();
  const long long total = static_cast<long long>(recvcount) * P;
  if (total > INT_MAX) {
    return MPI_ERR_COUNT;
  }
  const void *in = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  if (datatype->combiner == MPI_COMBINER_NAMED) {
    if (total == 0 || !device_resident(in) || !device_resident(recvbuf)) {
      g_counters.fallback.add();
      return next.Reduce_scatter_block(sendbuf, recvbuf, recvcount, datatype,
                                       op, comm);
    }
    g_counters.reduce_scatter.add();
    const std::vector<int> cnt(static_cast<std::size_t>(P), recvcount);
    return reduce_scatter_named(in, recvbuf, cnt.data(),
                                static_cast<int>(total), datatype, *sh, comm,
                                next);
  }
  g_counters.reduce_scatter.add();
  if (total == 0) {
    sysmpi::next_collective_tag(comm);
    sysmpi::next_collective_tag(comm);
    return MPI_SUCCESS;
  }
  const std::vector<int> cnt(static_cast<std::size_t>(P), recvcount);
  return reduce_scatter_derived(in, recvbuf, cnt.data(),
                                static_cast<int>(total), datatype, *sh, comm,
                                next);
}

// --- knobs ---------------------------------------------------------

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

const char *schedule_name(Schedule s) {
  switch (s) {
  case Schedule::Auto:
    return "auto";
  case Schedule::Linear:
    return "linear";
  case Schedule::Ring:
    return "ring";
  case Schedule::Doubling:
    return "doubling";
  }
  return "?";
}

Schedule forced_schedule() {
  return g_forced.load(std::memory_order_relaxed);
}
void set_forced_schedule(Schedule s) {
  g_forced.store(s, std::memory_order_relaxed);
}

bool engine_shape_ok(MPI_Datatype datatype, MPI_Op op) {
  return resolve_shape(datatype, op).has_value();
}

void note_fallback() { g_counters.fallback.add(); }

} // namespace tempi::red
