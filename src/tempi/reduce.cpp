// The GPU reduction-collectives engine (see reduce.hpp for the
// architecture, the interoperability contract, and the floating-point
// ordering guarantees).
#include "tempi/reduce.hpp"

#include "sysmpi/netmodel.hpp"
#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"
#include "tempi/kernels.hpp"
#include "tempi/schedule.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
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
using Shape = sched::Combiner;

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

/// ceil(log2 p) for p >= 1: the binomial tree's depth.
int ceil_log2(int p) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(p - 1)));
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

// --- schedule generators (packed byte domain) --------------------------------
//
// Each generator appends rounds to one call's Schedule; the executor
// (tempi/schedule.*) posts, waits and combines, and a repeated call
// replays the recorded schedule without running its generator.
// sched::run reserves the whole tag budget (allreduce / reduce_scatter:
// two slots, reduce: one; the named allreduce's system Bcast tail reserves
// its own), so engine ranks stay sequence-aligned with the system MPI on
// every path.

using sched::Op;
using sched::Ref;
using sched::Side;

int modp(int v, int p) { return ((v % p) + p) % p; }

/// A derived-datatype rank's side, from its buffers' residency; `result`
/// is null on ranks that never materialize a result (non-root Reduce).
Side side_of(MPI_Datatype dt, const void *contrib, const void *result) {
  const Side side = sched::classify(contrib, dt);
  return side != Side::Other && result != nullptr &&
                 sched::classify(result, dt) == Side::Other
             ? Side::Other
             : side;
}

/// The identity of one reduction call: its datatype, side and resolved
/// combine, the op and root, its `n` counts, and the forced schedule.
sched::Key reduction_key(sched::Kind kind, const void *sendbuf,
                         const void *recvbuf, MPI_Datatype dt, const Shape &sh,
                         MPI_Op op, int root, MPI_Comm comm, Side side,
                         const int *counts, int n) {
  sched::Key key;
  key.kind = kind;
  key.comm = comm;
  key.comm_id = comm->id;
  key.sendbuf = sendbuf;
  key.recvbuf = recvbuf;
  key.send = key.recv = sched::type_key(dt);
  key.send_side = key.recv_side = side;
  key.op = op;
  key.root = root;
  key.args_of(counts, n)
      .arg(static_cast<long long>(sh.rop))
      .arg(static_cast<long long>(sh.word))
      .arg(static_cast<long long>(sh.base))
      .arg(static_cast<long long>(g_forced.load(std::memory_order_relaxed)));
  return key;
}

/// One reduction call's generator state: the schedule it fills plus the
/// facts every generator reads.
struct Call {
  sched::Schedule &s;
  int me, P;
  std::size_t bytes; ///< packed payload of the full vector

  Call(sched::Schedule &schedule, const Shape &sh, MPI_Datatype dt,
       int count, Side side)
      : s(schedule), me(schedule.comm->my_rank), P(schedule.comm->size()),
        bytes(static_cast<std::size_t>(dt->size) *
              static_cast<std::size_t>(count)) {
    s.send_side = s.recv_side = side;
    s.dt = dt;
    s.pk = side == Side::Fused ? find_packer_fast(dt) : nullptr;
    s.comb = sh;
    s.clamp_pipelined = true;
    s.skip_empty_legs = dt->combiner != MPI_COMBINER_NAMED;
    s.legs = &g_counters.peer_legs;
    s.kernels = &g_counters.kernel_launches;
    if (bytes > 0) {
      s.stream = vcuda::next_pool_stream();
    }
  }
  Ref user(const void *p) { return Ref{s.user(p)}; }
  /// A schedule-domain buffer: a device lease, or host memory on Other.
  Ref carrier(std::size_t n) {
    return Ref{s.lease(n, s.recv_side != Side::Other)};
  }
  /// A carrier holding the packed form of `count` objects at `src`.
  Ref packed(const void *src, int count) {
    const Ref acc = carrier(bytes);
    s.round(0).local(Op::Pack, acc, user(src), 0, count);
    return acc;
  }
};

/// Bytes of segment `r` in a P+1 boundary table.
std::size_t seg(const std::vector<std::size_t> &off, int r) {
  return off[r + 1] - off[r];
}

/// Fold every rank's `bytes` into `mine` at `root`: other ranks ship
/// theirs, the root receives the P-1 contributions into one staging
/// carrier (a fan-out) and combines them in ascending source order onto
/// its own accumulator, always the left operand — the system MPI's
/// association. `into_user`: `mine` is the root's strided user recvbuf
/// (Fused), folded by the span kernel.
void fold_to_root(Call &c, int root, Ref mine, int count,
                  bool into_user = false) {
  if (c.me != root) {
    c.s.round(0).send(root, mine, c.bytes);
    return;
  }
  if (c.P == 1) {
    return;
  }
  const Ref stage = c.carrier(c.bytes * static_cast<std::size_t>(c.P - 1));
  sched::Round &r = c.s.round(0, /*fan_out=*/true);
  std::size_t slot = 0;
  for (int src = 0; src < c.P; ++src) {
    if (src != root) {
      const Ref in = stage.at(slot++ * c.bytes);
      r.recv(src, in, c.bytes);
      r.local(into_user ? Op::CombineUser : Op::Combine, mine, in, c.bytes,
              count);
    }
  }
}

/// Linear reduce to `root`: the system MPI's wire shape. A Fused root
/// seeds its strided recvbuf through a packed round trip (touching only
/// the type's data blocks, never the gaps) and folds into it with the
/// span kernel; a Direct root folds into its contiguous recvbuf; an Other
/// root folds a host carrier and unpacks at the end. Named types ship the
/// user sendbuf itself; derived non-roots pack first.
void linear_reduce(Call &c, const void *sendbuf, void *recvbuf, int count,
                   int root, bool named) {
  const bool in_place = sendbuf == MPI_IN_PLACE;
  if (c.me != root) {
    const void *contrib = in_place ? recvbuf : sendbuf;
    fold_to_root(c, root, named ? c.user(contrib) : c.packed(contrib, count),
                 count);
    return;
  }
  const Ref out = c.user(recvbuf);
  if (c.s.recv_side == Side::Other) {
    const Ref acc = c.packed(in_place ? recvbuf : sendbuf, count);
    fold_to_root(c, root, acc, count);
    c.s.round(0).local(Op::Unpack, out, acc, 0, count);
    return;
  }
  const bool fused = c.s.recv_side == Side::Fused;
  if (!in_place) {
    sched::Round &seed = c.s.round(0);
    if (fused) {
      const Ref tmp = c.carrier(c.bytes);
      seed.local(Op::Pack, tmp, c.user(sendbuf), 0, count)
          .local(Op::Unpack, out, tmp, 0, count);
    } else {
      seed.local(Op::Pack, out, c.user(sendbuf), 0, count);
    }
  }
  fold_to_root(c, root, out, count, fused);
}

/// Packed binomial broadcast of `data` from rank 0 (the linear
/// allreduce's distribution phase; the same tree as sysmpi's bcast_impl).
void bcast_from_zero(Call &c, Ref data, int tag) {
  int mask = 1;
  for (; mask < c.P; mask <<= 1) {
    if ((c.me & mask) != 0) {
      c.s.round(tag).recv(c.me - mask, data, c.bytes);
      break;
    }
  }
  sched::Round &r = c.s.round(tag);
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (c.me + mask < c.P) {
      r.send(c.me + mask, data, c.bytes);
    }
  }
}

/// Rank 0 ships every other rank its segment of `acc` (a fan-out) and
/// unpacks its own; the others receive theirs — straight into the user
/// recvbuf for named types, through `acc` and an unpack for derived.
void scatter_from_zero(Call &c, Ref acc, void *recvbuf, const int *counts,
                       const std::vector<std::size_t> &off, bool named) {
  const Ref out = c.user(recvbuf);
  if (c.me == 0) {
    sched::Round &r = c.s.round(1, /*fan_out=*/true);
    for (int dst = 1; dst < c.P; ++dst) {
      r.send(dst, acc.at(off[dst]), seg(off, dst));
    }
    r.local(Op::Unpack, out, acc, 0, counts[0]);
    return;
  }
  c.s.round(1).recv(0, named ? out : acc, seg(off, c.me));
  if (!named) {
    c.s.round(1).local(Op::Unpack, out, acc, 0, counts[c.me]);
  }
}

/// P-1 ring steps over the segment table `off` (P+1 byte boundaries):
/// each sends segment (me + lead - step) right and receives segment
/// (me + lead - step - 1) from the left — in place, or into `scratch`
/// and folded onto `acc`. The fold (lead 0) leaves rank r with the
/// finalized segment (r+1) mod P: each segment is folded as a sequential
/// accumulator-left chain in ring order, at exactly one rank per step, so
/// the result is deterministic.
void ring_pass(Call &c, Ref acc, Ref scratch,
               const std::vector<std::size_t> &off, int lead, int tag) {
  for (int step = 0; step < c.P - 1; ++step) {
    const int ss = modp(c.me + lead - step, c.P);
    const int rs = modp(c.me + lead - step - 1, c.P);
    const bool fold = scratch.buf >= 0;
    sched::Round &r = c.s.round(tag);
    r.send(modp(c.me + 1, c.P), acc.at(off[ss]), seg(off, ss));
    r.recv(modp(c.me - 1, c.P), fold ? scratch : acc.at(off[rs]),
           seg(off, rs));
    if (fold) {
      r.local(Op::Combine, acc.at(off[rs]), scratch, seg(off, rs));
    }
  }
}

/// Ring allreduce (word-granularity segments): the reduce-scatter fold,
/// then a P-1 step allgather shifting finalized segments around the ring.
void ring_allreduce(Call &c, Ref acc) {
  if (c.P == 1) {
    return;
  }
  const std::size_t words = c.bytes / c.s.comb.word_bytes;
  const auto P = static_cast<std::size_t>(c.P);
  std::vector<std::size_t> off(P + 1, 0);
  for (std::size_t s = 0; s < P; ++s) {
    off[s + 1] = off[s] + (words / P + (s < words % P ? 1 : 0)) *
                              c.s.comb.word_bytes;
  }
  ring_pass(c, acc, c.carrier(off[1]), off, 0, 0);
  ring_pass(c, acc, Ref{}, off, 1, 1);
}

/// Ring reduce-scatter over the uneven recvcounts segment table: the ring
/// fold leaves rank r with finalized segment (r+1) mod P, and one shift
/// step delivers each segment to its owner.
void ring_reduce_scatter(Call &c, Ref acc, void *recvbuf, const int *counts,
                         const std::vector<std::size_t> &off) {
  const Ref out = c.user(recvbuf);
  if (c.P == 1) {
    c.s.round(1).local(Op::Unpack, out, acc, 0, counts[0]);
    return;
  }
  std::size_t max_seg = 0;
  for (int r = 0; r < c.P; ++r) {
    max_seg = std::max(max_seg, seg(off, r));
  }
  const Ref scratch = c.carrier(max_seg);
  ring_pass(c, acc, scratch, off, 0, 0);
  const int owner = modp(c.me + 1, c.P); // owns the segment I finalized
  sched::Round &r = c.s.round(1);
  r.send(owner, acc.at(off[owner]), seg(off, owner));
  r.recv(modp(c.me - 1, c.P), scratch, seg(off, c.me));
  c.s.round(1).local(Op::Unpack, out, scratch, 0, counts[c.me]);
}

/// Recursive-doubling allreduce. P rounds down to the nearest power of
/// two p2; extras (rank >= p2) pre-fold into rank-p2 partners and receive
/// the result afterwards, so they never touch the combine scratch. Every
/// combine puts the lower rank's accumulator on the left, so all ranks
/// evaluate the same expression. Returns where the result lands.
Ref doubling_allreduce(Call &c, Ref acc) {
  const int p2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(c.P)));
  Ref scratch = c.carrier(c.bytes);
  if (c.me >= p2) {
    c.s.round(0).send(c.me - p2, acc, c.bytes);
    c.s.round(1).recv(c.me - p2, acc, c.bytes);
    return acc;
  }
  if (c.me + p2 < c.P) {
    sched::Round &r = c.s.round(0);
    r.recv(c.me + p2, scratch, c.bytes);
    r.local(Op::Combine, acc, scratch, c.bytes);
  }
  for (int mask = 1; mask < p2; mask <<= 1) {
    const int partner = c.me ^ mask;
    sched::Round &r = c.s.round(0);
    r.send(partner, acc, c.bytes);
    r.recv(partner, scratch, c.bytes);
    if (c.me < partner) {
      r.local(Op::Combine, acc, scratch, c.bytes);
    } else {
      r.local(Op::Combine, scratch, acc, c.bytes);
      std::swap(acc, scratch);
    }
  }
  if (c.me + p2 < c.P) {
    c.s.round(1).send(c.me + p2, acc, c.bytes);
  }
  return acc;
}

/// Binomial-tree reduce to `root`: a balanced tree, the lower relative
/// rank's accumulator always left.
void tree_reduce(Call &c, Ref acc, int root) {
  const int rel = modp(c.me - root, c.P);
  const Ref scratch = c.carrier(c.bytes);
  for (int mask = 1; mask < c.P; mask <<= 1) {
    if ((rel & mask) != 0) {
      c.s.round(0).send(modp(rel - mask + root, c.P), acc, c.bytes);
      return;
    }
    if (rel + mask < c.P) {
      sched::Round &r = c.s.round(0);
      r.recv(modp(rel + mask + root, c.P), scratch, c.bytes);
      r.local(Op::Combine, acc, scratch, c.bytes);
    }
  }
}

} // namespace

// --- public entry points -----------------------------------------------------
//
// Named datatypes: the engine admits a rank only when its buffers are
// device-resident and then runs the named generator (the system wire
// shape); any other rank forwards to `next` itself. Derived datatypes have
// no functioning system peers, so every rank runs a netmodel-chosen
// generator, zero counts included (an empty schedule still reserves the
// call's tag budget).

int allreduce(const void *sendbuf, void *recvbuf, int count,
              MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
              const interpose::MpiTable &next) {
  if (comm == nullptr) {
    return MPI_ERR_ARG;
  }
  const std::optional<Shape> sh = resolve_shape(datatype, op);
  const void *contrib = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  const bool named = sh && datatype->combiner == MPI_COMBINER_NAMED;
  if (!sh || (named && (count <= 0 || !device_resident(contrib) ||
                        !device_resident(recvbuf)))) {
    g_counters.fallback.add();
    return next.Allreduce(sendbuf, recvbuf, count, datatype, op, comm);
  }
  if (count < 0) {
    return MPI_ERR_COUNT;
  }
  g_counters.allreduce.add();
  // Named engine ranks passed the residency gate: device + contiguous.
  const Side side = named ? Side::Direct : side_of(datatype, contrib, recvbuf);
  const int rc = sched::run(
      reduction_key(sched::Kind::Allreduce, sendbuf, recvbuf, datatype, *sh,
                    op, -1, comm, side, &count, 1),
      next, named ? 1 : 2, [&](sched::Schedule &s) {
        Call c(s, *sh, datatype, count, side);
        if (named) {
          linear_reduce(c, sendbuf, recvbuf, count, 0, true);
        } else if (count > 0) {
          Ref acc = c.packed(contrib, count);
          // Schedules are priced for the device wire: the choice must be
          // process-uniform, and per-rank residency is not.
          switch (choose_allreduce_schedule(c.bytes, comm, true)) {
          case Schedule::Ring:
            ring_allreduce(c, acc);
            break;
          case Schedule::Doubling:
            acc = doubling_allreduce(c, acc);
            break;
          case Schedule::Auto:
          case Schedule::Linear:
            fold_to_root(c, 0, acc, count);
            bcast_from_zero(c, acc, 1);
            break;
          }
          c.s.round(1).local(Op::Unpack, c.user(recvbuf), acc, 0, count);
        }
      });
  if (!named) {
    return rc;
  }
  // The system broadcast consumes the second sequence slot identically on
  // engine and system ranks (bcast_impl reserves its tag before the
  // size==1 early return).
  const int brc = next.Bcast(recvbuf, count, datatype, 0, comm);
  return rc == MPI_SUCCESS ? brc : rc;
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
  const int me = comm->my_rank;
  if (root < 0 || root >= comm->size() ||
      (sendbuf == MPI_IN_PLACE && me != root)) {
    return MPI_ERR_ARG;
  }
  const void *contrib =
      (me == root && sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  const bool named = datatype->combiner == MPI_COMBINER_NAMED;
  if (named && (count <= 0 || !device_resident(contrib) ||
                (me == root && !device_resident(recvbuf)))) {
    g_counters.fallback.add();
    return next.Reduce(sendbuf, recvbuf, count, datatype, op, root, comm);
  }
  if (count < 0) {
    return MPI_ERR_COUNT;
  }
  g_counters.reduce.add();
  const Side side =
      named ? Side::Direct
            : side_of(datatype, contrib, me == root ? recvbuf : nullptr);
  return sched::run(
      reduction_key(sched::Kind::Reduce, sendbuf, recvbuf, datatype, *sh, op,
                    root, comm, side, &count, 1),
      next, 1, [&](sched::Schedule &s) {
        Call c(s, *sh, datatype, count, side);
        if (count > 0 &&
            (named || choose_reduce_schedule(c.bytes, comm, true) ==
                          Schedule::Linear)) {
          linear_reduce(c, sendbuf, recvbuf, count, root, named);
        } else if (count > 0) {
          const Ref acc = c.packed(contrib, count);
          tree_reduce(c, acc, root);
          if (me == root) {
            c.s.round(0).local(Op::Unpack, c.user(recvbuf), acc, 0, count);
          }
        }
      });
}

int reduce_scatter(const void *sendbuf, void *recvbuf, const int *recvcounts,
                   MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
                   const interpose::MpiTable &next) {
  if (comm == nullptr) {
    return MPI_ERR_ARG;
  }
  const std::optional<Shape> sh = resolve_shape(datatype, op);
  const void *in = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  const bool named = sh && datatype->combiner == MPI_COMBINER_NAMED;
  const int P = comm->size();
  const int me = comm->my_rank;
  long long total = 0;
  for (int r = 0; sh && recvcounts != nullptr && r < P; ++r) {
    if (recvcounts[r] < 0) {
      return MPI_ERR_COUNT;
    }
    total += recvcounts[r];
  }
  if (total > INT_MAX) {
    return MPI_ERR_COUNT;
  }
  if (!sh || recvcounts == nullptr ||
      (named && (total == 0 || !device_resident(in) ||
                 !device_resident(recvbuf)))) {
    g_counters.fallback.add();
    return next.Reduce_scatter(sendbuf, recvbuf, recvcounts, datatype, op,
                               comm);
  }
  g_counters.reduce_scatter.add();
  const int n = static_cast<int>(total);
  const Side side =
      named ? Side::Direct
            : side_of(datatype, in, recvcounts[me] > 0 ? recvbuf : nullptr);
  return sched::run(
      reduction_key(sched::Kind::ReduceScatter, sendbuf, recvbuf, datatype,
                    *sh, op, -1, comm, side, recvcounts, P),
      next, 2, [&](sched::Schedule &s) {
        Call c(s, *sh, datatype, n, side);
        if (n == 0) {
          return;
        }
        std::vector<std::size_t> off(static_cast<std::size_t>(P) + 1, 0);
        for (std::size_t r = 0; r < static_cast<std::size_t>(P); ++r) {
          off[r + 1] = off[r] + static_cast<std::size_t>(recvcounts[r]) *
                                    static_cast<std::size_t>(datatype->size);
        }
        const Schedule kind =
            named ? Schedule::Linear
                  : choose_allreduce_schedule(c.bytes, comm, true);
        Ref acc = named && me != 0 ? c.user(in) : c.packed(in, n);
        switch (kind) {
        case Schedule::Ring:
          ring_reduce_scatter(c, acc, recvbuf, recvcounts, off);
          break;
        case Schedule::Doubling:
          acc = doubling_allreduce(c, acc);
          c.s.round(1).local(Op::Unpack, c.user(recvbuf),
                             acc.at(off[static_cast<std::size_t>(me)]), 0,
                             recvcounts[me]);
          break;
        case Schedule::Auto:
        case Schedule::Linear:
          fold_to_root(c, 0, acc, n);
          scatter_from_zero(c, acc, recvbuf, recvcounts, off, named);
          break;
        }
      });
}

int reduce_scatter_block(const void *sendbuf, void *recvbuf, int recvcount,
                         MPI_Datatype datatype, MPI_Op op, MPI_Comm comm,
                         const interpose::MpiTable &next) {
  if (comm == nullptr || recvcount < 0) {
    return MPI_ERR_ARG;
  }
  const std::vector<int> counts(static_cast<std::size_t>(comm->size()),
                                recvcount);
  return reduce_scatter(sendbuf, recvbuf, counts.data(), datatype, op, comm,
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
