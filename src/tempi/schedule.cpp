// The collective schedule executor (see schedule.hpp).
#include "tempi/schedule.hpp"

#include "sysmpi/collectives.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/methods.hpp"
#include "tempi/packer.hpp"
#include "tempi/replay.hpp"
#include "tempi/tempi.hpp"
#include "tempi/topology.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace tempi::sched {

namespace {

struct ScheduleCounters {
  trace::Counter replays{"tempi.sched.replays"};   ///< calls replayed
  trace::Counter captures{"tempi.sched.captures"}; ///< schedules recorded
  /// Entries the threads' schedule tables replaced or dropped (a full
  /// table's least recently used key, or a recorded schedule evicted to
  /// stay under the budget).
  trace::Counter evictions{"tempi.sched.evictions"};
};

/// Namespace scope, so the counters register at static initialisation.
ScheduleCounters g_counters;

/// A thread's recorded schedules.
using Table = replay::Table<Key, std::unique_ptr<Schedule>>;

} // namespace

Side classify(const void *buf, MPI_Datatype dt) {
  if (buf == nullptr || dt == nullptr || !device_resident(buf)) {
    return Side::Other;
  }
  if (dt->is_contiguous()) {
    return Side::Direct;
  }
  return find_packer_fast(dt) != nullptr ? Side::Fused : Side::Other;
}

TypeKey type_key(MPI_Datatype dt) {
  if (dt == nullptr) {
    return TypeKey{};
  }
  return TypeKey{dt, dt->size, dt->extent, find_packer_fast(dt)};
}

std::uint64_t Key::hash() const {
  std::uint64_t h = replay::mix(
      {static_cast<std::uint64_t>(kind), replay::bits(comm), comm_id,
       replay::bits(sendbuf), replay::bits(recvbuf), replay::bits(send.dt),
       replay::bits(recv.dt), replay::bits(send.pk), replay::bits(recv.pk),
       static_cast<std::uint64_t>(send.size) ^
           (static_cast<std::uint64_t>(recv.size) << 32),
       static_cast<std::uint64_t>(send.extent) ^
           (static_cast<std::uint64_t>(recv.extent) << 32),
       (static_cast<std::uint64_t>(send_side) << 8) |
           static_cast<std::uint64_t>(recv_side),
       replay::bits(op), static_cast<std::uint64_t>(root)});
  for (const long long v : args) {
    h = replay::mix({h, static_cast<std::uint64_t>(v)});
  }
  return h;
}

/// One leg as posted: its step and its transfer choice.
struct Leg {
  const Step *step = nullptr;
  TransferChoice choice;
};

/// What recording froze for one round.
struct Schedule::Frozen {
  std::vector<Leg> sends, recvs; ///< non-self legs, in issue order
  replay::GraphPtr pre;          ///< span packs, self copies and moves
  replay::GraphPtr post;         ///< combines and span unpacks
  bool pre_first = false; ///< pre holds span packs: it runs before the legs
  bool pre_fence = false; ///< the live path synchronizes pre's work
  int self_pairs = 0;     ///< self legs served by copies
  int combines = 0;       ///< device combines in post
  std::uint64_t pre_bytes = 0, post_bytes = 0; ///< bytes each phase moves
};

Schedule::Schedule(MPI_Comm comm_, const interpose::MpiTable &next_,
                   int tags)
    : comm(comm_), next(next_) {
  reserve_tags(tags);
}

Schedule::~Schedule() = default;

void Schedule::reserve_tags(int tags) {
  tags_.clear();
  for (int i = 0; i < tags; ++i) {
    tags_.push_back(sysmpi::next_collective_tag(comm));
  }
}

int Schedule::user(const void *p) {
  bufs_.emplace_back().ptr = static_cast<std::byte *>(const_cast<void *>(p));
  return static_cast<int>(bufs_.size()) - 1;
}

int Schedule::lease(std::size_t bytes, bool device) {
  Buffer &b = bufs_.emplace_back();
  b.bytes = bytes;
  b.device = device;
  b.pending = true;
  return static_cast<int>(bufs_.size()) - 1;
}

bool Schedule::acquire(int id) {
  Buffer &b = bufs_[static_cast<std::size_t>(id)];
  if (!b.pending) {
    return b.bytes == 0 || b.ptr != nullptr;
  }
  b.pending = false;
  if (b.device) {
    trace::ScopedSpan span(trace::Phase::LeaseAcquire, trace::OpKind::Coll,
                           b.bytes);
    b.lease = lease_buffer(vcuda::MemorySpace::Device, b.bytes);
    b.ptr = static_cast<std::byte *>(b.lease.get());
  } else {
    b.host.resize(b.bytes);
    b.ptr = b.host.data();
  }
  return b.bytes == 0 || b.ptr != nullptr;
}

int Schedule::spans(const Packer *pk, std::vector<PackSpan> table,
                    std::size_t total) {
  tables_.push_back(SpanTable{pk, std::move(table), total});
  return static_cast<int>(tables_.size()) - 1;
}

namespace {

bool peer_on_my_node(MPI_Comm comm, int peer) {
  sysmpi::World &world = *comm->world;
  return world.node_of(comm->world_rank_of(peer)) ==
         world.node_of(comm->world_rank_of(comm->my_rank));
}

vcuda::StreamHandle stream_of(Schedule &s) {
  if (s.stream == nullptr) {
    s.stream = vcuda::next_pool_stream();
  }
  return s.stream;
}

bool is_leg(Op op) { return op == Op::Send || op == Op::Recv; }
bool is_move(Op op) { return op == Op::Pack || op == Op::Unpack; }
bool is_combine(Op op) { return op == Op::Combine || op == Op::CombineUser; }

/// Post one leg with choice `c`, or as a typed system leg when `c` is
/// null; +1 posted leg.
int post_leg(Schedule &s, const Step &st, bool send, int tag,
             const TransferChoice *c, std::vector<MPI_Request> &reqs) {
  std::byte *p = s.data(send ? st.src : st.dst);
  MPI_Request req = MPI_REQUEST_NULL;
  int rc = MPI_SUCCESS;
  if (c == nullptr) {
    const MPI_Datatype typed = send ? s.send_type : s.recv_type;
    rc = send ? s.next.Isend(p, st.count, typed, st.peer, tag, s.comm, &req)
              : s.next.Irecv(p, st.count, typed, st.peer, tag, s.comm, &req);
  } else {
    rc = send ? async::start_isend_packed(p, st.bytes, c->method,
                                          c->chunk_bytes, st.peer, tag,
                                          s.comm, s.next, &req)
              : async::start_irecv_packed(p, st.bytes, c->method, st.peer,
                                          tag, s.comm, s.next, &req);
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  reqs.push_back(req);
  s.legs->add();
  return MPI_SUCCESS;
}

/// Post round `r`'s legs of kind `op` (Send or Recv), each choice made by
/// the model as its leg posts; self legs keep their place in the issue
/// order but are not posted when `self_copy`. A recording run collects
/// the packed legs with their choices in `frozen`.
int post(Schedule &s, const Round &r, Op op, bool self_copy,
         std::vector<MPI_Request> &reqs, std::vector<Leg> *frozen) {
  const bool send = op == Op::Send;
  const Side side = send ? s.send_side : s.recv_side;
  const MPI_Datatype typed = send ? s.send_type : s.recv_type;
  std::vector<const Step *> legs;
  std::vector<int> peers;
  for (const Step &st : r.steps) {
    if (st.op == op && (st.bytes > 0 || !s.skip_empty_legs)) {
      legs.push_back(&st);
      peers.push_back(st.peer);
    }
  }
  std::vector<std::size_t> order(legs.size());
  if (r.fan_out) {
    order = topo::schedule(s.comm, peers);
  } else {
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  const int tag = s.tag(r.tag);
  std::size_t queued = 0;
  for (const std::size_t i : order) {
    const Step &st = *legs[i];
    if (self_copy && st.peer == s.comm->my_rank) {
      continue;
    }
    const bool same_node = peer_on_my_node(s.comm, st.peer);
    int rc = MPI_SUCCESS;
    if (side == Side::Other && typed != nullptr) {
      rc = post_leg(s, st, send, tag, nullptr, reqs);
    } else {
      // Other-side reduction carriers are host memory: they always ship
      // Device (the staged path assumes a device source).
      TransferChoice c{Method::Device, 0};
      if (side != Side::Other) {
        trace::ScopedSpan choice(trace::Phase::ModelChoice,
                                 trace::OpKind::Coll, st.bytes, st.peer, tag);
        // Queue-depth pricing is part of the topology feature: with
        // TEMPI_TOPO=0 legs are chosen queue-blind, as in rank order.
        const bool priced = send && r.fan_out && !same_node && topo::enabled();
        c = perf_model().choose_transfer(
            st.bytes, st.bytes,
            {TransferKind::Leg, same_node, priced ? queued : 0});
        if (s.clamp_pipelined && c.method == Method::Pipelined) {
          c = TransferChoice{Method::Device, 0};
        }
        choice.set_method(static_cast<std::int8_t>(c.method));
      }
      if (frozen != nullptr) {
        frozen->push_back(Leg{&st, c});
      }
      rc = post_leg(s, st, send, tag, &c, reqs);
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    if (!same_node) {
      queued += st.bytes;
    }
  }
  return MPI_SUCCESS;
}

/// Post recorded legs with their frozen choices, in their recorded order.
int post_frozen(Schedule &s, const Round &r, bool send,
                const std::vector<Leg> &legs,
                std::vector<MPI_Request> &reqs) {
  const int tag = s.tag(r.tag);
  for (const Leg &l : legs) {
    if (const int rc = post_leg(s, *l.step, send, tag, &l.choice, reqs);
        rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

/// Wait on every posted leg; the first error wins.
int drain(Schedule &s, std::vector<MPI_Request> &reqs, int rc) {
  if (reqs.empty()) {
    return rc;
  }
  const int wrc = async::waitall(static_cast<int>(reqs.size()), reqs.data(),
                                 MPI_STATUSES_IGNORE, s.next);
  return rc == MPI_SUCCESS ? wrc : rc;
}

/// Self legs served by device copies: the k-th self send into the k-th
/// self receive, when both sides address packed bytes and the counts pair.
bool self_pairs(const Schedule &s, const Round &r,
                std::vector<const Step *> &sends,
                std::vector<const Step *> &recvs) {
  for (const Step &st : r.steps) {
    if (is_leg(st.op) && st.peer == s.comm->my_rank) {
      (st.op == Op::Send ? sends : recvs).push_back(&st);
    }
  }
  return !sends.empty() && sends.size() == recvs.size() &&
         s.send_side != Side::Other && s.recv_side != Side::Other;
}

/// Replay a recorded phase moving `bytes` on the schedule stream, then
/// fence the stream when `fence`.
int launch(Schedule &s, const replay::GraphPtr &graph, bool fence,
           std::uint64_t bytes) {
  trace::ScopedSpan span(trace::Phase::GraphReplay, trace::OpKind::Coll,
                         bytes);
  if (vcuda::GraphLaunch(graph.get(), s.stream) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  if (fence) {
    vcuda::StreamFence(s.stream);
  }
  return MPI_SUCCESS;
}

} // namespace

/// The executor's internals (they read the Schedule's private state).
struct Exec {
  enum class Mode : std::uint8_t { Live, Record, Replay };

  /// Bytes step `st` moves on the device (0: nothing to do).
  static std::size_t device_bytes(const Schedule &s, const Step &st) {
    switch (st.op) {
    case Op::PackSpans:
    case Op::UnpackSpans:
      return s.tables_[static_cast<std::size_t>(st.table)].total;
    case Op::Combine:
      return st.bytes;
    default:
      return static_cast<std::size_t>(s.dt->size) *
             static_cast<std::size_t>(st.count);
    }
  }

  /// Enqueue device step `st` (a span pass, a Fused/Direct move or a
  /// device combine) on `stream` without synchronizing.
  static vcuda::Error enqueue(Schedule &s, const Step &st,
                              vcuda::StreamHandle stream) {
    std::byte *dst = s.data(st.dst);
    const std::byte *src = s.data(st.src);
    switch (st.op) {
    case Op::PackSpans:
    case Op::UnpackSpans: {
      const Schedule::SpanTable &t =
          s.tables_[static_cast<std::size_t>(st.table)];
      return st.op == Op::PackSpans
                 ? t.pk->pack_spans_async(dst, src, t.spans, stream)
                 : t.pk->unpack_spans_async(dst, src, t.spans, stream);
    }
    case Op::Pack:
    case Op::Unpack:
      if (s.recv_side == Side::Direct) {
        return vcuda::MemcpyAsync(dst, src, device_bytes(s, st),
                                  vcuda::MemcpyKind::Default, stream);
      }
      return st.op == Op::Pack ? s.pk->pack_async(dst, src, st.count, stream)
                               : s.pk->unpack_async(dst, src, st.count,
                                                    stream);
    case Op::Combine:
      return launch_reduce(s.comb.rop, s.comb.word, dst, src,
                           st.bytes / s.comb.word_bytes, stream);
    case Op::CombineUser: {
      const PackSpan sp{0, 0, st.count};
      return launch_reduce_spans(s.comb.rop, s.comb.word, s.pk->plan(),
                                 s.pk->block(), s.pk->type_extent(), dst, src,
                                 std::span<const PackSpan>(&sp, 1), stream);
    }
    default:
      return vcuda::Error::InvalidValue;
    }
  }

  static void sync(Schedule &s) {
    vcuda::StreamSynchronize(s.stream);
    s.unsynced_ = false;
  }

  /// One span-kernel pass, synchronized on `stream`. Tuner harvest: the
  /// pass is a clean launch+sync sample at the collective's {block, total}
  /// key.
  static int span_pass(Schedule &s, const Step &st, int tag,
                       vcuda::StreamHandle stream) {
    const Schedule::SpanTable &t =
        s.tables_[static_cast<std::size_t>(st.table)];
    const bool pack = st.op == Op::PackSpans;
    trace::ScopedSpan span(pack ? trace::Phase::PackLaunch
                                : trace::Phase::Unpack,
                           trace::OpKind::Coll, t.total, -1, tag);
    tune::ScopedObservation obs(
        pack ? tune::Axis::DevicePack : tune::Axis::DeviceUnpack,
        static_cast<std::size_t>(t.pk->wire_block_bytes()), t.total);
    const vcuda::Error e = enqueue(s, st, stream);
    vcuda::StreamSynchronize(stream);
    if (stream == s.stream) {
      s.unsynced_ = false;
    }
    if (e != vcuda::Error::Success) {
      obs.disarm();
      return MPI_ERR_OTHER;
    }
    return MPI_SUCCESS;
  }

  /// Pack or unpack `count` objects between user memory and packed bytes
  /// in the rank's domain (Fused: packer kernel, Direct: a copy, Other:
  /// the baseline engine). Synchronous.
  static int move(Schedule &s, const Step &st) {
    const bool pack = st.op == Op::Pack;
    const std::size_t bytes = device_bytes(s, st);
    if (bytes == 0) {
      return MPI_SUCCESS;
    }
    switch (s.recv_side) {
    case Side::Fused: {
      trace::ScopedSpan span(pack ? trace::Phase::PackLaunch
                                  : trace::Phase::Unpack,
                             trace::OpKind::Coll, bytes);
      tune::ScopedObservation obs(
          pack ? tune::Axis::DevicePack : tune::Axis::DeviceUnpack,
          static_cast<std::size_t>(s.pk->wire_block_bytes()), bytes);
      if (enqueue(s, st, stream_of(s)) != vcuda::Error::Success) {
        obs.disarm();
        return MPI_ERR_OTHER;
      }
      sync(s);
      return MPI_SUCCESS;
    }
    case Side::Direct:
      if (enqueue(s, st, stream_of(s)) != vcuda::Error::Success) {
        return MPI_ERR_OTHER;
      }
      sync(s);
      return MPI_SUCCESS;
    case Side::Other:
      (pack ? sysmpi::baseline_pack : sysmpi::baseline_unpack)(
          s.data(st.dst), s.data(st.src), st.count, *s.dt);
      return MPI_SUCCESS;
    }
    return MPI_ERR_OTHER;
  }

  /// dst = dst op src on the rank's combine domain (device kernel or host
  /// apply_reduce): the accumulator is always the left operand.
  /// CombineUser folds into the strided user objects with the span kernel.
  static int combine(Schedule &s, const Step &st) {
    const std::size_t bytes = device_bytes(s, st);
    if (bytes == 0) {
      return MPI_SUCCESS;
    }
    if (s.recv_side == Side::Other) {
      return sysmpi::apply_reduce(s.comb.kind, s.data(st.dst),
                                  s.data(st.src),
                                  static_cast<int>(bytes / s.comb.word_bytes),
                                  s.comb.base)
                 ? MPI_SUCCESS
                 : MPI_ERR_TYPE;
    }
    trace::ScopedSpan span(trace::Phase::PackLaunch, trace::OpKind::Coll,
                           bytes);
    if (enqueue(s, st, stream_of(s)) != vcuda::Error::Success) {
      return MPI_ERR_OTHER;
    }
    sync(s);
    s.kernels->add();
    return MPI_SUCCESS;
  }

  /// Self legs as device copies, every pair validated before any copy is
  /// enqueued. Not synchronized: a later pass on the stream, or run()'s
  /// end, observes them.
  static int self_copies(Schedule &s, const std::vector<const Step *> &sends,
                         const std::vector<const Step *> &recvs) {
    const vcuda::StreamHandle stream = stream_of(s);
    s.unsynced_ = true;
    for (std::size_t k = 0; k < sends.size(); ++k) {
      if (sends[k]->bytes > recvs[k]->bytes) {
        return MPI_ERR_TRUNCATE;
      }
    }
    for (std::size_t k = 0; k < sends.size(); ++k) {
      s.legs->add();
      if (sends[k]->bytes > 0) {
        vcuda::MemcpyAsync(s.data(recvs[k]->dst), s.data(sends[k]->src),
                           sends[k]->bytes, vcuda::MemcpyKind::Default,
                           stream);
      }
    }
    return MPI_SUCCESS;
  }

  static bool acquire_all(Schedule &s, const Round &r) {
    for (const Step &st : r.steps) {
      for (const Ref &ref : {st.dst, st.src}) {
        if (ref.buf >= 0 && !s.acquire(ref.buf)) {
          return false;
        }
      }
    }
    return true;
  }

  static int run_round(Schedule &s, const Round &r) {
    // Span packs first, each with its own stream: the legs read their
    // staging.
    for (const Step &st : r.steps) {
      if (st.op == Op::PackSpans &&
          (!s.acquire(st.dst.buf) ||
           span_pass(s, st, s.tag(r.tag), vcuda::next_pool_stream()) !=
               MPI_SUCCESS)) {
        return MPI_ERR_OTHER;
      }
    }
    if (!acquire_all(s, r)) {
      return MPI_ERR_OTHER;
    }
    std::vector<const Step *> self_sends, self_recvs;
    const bool self_copy = self_pairs(s, r, self_sends, self_recvs);
    std::vector<MPI_Request> reqs;
    int rc = post(s, r, Op::Send, self_copy, reqs, nullptr);
    if (rc == MPI_SUCCESS) {
      rc = post(s, r, Op::Recv, self_copy, reqs, nullptr);
    }
    if (rc == MPI_SUCCESS && self_copy) {
      rc = self_copies(s, self_sends, self_recvs);
    }
    for (const Step &st : r.steps) {
      if (rc == MPI_SUCCESS && is_move(st.op)) {
        rc = move(s, st);
      }
    }
    rc = drain(s, reqs, rc);
    for (const Step &st : r.steps) {
      if (rc != MPI_SUCCESS) {
        break;
      }
      if (is_combine(st.op)) {
        rc = combine(s, st);
      } else if (st.op == Op::UnpackSpans) {
        rc = span_pass(s, st, s.tag(r.tag), stream_of(s));
      }
    }
    return rc;
  }

  /// Capture round `r`'s device phase into `*graph` on the schedule
  /// stream: the span packs, self copies and moves before the wait
  /// (`pre`), or the combines and span unpacks after it. A phase with no
  /// device work records nothing.
  static int capture(Schedule &s, const Round &r, bool pre,
                     const std::vector<const Step *> &self_sends,
                     const std::vector<const Step *> &self_recvs,
                     Schedule::Frozen &f, replay::GraphPtr *graph) {
    std::vector<const Step *> items;
    for (const Step &st : r.steps) {
      const bool phase = pre ? st.op == Op::PackSpans || is_move(st.op)
                             : st.op == Op::UnpackSpans || is_combine(st.op);
      if (phase && device_bytes(s, st) > 0) {
        items.push_back(&st);
      }
    }
    // Span packs lead, then the self copies, then the moves: the live
    // order.
    std::stable_partition(items.begin(), items.end(), [](const Step *st) {
      return st->op == Op::PackSpans;
    });
    bool copies = false;
    for (const Step *st : self_sends) {
      copies = copies || st->bytes > 0;
    }
    if (items.empty() && !(pre && copies)) {
      return MPI_SUCCESS;
    }
    const vcuda::StreamHandle stream = stream_of(s);
    vcuda::GraphHandle g = nullptr;
    const int rc = capture_on(stream, &g, trace::OpKind::Coll, [&] {
      std::size_t k = 0;
      for (; k < items.size() && items[k]->op == Op::PackSpans; ++k) {
        if (enqueue(s, *items[k], stream) != vcuda::Error::Success) {
          return MPI_ERR_OTHER;
        }
      }
      for (std::size_t p = 0; pre && p < self_sends.size(); ++p) {
        if (self_sends[p]->bytes > 0) {
          vcuda::MemcpyAsync(s.data(self_recvs[p]->dst),
                             s.data(self_sends[p]->src),
                             self_sends[p]->bytes,
                             vcuda::MemcpyKind::Default, stream);
        }
      }
      for (; k < items.size(); ++k) {
        if (enqueue(s, *items[k], stream) != vcuda::Error::Success) {
          return MPI_ERR_OTHER;
        }
      }
      return MPI_SUCCESS;
    });
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    graph->reset(g);
    std::uint64_t &bytes = pre ? f.pre_bytes : f.post_bytes;
    for (const Step *st : items) {
      f.pre_first = f.pre_first || st->op == Op::PackSpans;
      f.pre_fence = f.pre_fence || st->op == Op::PackSpans || is_move(st->op);
      f.combines += is_combine(st->op) ? 1 : 0;
      bytes += device_bytes(s, *st);
    }
    for (const Step *st : self_sends) {
      bytes += pre ? st->bytes : 0;
    }
    return MPI_SUCCESS;
  }

  /// Run recorded round `f` of `r`; a recording run (`record`) first
  /// fills `f`: leg order and choices, and the phase graphs.
  static int recorded_round(Schedule &s, const Round &r, Schedule::Frozen &f,
                            bool record) {
    std::vector<const Step *> self_sends, self_recvs;
    if (record) {
      if (!acquire_all(s, r)) {
        return MPI_ERR_OTHER;
      }
      if (self_pairs(s, r, self_sends, self_recvs)) {
        f.self_pairs = static_cast<int>(self_sends.size());
      } else {
        self_sends.clear();
        self_recvs.clear();
      }
      // Span packs make pre run ahead of the legs; capture it now if so.
      const bool packs = std::any_of(
          r.steps.begin(), r.steps.end(), [&](const Step &st) {
            return st.op == Op::PackSpans && device_bytes(s, st) > 0;
          });
      if (packs && capture(s, r, true, self_sends, self_recvs, f, &f.pre) !=
                       MPI_SUCCESS) {
        return MPI_ERR_OTHER;
      }
    }
    if (f.pre_first &&
        launch(s, f.pre, true, f.pre_bytes) != MPI_SUCCESS) {
      return MPI_ERR_OTHER;
    }
    std::vector<MPI_Request> reqs;
    const bool self_copy = f.self_pairs > 0;
    int rc = record ? post(s, r, Op::Send, self_copy, reqs, &f.sends)
                    : post_frozen(s, r, true, f.sends, reqs);
    if (rc == MPI_SUCCESS) {
      rc = record ? post(s, r, Op::Recv, self_copy, reqs, &f.recvs)
                  : post_frozen(s, r, false, f.recvs, reqs);
    }
    if (rc == MPI_SUCCESS) {
      s.legs->add(static_cast<std::uint64_t>(f.self_pairs));
      if (record && !f.pre_first) {
        rc = capture(s, r, true, self_sends, self_recvs, f, &f.pre);
      }
    }
    if (rc == MPI_SUCCESS && f.pre && !f.pre_first) {
      rc = launch(s, f.pre, f.pre_fence, f.pre_bytes);
      s.unsynced_ = !f.pre_fence;
    }
    rc = drain(s, reqs, rc);
    if (rc == MPI_SUCCESS && record) {
      rc = capture(s, r, false, {}, {}, f, &f.post);
    }
    if (rc == MPI_SUCCESS && f.post) {
      rc = launch(s, f.post, true, f.post_bytes);
      s.unsynced_ = false;
      if (f.combines > 0) {
        s.kernels->add(static_cast<std::uint64_t>(f.combines));
      }
    }
    return rc;
  }

  static int run(Schedule &s, Mode mode) {
    if (mode == Mode::Record) {
      s.frozen_.resize(s.rounds_.size());
    }
    int rc = MPI_SUCCESS;
    std::size_t i = 0;
    for (const Round &r : s.rounds_) {
      rc = mode == Mode::Live
               ? run_round(s, r)
               : recorded_round(s, r, s.frozen_[i], mode == Mode::Record);
      ++i;
      if (rc != MPI_SUCCESS) {
        break;
      }
    }
    // Self copies no later pass observed: a recorded schedule fences them.
    if (s.unsynced_) {
      if (mode == Mode::Live) {
        vcuda::StreamSynchronize(s.stream);
      } else {
        vcuda::StreamFence(s.stream);
      }
      s.unsynced_ = false;
    }
    return rc;
  }

  /// A schedule the table may record: every leg and local step on a
  /// device side, self pairs that fit, and leases within the budget.
  static bool recordable(const Schedule &s) {
    for (const Round &r : s.rounds_) {
      for (const Step &st : r.steps) {
        const Side side = st.op == Op::Send ? s.send_side : s.recv_side;
        if (st.op != Op::PackSpans && st.op != Op::UnpackSpans &&
            side == Side::Other) {
          return false;
        }
      }
      std::vector<const Step *> sends, recvs;
      if (self_pairs(s, r, sends, recvs)) {
        for (std::size_t k = 0; k < sends.size(); ++k) {
          if (sends[k]->bytes > recvs[k]->bytes) {
            return false; // the live path reports the truncation
          }
        }
      }
    }
    std::size_t bytes = 0;
    for (const Schedule::Buffer &b : s.bufs_) {
      bytes += b.device ? std::bit_ceil(b.bytes) : 0;
    }
    return bytes <= replay::kBudget;
  }

  /// Serve a call from recorded schedule `s` on fresh tag slots.
  static int replay(Schedule &s, int tags) {
    s.reserve_tags(tags);
    g_counters.replays.add();
    return run(s, Mode::Replay);
  }

  /// Device lease bytes a recorded schedule pins.
  static std::size_t pinned(const Schedule &s) {
    std::size_t bytes = 0;
    for (const Schedule::Buffer &b : s.bufs_) {
      bytes += b.lease.capacity();
    }
    return bytes;
  }
};

int run(const Key &key, const interpose::MpiTable &next, int tags,
        Build build) {
  // What a recording is valid under: the legs' frozen choices and issue
  // orders follow the model and the topology switch.
  const std::uint64_t stamp =
      (choice_generation() << 1) | static_cast<std::uint64_t>(topo::enabled());
  int rc = MPI_SUCCESS;
  bool ran = false;
  // Build the call's schedule and run it: recorded when `record` and the
  // schedule is recordable, else live.
  const auto build_and_run = [&](bool record) -> Table::Recorded {
    auto fresh = std::make_unique<Schedule>(key.comm, next, tags);
    build(*fresh);
    ran = true;
    record = record && Exec::recordable(*fresh);
    rc = Exec::run(*fresh, record ? Exec::Mode::Record : Exec::Mode::Live);
    if (!record || rc != MPI_SUCCESS) {
      return {};
    }
    const std::size_t bytes = Exec::pinned(*fresh);
    return {std::move(fresh), bytes};
  };
  Table &table = replay::thread_table<Table>(g_counters.evictions);
  const Table::Entry *e = table.sight(key, stamp, &g_counters.captures,
                                      [&] { return build_and_run(true); });
  if (e == nullptr && !ran) {
    build_and_run(false); // a first sighting
  }
  return ran ? rc : Exec::replay(*e->program, tags);
}

} // namespace tempi::sched
