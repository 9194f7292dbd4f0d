// The collective schedule executor (see schedule.hpp).
#include "tempi/schedule.hpp"

#include "sysmpi/collectives.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/packer.hpp"
#include "tempi/tempi.hpp"
#include "tempi/topology.hpp"
#include "vcuda/runtime.hpp"

#include <numeric>

namespace tempi::sched {

Side classify(const void *buf, MPI_Datatype dt) {
  if (buf == nullptr || dt == nullptr || !device_resident(buf)) {
    return Side::Other;
  }
  if (dt->is_contiguous()) {
    return Side::Direct;
  }
  return find_packer_fast(dt) != nullptr ? Side::Fused : Side::Other;
}

Schedule::Schedule(MPI_Comm comm_, const interpose::MpiTable &next_,
                   int tags)
    : comm(comm_), next(next_) {
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

/// Post round `r`'s legs of kind `op` (Send or Recv); self legs keep
/// their place in the issue order but are not posted when `self_copy`.
int post(Schedule &s, const Round &r, Op op, bool self_copy,
         std::vector<MPI_Request> &reqs) {
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
    std::byte *p = s.data(send ? st.src : st.dst);
    const bool same_node = peer_on_my_node(s.comm, st.peer);
    MPI_Request req = MPI_REQUEST_NULL;
    int rc = MPI_SUCCESS;
    if (side == Side::Other && typed != nullptr) {
      rc = send ? s.next.Isend(p, st.count, typed, st.peer, tag, s.comm, &req)
                : s.next.Irecv(p, st.count, typed, st.peer, tag, s.comm,
                               &req);
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
      rc = send ? async::start_isend_packed(p, st.bytes, c.method,
                                            c.chunk_bytes, st.peer, tag,
                                            s.comm, s.next, &req)
                : async::start_irecv_packed(p, st.bytes, c.method, st.peer,
                                            tag, s.comm, s.next, &req);
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    reqs.push_back(req);
    s.legs->add();
    if (!same_node) {
      queued += st.bytes;
    }
  }
  return MPI_SUCCESS;
}

/// Pack or unpack `count` objects between user memory and packed bytes in
/// the rank's domain (Fused: packer kernel, Direct: a copy, Other: the
/// baseline engine). Synchronous.
int move(Schedule &s, const Step &st) {
  const bool pack = st.op == Op::Pack;
  std::byte *dst = s.data(st.dst);
  const std::byte *src = s.data(st.src);
  const int count = st.count;
  const std::size_t bytes = static_cast<std::size_t>(s.dt->size) *
                            static_cast<std::size_t>(count);
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
    const vcuda::Error e = pack ? s.pk->pack(dst, src, count, stream_of(s))
                                : s.pk->unpack(dst, src, count, stream_of(s));
    if (e != vcuda::Error::Success) {
      obs.disarm();
      return MPI_ERR_OTHER;
    }
    return MPI_SUCCESS;
  }
  case Side::Direct:
    if (vcuda::MemcpyAsync(dst, src, bytes, vcuda::MemcpyKind::Default,
                           stream_of(s)) != vcuda::Error::Success) {
      return MPI_ERR_OTHER;
    }
    vcuda::StreamSynchronize(s.stream);
    return MPI_SUCCESS;
  case Side::Other:
    (pack ? sysmpi::baseline_pack : sysmpi::baseline_unpack)(dst, src, count,
                                                             *s.dt);
    return MPI_SUCCESS;
  }
  return MPI_ERR_OTHER;
}

/// dst = dst op src on the rank's combine domain (device kernel or host
/// apply_reduce): the accumulator is always the left operand. CombineUser
/// folds into the strided user objects with the span kernel.
int combine(Schedule &s, const Step &st) {
  const bool user = st.op == Op::CombineUser;
  const std::size_t bytes =
      user ? static_cast<std::size_t>(s.dt->size) *
                 static_cast<std::size_t>(st.count)
           : st.bytes;
  if (bytes == 0) {
    return MPI_SUCCESS;
  }
  std::byte *dst = s.data(st.dst);
  const std::byte *src = s.data(st.src);
  if (s.recv_side == Side::Other) {
    return sysmpi::apply_reduce(s.comb.kind, dst, src,
                                static_cast<int>(bytes / s.comb.word_bytes),
                                s.comb.base)
               ? MPI_SUCCESS
               : MPI_ERR_TYPE;
  }
  trace::ScopedSpan span(trace::Phase::PackLaunch, trace::OpKind::Coll,
                         bytes);
  const PackSpan sp{0, 0, st.count};
  const vcuda::Error e =
      user ? launch_reduce_spans(s.comb.rop, s.comb.word, s.pk->plan(),
                                 s.pk->block(), s.pk->type_extent(), dst, src,
                                 std::span<const PackSpan>(&sp, 1),
                                 stream_of(s))
           : launch_reduce(s.comb.rop, s.comb.word, dst, src,
                           bytes / s.comb.word_bytes, stream_of(s));
  if (e != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  vcuda::StreamSynchronize(s.stream);
  s.kernels->add();
  return MPI_SUCCESS;
}

bool is_leg(Op op) { return op == Op::Send || op == Op::Recv; }
bool is_combine(Op op) { return op == Op::Combine || op == Op::CombineUser; }

/// Self legs as device copies: the k-th self send into the k-th self
/// receive, every pair validated before any copy is enqueued.
int self_copies(Schedule &s, const std::vector<const Step *> &sends,
                const std::vector<const Step *> &recvs) {
  const vcuda::StreamHandle stream = stream_of(s);
  for (std::size_t k = 0; k < sends.size(); ++k) {
    if (sends[k]->bytes > recvs[k]->bytes) {
      return MPI_ERR_TRUNCATE;
    }
  }
  for (std::size_t k = 0; k < sends.size(); ++k) {
    s.legs->add();
    if (sends[k]->bytes > 0) {
      vcuda::MemcpyAsync(s.data(recvs[k]->dst), s.data(sends[k]->src),
                         sends[k]->bytes, vcuda::MemcpyKind::Default, stream);
    }
  }
  return MPI_SUCCESS;
}

int run_round(Schedule &s, const Round &r) {
  for (const Step &st : r.steps) {
    for (const Ref &ref : {st.dst, st.src}) {
      if (ref.buf >= 0 && !s.acquire(ref.buf)) {
        return MPI_ERR_OTHER;
      }
    }
  }
  std::vector<const Step *> self_sends, self_recvs;
  for (const Step &st : r.steps) {
    if (is_leg(st.op) && st.peer == s.comm->my_rank) {
      (st.op == Op::Send ? self_sends : self_recvs).push_back(&st);
    }
  }
  const bool self_copy = !self_sends.empty() &&
                         self_sends.size() == self_recvs.size() &&
                         s.send_side != Side::Other &&
                         s.recv_side != Side::Other;
  std::vector<MPI_Request> reqs;
  int rc = post(s, r, Op::Send, self_copy, reqs);
  if (rc == MPI_SUCCESS) {
    rc = post(s, r, Op::Recv, self_copy, reqs);
  }
  if (rc == MPI_SUCCESS && self_copy) {
    rc = self_copies(s, self_sends, self_recvs);
  }
  for (const Step &st : r.steps) {
    if (rc == MPI_SUCCESS && !is_leg(st.op) && !is_combine(st.op)) {
      rc = move(s, st);
    }
  }
  if (!reqs.empty()) {
    const int wrc = async::waitall(static_cast<int>(reqs.size()),
                                   reqs.data(), MPI_STATUSES_IGNORE, s.next);
    rc = rc == MPI_SUCCESS ? wrc : rc;
  }
  for (const Step &st : r.steps) {
    if (rc == MPI_SUCCESS && is_combine(st.op)) {
      rc = combine(s, st);
    }
  }
  return rc;
}

} // namespace

int run(Schedule &s) {
  for (const Round &r : s.rounds_) {
    if (const int rc = run_round(s, r); rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

} // namespace tempi::sched
