// The collectives engine (see collectives.hpp for the architecture and
// the per-rank interoperability contract).
#include "tempi/collectives.hpp"

#include "sysmpi/collectives.hpp"
#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/methods.hpp"
#include "tempi/packer.hpp"
#include "tempi/topology.hpp"
#include "tempi/trace.hpp"
#include "tempi/tempi.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <vector>

namespace tempi::coll {

namespace {

std::atomic<bool> g_enabled{true};

struct CollCounters {
  trace::Counter alltoallv{"tempi.coll.alltoallv"};
  trace::Counter neighbor{"tempi.coll.neighbor"};
  trace::Counter fallback{"tempi.coll.fallback"};
  trace::Counter peer_legs{"tempi.coll.peer_legs"};
};

/// Namespace scope, so the counters register at static initialisation.
CollCounters g_counters;

/// One per-peer slot of an exchange: `count` objects at displacement
/// `displ` (in datatype-extent units, as the MPI arguments give them).
struct Slot {
  int peer = 0;
  int count = 0;
  long long displ = 0;
};

/// How one side of the exchange is carried (chosen per rank, per side —
/// the wire format is packed bytes regardless, see collectives.hpp).
enum class SideMode {
  Fused,   ///< device + canonical packer: span-kernel pass via staging
  Direct,  ///< device + contiguous (extent == size): user-buffer slices
  Forward, ///< anything else: typed system legs (baseline pack/unpack)
};

SideMode side_mode(const void *buf, MPI_Datatype dt) {
  if (dt == nullptr || !device_resident(buf)) {
    return SideMode::Forward;
  }
  if (dt->is_contiguous()) {
    return SideMode::Direct;
  }
  if (find_packer_fast(dt) != nullptr) {
    return SideMode::Fused;
  }
  return SideMode::Forward;
}

bool peer_on_my_node(MPI_Comm comm, int peer) {
  sysmpi::World &world = *comm->world;
  return world.node_of(comm->world_rank_of(peer)) ==
         world.node_of(comm->world_rank_of(comm->my_rank));
}

bool lease_failed(const CachedBuffer &buf, std::size_t bytes) {
  return bytes > 0 && buf.get() == nullptr;
}

/// The exchange core every engine collective reduces onto. Sends are
/// posted eagerly (packed legs through the request engine, typed legs
/// through the system Isend — all buffered), receives are matched lazily
/// by one Waitall in slot order (preserving per-(peer, tag) FIFO pairing
/// for repeated neighbors), then the fused unpack pass scatters the recv
/// staging into the user buffer.
int exchange(const void *sendbuf, MPI_Datatype sendtype,
             const std::vector<Slot> &sends, void *recvbuf,
             MPI_Datatype recvtype, const std::vector<Slot> &recvs,
             MPI_Comm comm, const interpose::MpiTable &next) {
  const int me = comm->my_rank;
  const SideMode smode =
      sends.empty() ? SideMode::Forward : side_mode(sendbuf, sendtype);
  const SideMode rmode =
      recvs.empty() ? SideMode::Forward : side_mode(recvbuf, recvtype);
  const long long ssize = sendtype != nullptr ? sendtype->size : 0;
  const long long sextent = sendtype != nullptr ? sendtype->extent : 0;
  const long long rsize = recvtype != nullptr ? recvtype->size : 0;
  const long long rextent = recvtype != nullptr ? recvtype->extent : 0;
  const auto *sbase = static_cast<const std::byte *>(sendbuf);
  auto *rbase = static_cast<std::byte *>(recvbuf);
  // The system MPI's own tag derivation: the engine must use the exact
  // tag — and consume the exact sequence slot — a system-path rank does
  // for the same call, so mixed engine/system ranks interoperate within
  // one collective and stay aligned for the next.
  const int tag = sysmpi::next_collective_tag(comm);

  // Self-exchange legs short-circuit as device-side copies when both
  // sides can address packed bytes and the self slots pair one-to-one
  // (k-th self send <-> k-th self recv, matching the per-(peer, tag) FIFO
  // a wire round-trip would produce). Otherwise self rides the local
  // mailbox like any other leg.
  std::size_t self_sends = 0, self_recvs = 0;
  for (const Slot &s : sends) {
    self_sends += s.peer == me ? 1 : 0;
  }
  for (const Slot &r : recvs) {
    self_recvs += r.peer == me ? 1 : 0;
  }
  const bool self_copy = smode != SideMode::Forward &&
                         rmode != SideMode::Forward &&
                         self_sends > 0 && self_sends == self_recvs;
  g_counters.peer_legs.add(sends.size() + recvs.size() -
                           (self_copy ? self_sends : 0));

  // Packed staging offsets (prefix sums over every slot, self included:
  // the single span pass then covers self copies too).
  std::vector<std::size_t> soff(sends.size(), 0), roff(recvs.size(), 0);
  std::size_t stotal = 0, rtotal = 0;
  if (smode == SideMode::Fused) {
    for (std::size_t i = 0; i < sends.size(); ++i) {
      soff[i] = stotal;
      stotal += static_cast<std::size_t>(sends[i].count) *
                static_cast<std::size_t>(ssize);
    }
  }
  if (rmode == SideMode::Fused) {
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      roff[i] = rtotal;
      rtotal += static_cast<std::size_t>(recvs[i].count) *
                static_cast<std::size_t>(rsize);
    }
  }

  // Fused send side: one staging lease, one span-kernel pass, one sync
  // (the wire must not depart before the pack lands).
  CachedBuffer sstage, rstage;
  const Packer *spk = nullptr;
  const Packer *rpk = nullptr;
  if (smode == SideMode::Fused) {
    spk = find_packer_fast(sendtype);
    {
      trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::Coll,
                              stotal);
      sstage = lease_buffer(vcuda::MemorySpace::Device, stotal);
    }
    if (lease_failed(sstage, stotal)) {
      return MPI_ERR_OTHER;
    }
    std::vector<PackSpan> spans;
    spans.reserve(sends.size());
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i].count > 0) {
        spans.push_back(PackSpan{sends[i].displ * sextent,
                                 static_cast<long long>(soff[i]),
                                 sends[i].count});
      }
    }
    trace::ScopedSpan pack(trace::Phase::PackLaunch, trace::OpKind::Coll,
                           stotal, -1, tag);
    // Tuner harvest: the fused gather is a clean launch+sync device-pack
    // sample at the collective's {block, total} key.
    tune::ScopedObservation obs(
        tune::Axis::DevicePack,
        static_cast<std::size_t>(spk->wire_block_bytes()), stotal);
    vcuda::StreamHandle pack_stream = vcuda::next_pool_stream();
    if (spk->pack_spans_async(sstage.get(), sendbuf, spans, pack_stream) !=
        vcuda::Error::Success) {
      obs.disarm();
      vcuda::StreamSynchronize(pack_stream);
      return MPI_ERR_OTHER;
    }
    vcuda::StreamSynchronize(pack_stream);
  }
  if (rmode == SideMode::Fused) {
    rpk = find_packer_fast(recvtype);
    trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::Coll,
                            rtotal);
    rstage = lease_buffer(vcuda::MemorySpace::Device, rtotal);
    if (lease_failed(rstage, rtotal)) {
      return MPI_ERR_OTHER;
    }
  }

  const auto send_ptr = [&](std::size_t i) -> const std::byte * {
    return smode == SideMode::Fused
               ? static_cast<const std::byte *>(sstage.get()) + soff[i]
               : sbase + sends[i].displ * sextent;
  };
  const auto recv_ptr = [&](std::size_t i) -> std::byte * {
    return rmode == SideMode::Fused
               ? static_cast<std::byte *>(rstage.get()) + roff[i]
               : rbase + recvs[i].displ * rextent;
  };

  const PerfModel &model = perf_model();
  std::vector<MPI_Request> reqs;
  reqs.reserve(sends.size() + recvs.size());
  // On any posting failure, whatever is already in flight must still be
  // completed (sends are buffered, receives had not been matched yet is
  // impossible — they only match inside waitall — so this cannot hang...
  // except that a posted receive leg pairs with a peer's eager send; the
  // peer posted it regardless of our failure, so draining is safe).
  const auto bail = [&](int code) {
    async::waitall(static_cast<int>(reqs.size()), reqs.data(),
                   MPI_STATUSES_IGNORE, next);
    return code;
  };

  // Node-aware issue orders (tempi/topology.*): same-peer slots keep
  // their relative order, so the per-(peer, tag) FIFO pairing the wire
  // relies on is preserved; across peers the order is free, and walking
  // destination nodes round-robin instead of rank order keeps any one
  // NIC from being the whole fan-out's first target. Identity when the
  // kill-switch is off.
  std::vector<int> speers(sends.size()), rpeers(recvs.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    speers[i] = sends[i].peer;
  }
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    rpeers[i] = recvs[i].peer;
  }
  const std::vector<std::size_t> sorder = topo::schedule(comm, speers);
  const std::vector<std::size_t> rorder = topo::schedule(comm, rpeers);

  // Post every send leg eagerly, in scheduled order. `queued` tracks the
  // packed bytes this rank has already aimed at its injection port, so
  // choose_leg can price the queue drain into each successive leg.
  int rc = MPI_SUCCESS;
  std::size_t queued = 0;
  for (std::size_t oi = 0; oi < sorder.size() && rc == MPI_SUCCESS; ++oi) {
    const std::size_t i = sorder[oi];
    const Slot &s = sends[i];
    if (self_copy && s.peer == me) {
      continue;
    }
    const bool same_node = peer_on_my_node(comm, s.peer);
    MPI_Request req = MPI_REQUEST_NULL;
    if (smode == SideMode::Forward) {
      rc = next.Isend(sbase + s.displ * sextent, s.count, sendtype, s.peer,
                      tag, comm, &req);
    } else {
      const std::size_t bytes = static_cast<std::size_t>(s.count) *
                                static_cast<std::size_t>(ssize);
      TransferChoice c;
      {
        trace::ScopedSpan choice(trace::Phase::ModelChoice,
                                 trace::OpKind::Coll, bytes, s.peer, tag);
        // Queue-depth pricing is part of the topology feature: with the
        // kill-switch off the baseline must choose legs exactly as it
        // did before (TEMPI_TOPO=0 restores rank-order bit-for-bit).
        c = model.choose_leg(bytes, same_node,
                             (same_node || !topo::enabled()) ? 0 : queued);
        choice.set_method(static_cast<std::int8_t>(c.method));
      }
      rc = async::start_isend_packed(send_ptr(i), bytes, c.method,
                                     c.chunk_bytes, s.peer, tag, comm, next,
                                     &req);
    }
    if (rc == MPI_SUCCESS) {
      reqs.push_back(req);
      if (!same_node) {
        queued += static_cast<std::size_t>(s.count) *
                  static_cast<std::size_t>(ssize);
      }
    }
  }
  if (rc != MPI_SUCCESS) {
    return bail(rc);
  }

  // Post every receive leg (matched lazily at the Waitall below), in the
  // scheduled order: same-peer slots still pair FIFO like the system
  // path, and draining sources node-round-robin tracks the staggered
  // arrival order the senders produce.
  for (std::size_t oi = 0; oi < rorder.size() && rc == MPI_SUCCESS; ++oi) {
    const std::size_t i = rorder[oi];
    const Slot &r = recvs[i];
    if (self_copy && r.peer == me) {
      continue;
    }
    MPI_Request req = MPI_REQUEST_NULL;
    if (rmode == SideMode::Forward) {
      rc = next.Irecv(rbase + r.displ * rextent, r.count, recvtype, r.peer,
                      tag, comm, &req);
    } else {
      const std::size_t bytes = static_cast<std::size_t>(r.count) *
                                static_cast<std::size_t>(rsize);
      TransferChoice c;
      {
        trace::ScopedSpan choice(trace::Phase::ModelChoice,
                                 trace::OpKind::Coll, bytes, r.peer, tag);
        c = model.choose_leg(bytes, peer_on_my_node(comm, r.peer));
        choice.set_method(static_cast<std::int8_t>(c.method));
      }
      rc = async::start_irecv_packed(recv_ptr(i), bytes, c.method, r.peer,
                                     tag, comm, next, &req);
    }
    if (rc == MPI_SUCCESS) {
      reqs.push_back(req);
    }
  }
  if (rc != MPI_SUCCESS) {
    return bail(rc);
  }

  // Self-exchange copies: k-th self send slot to k-th self recv slot, on
  // the stream the fused unpack pass will use, so the scatter observes
  // them in order. Send-side packed bytes are ready (pack synced above).
  vcuda::StreamHandle tail_stream = nullptr;
  if (self_copy) {
    tail_stream = vcuda::next_pool_stream();
    std::vector<std::size_t> self_recv_idx;
    self_recv_idx.reserve(self_recvs);
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      if (recvs[i].peer == me) {
        self_recv_idx.push_back(i);
      }
    }
    // Validate every pair before enqueuing any copy, so the error path
    // leaves no stream work referencing the staging leases.
    std::size_t k = 0;
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i].peer != me) {
        continue;
      }
      const std::size_t j = self_recv_idx[k++];
      if (static_cast<std::size_t>(sends[i].count) *
              static_cast<std::size_t>(ssize) >
          static_cast<std::size_t>(recvs[j].count) *
              static_cast<std::size_t>(rsize)) {
        return bail(MPI_ERR_TRUNCATE);
      }
    }
    k = 0;
    for (std::size_t i = 0; i < sends.size(); ++i) {
      if (sends[i].peer != me) {
        continue;
      }
      const std::size_t j = self_recv_idx[k++];
      const std::size_t sbytes = static_cast<std::size_t>(sends[i].count) *
                                 static_cast<std::size_t>(ssize);
      if (sbytes > 0) {
        vcuda::MemcpyAsync(recv_ptr(j), send_ptr(i), sbytes,
                           vcuda::MemcpyKind::Default, tail_stream);
      }
    }
  }

  // One Waitall drives every wire leg: sends reclaim their buffered
  // transfers, receives run their (possibly multi-leg) wire state
  // machines, and staged H2D copies share the batched stream sync.
  rc = async::waitall(static_cast<int>(reqs.size()), reqs.data(),
                      MPI_STATUSES_IGNORE, next);
  if (rc != MPI_SUCCESS) {
    if (tail_stream != nullptr) {
      vcuda::StreamSynchronize(tail_stream);
    }
    return rc;
  }

  // Fused receive side: one span-kernel pass scatters the staging lease
  // into every peer's objects, after the self copies on the same stream.
  if (rmode == SideMode::Fused) {
    std::vector<PackSpan> spans;
    spans.reserve(recvs.size());
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      if (recvs[i].count > 0) {
        spans.push_back(PackSpan{recvs[i].displ * rextent,
                                 static_cast<long long>(roff[i]),
                                 recvs[i].count});
      }
    }
    if (tail_stream == nullptr) {
      tail_stream = vcuda::next_pool_stream();
    }
    trace::ScopedSpan unpack(trace::Phase::Unpack, trace::OpKind::Coll,
                             rtotal, -1, tag);
    tune::ScopedObservation obs(
        tune::Axis::DeviceUnpack,
        static_cast<std::size_t>(rpk->wire_block_bytes()), rtotal);
    const vcuda::Error e =
        rpk->unpack_spans_async(recvbuf, rstage.get(), spans, tail_stream);
    vcuda::StreamSynchronize(tail_stream);
    if (e != vcuda::Error::Success) {
      obs.disarm();
    }
    return e == vcuda::Error::Success ? MPI_SUCCESS : MPI_ERR_OTHER;
  }
  if (tail_stream != nullptr) {
    vcuda::StreamSynchronize(tail_stream);
  }
  return MPI_SUCCESS;
}

} // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

int alltoallv(const void *sendbuf, const int *sendcounts, const int *sdispls,
              MPI_Datatype sendtype, void *recvbuf, const int *recvcounts,
              const int *rdispls, MPI_Datatype recvtype, MPI_Comm comm,
              const interpose::MpiTable &next) {
  if (comm == nullptr || sendtype == nullptr || recvtype == nullptr ||
      sendcounts == nullptr || sdispls == nullptr || recvcounts == nullptr ||
      rdispls == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  std::vector<Slot> sends(static_cast<std::size_t>(size));
  std::vector<Slot> recvs(static_cast<std::size_t>(size));
  for (int step = 0; step < size; ++step) {
    // Rotated peers, as in sysmpi's pairwise exchange, spread the traffic.
    const int dst = (rank + step) % size;
    sends[static_cast<std::size_t>(step)] =
        Slot{dst, sendcounts[dst], sdispls[dst]};
    const int src = (rank - step + size) % size;
    recvs[static_cast<std::size_t>(step)] =
        Slot{src, recvcounts[src], rdispls[src]};
  }
  g_counters.alltoallv.add();
  return exchange(sendbuf, sendtype, sends, recvbuf, recvtype, recvs, comm,
                  next);
}

int neighbor_alltoallv(const void *sendbuf, const int *sendcounts,
                       const int *sdispls, MPI_Datatype sendtype,
                       void *recvbuf, const int *recvcounts,
                       const int *rdispls, MPI_Datatype recvtype,
                       MPI_Comm comm, const interpose::MpiTable &next) {
  if (comm == nullptr || !comm->is_graph || sendtype == nullptr ||
      recvtype == nullptr) {
    return MPI_ERR_ARG;
  }
  const auto &dsts = comm->graph_destinations;
  const auto &srcs = comm->graph_sources;
  std::vector<Slot> sends;
  std::vector<Slot> recvs;
  sends.reserve(dsts.size());
  recvs.reserve(srcs.size());
  // Slot order is neighbor order: MPI pairs the j-th message between two
  // processes by order, which the exchange core preserves.
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    sends.push_back(Slot{dsts[i], sendcounts[i], sdispls[i]});
  }
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    recvs.push_back(Slot{srcs[i], recvcounts[i], rdispls[i]});
  }
  g_counters.neighbor.add();
  return exchange(sendbuf, sendtype, sends, recvbuf, recvtype, recvs, comm,
                  next);
}

int gatherv(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
            void *recvbuf, const int *recvcounts, const int *displs,
            MPI_Datatype recvtype, int root, MPI_Comm comm,
            const interpose::MpiTable &next) {
  if (comm == nullptr || sendtype == nullptr || root < 0 ||
      root >= comm->size()) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const std::vector<Slot> sends{Slot{root, sendcount, 0}};
  std::vector<Slot> recvs;
  if (rank == root) {
    if (recvtype == nullptr || recvcounts == nullptr || displs == nullptr) {
      return MPI_ERR_ARG;
    }
    recvs.reserve(static_cast<std::size_t>(size));
    for (int src = 0; src < size; ++src) {
      recvs.push_back(Slot{src, recvcounts[src], displs[src]});
    }
  }
  g_counters.alltoallv.add();
  return exchange(sendbuf, sendtype, sends, rank == root ? recvbuf : nullptr,
                  rank == root ? recvtype : nullptr, recvs, comm, next);
}

int allgather(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
              void *recvbuf, int recvcount, MPI_Datatype recvtype,
              MPI_Comm comm, const interpose::MpiTable &next) {
  if (comm == nullptr || sendtype == nullptr || recvtype == nullptr) {
    return MPI_ERR_ARG;
  }
  // The trailing broadcast's element count is a C int; reject overflow
  // loudly (the repo-wide idiom) before any traffic is posted, instead of
  // inheriting sysmpi's silent truncation of the same cast.
  if (static_cast<long long>(recvcount) * comm->size() >
      std::numeric_limits<int>::max()) {
    return MPI_ERR_COUNT;
  }
  // Gather to rank 0 through the exchange core, then broadcast the
  // assembled buffer — the same shape (and the same two collective-tag
  // slots) as sysmpi's allgather_impl, so engine and system-path ranks of
  // one call stay wire- and sequence-compatible.
  const int size = comm->size();
  const int rank = comm->my_rank;
  const std::vector<Slot> sends{Slot{0, sendcount, 0}};
  std::vector<Slot> recvs;
  if (rank == 0) {
    recvs.reserve(static_cast<std::size_t>(size));
    for (int src = 0; src < size; ++src) {
      recvs.push_back(Slot{src, recvcount,
                           static_cast<long long>(src) * recvcount});
    }
  }
  g_counters.alltoallv.add();
  const int rc =
      exchange(sendbuf, sendtype, sends, rank == 0 ? recvbuf : nullptr,
               rank == 0 ? recvtype : nullptr, recvs, comm, next);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const long long total = static_cast<long long>(recvcount) * size;
  return next.Bcast(recvbuf, static_cast<int>(total), recvtype, 0, comm);
}

void note_fallback() { g_counters.fallback.add(); }

} // namespace tempi::coll
