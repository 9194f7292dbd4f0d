// The collectives engine (see collectives.hpp for the architecture and
// the per-rank interoperability contract).
#include "tempi/collectives.hpp"

#include "sysmpi/world.hpp"
#include "tempi/packer.hpp"
#include "tempi/schedule.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"

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

/// Add one side's legs to `round`. A Fused side ships slices of one
/// device staging lease — each slot at the prefix sum of the packed bytes
/// before it, self slots included so the single span pass covers self
/// copies too — and adds that pass (PackSpans for the send side,
/// UnpackSpans for the receive side); any other side ships slices of the
/// user buffer.
void add_legs(sched::Schedule &s, sched::Round &round, sched::Op op,
              const void *buf, MPI_Datatype dt, const std::vector<Slot> &slots,
              bool fused) {
  std::vector<PackSpan> spans;
  std::size_t total = 0;
  for (const Slot &sl : slots) {
    if (fused && sl.count > 0) {
      spans.push_back(PackSpan{sl.displ * dt->extent,
                               static_cast<long long>(total), sl.count});
    }
    total += static_cast<std::size_t>(sl.count) *
             static_cast<std::size_t>(dt->size);
  }
  const int user = s.user(buf);
  const int id = fused ? s.lease(total, true) : user;
  long long off = 0;
  for (const Slot &sl : slots) {
    const std::size_t bytes = static_cast<std::size_t>(sl.count) *
                              static_cast<std::size_t>(dt->size);
    round.leg(op, sl.peer,
              sched::Ref{id, fused ? off : sl.displ * dt->extent}, bytes,
              sl.count);
    off += static_cast<long long>(bytes);
  }
  if (fused) {
    const int table = s.spans(find_packer_fast(dt), std::move(spans), total);
    if (op == sched::Op::Send) {
      round.spans(sched::Op::PackSpans, sched::Ref{id}, sched::Ref{user},
                  table);
    } else {
      round.spans(sched::Op::UnpackSpans, sched::Ref{user}, sched::Ref{id},
                  table);
    }
  }
}

/// The exchange core every engine collective reduces onto: the executor's
/// single-round case. Sends are posted eagerly (packed legs through the
/// request engine, typed legs through the system Isend — all buffered),
/// receives are matched lazily by the round's one Waitall, which
/// preserves per-(peer, tag) FIFO pairing for repeated neighbors. A Fused
/// send side packs every slot with one span-kernel pass (synced before
/// any leg posts); a Fused receive side scatters its staging into the
/// user buffer with one more after the wait. A repeated call replays the
/// recorded schedule (tempi/schedule.hpp).
int exchange(sched::Kind kind, int root, const void *sendbuf,
             MPI_Datatype sendtype, const std::vector<Slot> &sends,
             void *recvbuf, MPI_Datatype recvtype,
             const std::vector<Slot> &recvs, MPI_Comm comm,
             const interpose::MpiTable &next) {
  using sched::Side;
  sched::Key key;
  key.kind = kind;
  key.comm = comm;
  key.comm_id = comm->id;
  key.sendbuf = sendbuf;
  key.recvbuf = recvbuf;
  key.send = sched::type_key(sendtype);
  key.recv = sched::type_key(recvtype);
  key.send_side =
      sends.empty() ? Side::Other : sched::classify(sendbuf, sendtype);
  key.recv_side =
      recvs.empty() ? Side::Other : sched::classify(recvbuf, recvtype);
  key.root = root;
  for (const std::vector<Slot> *slots : {&sends, &recvs}) {
    key.arg(static_cast<long long>(slots->size()));
    for (const Slot &sl : *slots) {
      key.arg(sl.peer).arg(sl.count).arg(sl.displ);
    }
  }
  // One slot of the system MPI's own tag sequence: the engine uses the
  // exact tag — and consumes the exact slot — a system-path rank does for
  // the same call, so mixed engine/system ranks interoperate within one
  // collective and stay aligned for the next.
  return sched::run(key, next, 1, [&](sched::Schedule &s) {
    s.send_side = key.send_side;
    s.recv_side = key.recv_side;
    s.send_type = sendtype;
    s.recv_type = recvtype;
    s.legs = &g_counters.peer_legs;
    // One fan-out round: node-aware issue orders keep same-peer slots in
    // their relative order (the FIFO pairing the wire relies on) and walk
    // destination nodes round-robin. Self copies ride the schedule
    // stream, which the fused unpack pass then uses, so the scatter
    // observes them in order.
    sched::Round &round = s.round(0, /*fan_out=*/true);
    add_legs(s, round, sched::Op::Send, sendbuf, sendtype, sends,
             s.send_side == Side::Fused);
    add_legs(s, round, sched::Op::Recv, recvbuf, recvtype, recvs,
             s.recv_side == Side::Fused);
  });
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
  return exchange(sched::Kind::Alltoallv, -1, sendbuf, sendtype, sends,
                  recvbuf, recvtype, recvs, comm, next);
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
  return exchange(sched::Kind::Neighbor, -1, sendbuf, sendtype, sends,
                  recvbuf, recvtype, recvs, comm, next);
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
  return exchange(sched::Kind::Gatherv, root, sendbuf, sendtype, sends,
                  rank == root ? recvbuf : nullptr,
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
  // one call stay wire- and sequence-compatible. The broadcast runs even
  // after a failed gather, so its slot is consumed on every path.
  const int size = comm->size();
  const std::vector<int> counts(static_cast<std::size_t>(size), recvcount);
  std::vector<int> displs(static_cast<std::size_t>(size));
  for (int src = 0; src < size; ++src) {
    displs[static_cast<std::size_t>(src)] = src * recvcount;
  }
  const int rc = gatherv(sendbuf, sendcount, sendtype, recvbuf, counts.data(),
                         displs.data(), recvtype, 0, comm, next);
  const int brc = next.Bcast(recvbuf, size * recvcount, recvtype, 0, comm);
  return rc == MPI_SUCCESS ? brc : rc;
}

void note_fallback() { g_counters.fallback.add(); }

} // namespace tempi::coll
