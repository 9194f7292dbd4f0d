#include "sysmpi/world.hpp"

#include "support/log.hpp"
#include "sysmpi/types.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <thread>
#include <utility>

namespace sysmpi {

void Mailbox::deliver(Envelope &&e) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(e));
  }
  cv_.notify_all();
}

bool Mailbox::match_at(const Envelope &e, int src, int tag,
                       std::uint64_t comm_id) const {
  if (e.comm_id != comm_id) {
    return false;
  }
  if (src != MPI_ANY_SOURCE && e.src_comm_rank != src) {
    return false;
  }
  if (tag != MPI_ANY_TAG && e.tag != tag) {
    return false;
  }
  return true;
}

Envelope Mailbox::take(int src, int tag, std::uint64_t comm_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (match_at(*it, src, tag, comm_id)) {
        Envelope e = std::move(*it);
        queue_.erase(it);
        return e;
      }
    }
    cv_.wait(lock);
  }
}

bool Mailbox::try_take(int src, int tag, std::uint64_t comm_id,
                       Envelope &out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (match_at(*it, src, tag, comm_id)) {
      out = std::move(*it);
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

Mailbox::PeekInfo Mailbox::peek(int src, int tag, std::uint64_t comm_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    for (const Envelope &e : queue_) {
      if (match_at(e, src, tag, comm_id)) {
        return PeekInfo{e.src_comm_rank, e.tag, e.payload.size()};
      }
    }
    cv_.wait(lock);
  }
}

bool Mailbox::try_peek(int src, int tag, std::uint64_t comm_id,
                       PeekInfo &out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Envelope &e : queue_) {
    if (match_at(e, src, tag, comm_id)) {
      out = PeekInfo{e.src_comm_rank, e.tag, e.payload.size()};
      return true;
    }
  }
  return false;
}

World::World(int size, int ranks_per_node)
    : size_(size), ranks_per_node_(ranks_per_node > 0 ? ranks_per_node : 1) {
  assert(size >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  const int nodes = (size + ranks_per_node_ - 1) / ranks_per_node_;
  nics_.reserve(static_cast<std::size_t>(nodes));
  eject_nics_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    nics_.push_back(std::make_unique<NicPort>());
    eject_nics_.push_back(std::make_unique<EjectPort>());
  }
}

vcuda::VirtualNs World::reserve_nic(int node, int src_rank,
                                    vcuda::VirtualNs ready,
                                    vcuda::VirtualNs occupancy) {
  NicPort &port = *nics_[static_cast<std::size_t>(node)];
  const std::lock_guard<std::mutex> lock(port.mutex);
  // Static fair share: the port round-robins across the node's rank
  // queues, so one rank's burst cannot grab consecutive wire slots. Each
  // rank's pacing depends only on its own (virtual-time) history, which
  // keeps the departure schedule independent of thread interleaving.
  vcuda::VirtualNs &next = port.rank_next[src_rank];
  const vcuda::VirtualNs start = std::max(ready, next);
  next = start + occupancy * ranks_per_node_;
  return start;
}

namespace {

/// Insert a (ready, occupancy) reservation into the ready-sorted drain
/// queue, replaying the FIFO from the insertion point. Returns the index
/// of the new entry. An out-of-order insert pushes the drain of every
/// later-ready entry; prices already handed out stay as computed, but the
/// queue state always reflects the full load for everyone priced later.
std::size_t eject_drain_insert(World::EjectPort &port, vcuda::VirtualNs ready,
                               vcuda::VirtualNs occupancy) {
  std::vector<World::EjectPort::Entry> &q = port.entries;
  const auto it = std::upper_bound(
      q.begin(), q.end(), ready,
      [](vcuda::VirtualNs r, const World::EjectPort::Entry &e) {
        return r < e.ready;
      });
  const std::size_t idx = static_cast<std::size_t>(it - q.begin());
  const vcuda::VirtualNs prior =
      idx > 0 ? q[idx - 1].finish : port.pruned_finish;
  const vcuda::VirtualNs start = std::max(ready, prior);
  q.insert(it, World::EjectPort::Entry{ready, occupancy, start + occupancy,
                                       false});
  vcuda::VirtualNs t = start + occupancy;
  for (std::size_t i = idx + 1; i < q.size(); ++i) {
    t = std::max(q[i].ready, t) + q[i].occupancy;
    q[i].finish = t;
  }
  return idx;
}

/// Price the entry at `idx` under the current drain: FIFO backlog plus an
/// incast surcharge on the message's own occupancy (never on the backlog:
/// that would amplify sender skew per hop and diverge across dependency
/// chains — see netmodel.hpp).
vcuda::VirtualNs eject_price(const World::EjectPort &port, std::size_t idx,
                             const NetParams &p) {
  const World::EjectPort::Entry &e = port.entries[idx];
  const vcuda::VirtualNs backlog = e.finish - e.occupancy - e.ready;
  if (backlog <= 0) {
    return 0;
  }
  const double extra = static_cast<double>(backlog) +
                       p.nic_incast_penalty * static_cast<double>(e.occupancy);
  return static_cast<vcuda::VirtualNs>(extra);
}

void eject_prune(World::EjectPort &port) {
  // Bound memory for long-lived worlds; everything pruned keeps gating
  // future arrivals through pruned_finish. A pruned entry that is queried
  // later falls back to insert-and-price (rare: its port has long since
  // drained past it).
  if (port.entries.size() > 4096) {
    port.pruned_finish = port.entries[2047].finish;
    port.entries.erase(port.entries.begin(), port.entries.begin() + 2048);
  }
}

} // namespace

void World::nic_eject_insert(int node, vcuda::VirtualNs ready,
                             vcuda::VirtualNs occupancy) {
  if (!net_params().model_ejection) {
    return;
  }
  EjectPort &port = *eject_nics_[static_cast<std::size_t>(node)];
  const std::lock_guard<std::mutex> lock(port.mutex);
  eject_drain_insert(port, ready, occupancy);
  eject_prune(port);
}

vcuda::VirtualNs World::reserve_nic_eject(int node, vcuda::VirtualNs ready,
                                          vcuda::VirtualNs occupancy) {
  const NetParams &p = net_params();
  if (!p.model_ejection) {
    return 0;
  }
  EjectPort &port = *eject_nics_[static_cast<std::size_t>(node)];
  const std::lock_guard<std::mutex> lock(port.mutex);
  std::vector<EjectPort::Entry> &q = port.entries;
  // Claim the earliest unclaimed reservation with this key. Equal-key
  // reservations drain serially, so their prices differ — but each query
  // takes the next one in ready order, keeping the price SET independent
  // of the order receivers run.
  auto it = std::lower_bound(
      q.begin(), q.end(), ready,
      [](const EjectPort::Entry &e, vcuda::VirtualNs r) { return e.ready < r; });
  for (; it != q.end() && it->ready == ready; ++it) {
    if (!it->claimed && it->occupancy == occupancy) {
      it->claimed = true;
      return eject_price(port, static_cast<std::size_t>(it - q.begin()), p);
    }
  }
  // No reservation (rendezvous, or pruned): insert and price on the spot.
  const std::size_t idx = eject_drain_insert(port, ready, occupancy);
  q[idx].claimed = true;
  const vcuda::VirtualNs extra = eject_price(port, idx, p);
  eject_prune(port);
  return extra;
}

BarrierState &World::barrier_for(std::uint64_t comm_id) {
  const std::lock_guard<std::mutex> lock(barriers_mutex_);
  auto &slot = barriers_[comm_id];
  if (!slot) {
    slot = std::make_unique<BarrierState>();
  }
  return *slot;
}

RankCtx &this_rank() {
  thread_local RankCtx ctx;
  return ctx;
}

RankAttachment::RankAttachment(const RankCtx &rank) : saved_(this_rank()) {
  RankCtx &ctx = this_rank();
  ctx = rank;
  ctx.thread_is_main = false;
}

RankAttachment::~RankAttachment() { this_rank() = std::move(saved_); }

MPI_Comm comm_world() {
  RankCtx &ctx = this_rank();
  if (ctx.world_comm == nullptr) {
    // Once per thread: a call that then fails on the null communicator
    // names the cause instead of passing for a rank's result.
    thread_local bool reported = false;
    if (!reported) {
      reported = true;
      support::log_error("sysmpi: MPI_COMM_WORLD on a thread attached to no "
                         "rank (run it under run_ranks, call MPI_Init, or "
                         "hold a sysmpi::RankAttachment)");
    }
    assert(false && "MPI used outside run_ranks() without MPI_Init");
  }
  return ctx.world_comm;
}

namespace {

MPI_Comm make_world_comm(const std::shared_ptr<World> &world, int rank) {
  auto *comm = new Comm();
  comm->world = world.get();
  comm->id = 0;
  comm->my_rank = rank;
  comm->world_ranks.resize(static_cast<std::size_t>(world->size()));
  for (int i = 0; i < world->size(); ++i) {
    comm->world_ranks[static_cast<std::size_t>(i)] = i;
  }
  return comm;
}

void setup_rank(const std::shared_ptr<World> &world, int rank,
                bool reset_timeline) {
  RankCtx &ctx = this_rank();
  ctx.world = world;
  ctx.world_rank = rank;
  ctx.world_comm = make_world_comm(world, rank);
  ctx.initialized = false;
  ctx.finalized = false;
  if (reset_timeline) {
    vcuda::this_thread_timeline().reset();
  }
  // Bind to a virtual GPU: local rank round-robin over the node's devices.
  const int local = rank % world->ranks_per_node();
  vcuda::SetDevice(local % vcuda::device_count());
}

void teardown_rank() {
  RankCtx &ctx = this_rank();
  delete ctx.world_comm;
  ctx.world_comm = nullptr;
  ctx.world.reset();
}

} // namespace

void run_ranks(const RunConfig &cfg, const std::function<void(int)> &body) {
  assert(cfg.ranks >= 1);
  auto world = std::make_shared<World>(cfg.ranks, cfg.ranks_per_node);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.ranks));
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (int rank = 0; rank < cfg.ranks; ++rank) {
    threads.emplace_back([&, rank] {
      setup_rank(world, rank, cfg.reset_timelines);
      try {
        body(rank);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      teardown_rank();
    });
  }
  for (std::thread &t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void ensure_self_context() {
  RankCtx &ctx = this_rank();
  if (ctx.world_comm != nullptr) {
    return;
  }
  auto world = std::make_shared<World>(1, 1);
  setup_rank(world, 0, /*reset_timeline=*/false);
  // run_ranks tears its ranks down explicitly; a self-context has no such
  // owner, so tear it down at thread exit — plain MPI_THREAD_MULTIPLE
  // helper threads each get a world here and must not leak it. The guard
  // is constructed after this_rank()'s RankCtx, so it destructs first and
  // teardown_rank() still sees a live context.
  struct SelfContextGuard {
    ~SelfContextGuard() { teardown_rank(); }
  };
  thread_local SelfContextGuard guard;
}

} // namespace sysmpi
