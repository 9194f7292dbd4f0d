#include "tempi/buffer_cache.hpp"

#include "support/contended_mutex.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace tempi {

namespace {

/// Amortized cost of a cache hit: a bucket lookup, "tens or hundreds of
/// nanoseconds" (Sec. 5).
constexpr vcuda::VirtualNs kCacheHitNs = 120;

/// Capacities are powers of two, so the free lists are a flat array
/// indexed by log2(capacity): the steady-state lease is an array index and
/// a vector pop, not a tree walk.
constexpr std::size_t kBuckets = 48; // up to 2^47-byte buffers

/// Per-bucket retention cap of a thread's magazine. A release that would
/// exceed it flushes half the bucket to the depot in one batch, so a
/// producer-only thread (leases released elsewhere never refill it) pays
/// one depot acquire per kMagazineCap/2 releases, not per release.
constexpr std::size_t kMagazineCap = 8;

/// Misses in buckets below a segment are carved from kSegmentBytes
/// segments (see lease_buffer); requests of a segment or more stay single
/// allocations.
constexpr std::size_t kSegmentLog2 = 20;
constexpr std::size_t kSegmentBytes = std::size_t{1} << kSegmentLog2;

struct FreeList {
  std::array<std::vector<void *>, kBuckets> by_log2;
};

/// One thread's slice of the leased_now gauge (see below).
struct LeaseNode {
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> released{0};
  LeaseNode *next = nullptr;
};

/// Lock-free append-only registry: nodes CAS-push onto the head and are
/// never removed (a dead thread's outstanding leases are still
/// outstanding), so readers walk the list without any lock — the
/// finalize-time stats/trace snapshot no longer stalls threads that are
/// registering. The chain owner frees the nodes at static destruction so
/// the leak check stays clean.
std::atomic<LeaseNode *> g_lease_head{nullptr};

struct LeaseChainOwner {
  ~LeaseChainOwner() {
    LeaseNode *n = g_lease_head.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
      LeaseNode *dead = n;
      n = n->next;
      delete dead;
    }
  }
};

LeaseNode &register_lease_node() {
  static LeaseChainOwner owner;
  auto *node = new LeaseNode;
  node->next = g_lease_head.load(std::memory_order_relaxed);
  // Release CAS publishes node->next before the node becomes reachable.
  while (!g_lease_head.compare_exchange_weak(node->next, node,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
  return *node;
}

/// One space's carving state on one thread. Per carved bucket: the next
/// uncarved piece of the thread's newest segment and how many remain (the
/// bump cursor), which never go to the depot, so what a burst of leases
/// costs does not depend on other threads.
struct Carver {
  std::array<std::byte *, kSegmentLog2> next{};
  std::array<std::size_t, kSegmentLog2> uncarved{};
  /// Bit b: bucket b has missed since the last drain, so its next miss
  /// carves a segment. A size seen once reserves nothing.
  std::uint32_t missed = 0;
};

/// The shared depot backing every thread's magazines: same log2 shelves,
/// guarded by one counted mutex that only batch refill/flush, segment
/// registration, the free paths and the drain/stats walks take
/// (steady-state lease/release cycles never touch it). Exported as the
/// tempi.lock.depot.* gauges.
struct Depot {
  support::ContendedMutex mutex;
  FreeList device;
  FreeList pinned;
  /// The segment table: each live segment's base address and how many of
  /// its pieces have not been freed yet (out on lease, shelved, or still
  /// uncarved on their thread's cursor).
  std::map<std::uintptr_t, std::size_t> segments;

  FreeList &list_for(vcuda::MemorySpace space) {
    return space == vcuda::MemorySpace::Device ? device : pinned;
  }

  /// Hands `n` pieces of the segment holding `p` back to it (mutex held).
  /// Returns what the caller must free through vcuda once the mutex is
  /// dropped: `p` itself when it is no piece (a single allocation), the
  /// segment when these were its last pieces, else nullptr.
  void *return_pieces(void *p, std::size_t n) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    auto it = segments.upper_bound(addr);
    if (it == segments.begin()) {
      return p;
    }
    --it;
    if (addr - it->first >= kSegmentBytes) {
      return p;
    }
    it->second -= n;
    if (it->second != 0) {
      return nullptr;
    }
    void *segment = reinterpret_cast<void *>(it->first);
    segments.erase(it);
    return segment;
  }

  /// Hands the uncarved rest of `carver`'s cursor for `bucket` back to its
  /// segment (mutex held); returns what to free, as return_pieces does.
  void *retire_cursor(Carver &carver, std::size_t bucket) {
    const std::size_t n = std::exchange(carver.uncarved[bucket], 0);
    return n == 0 ? nullptr : return_pieces(carver.next[bucket], n);
  }

  /// Empties `list` into `dead` through return_pieces (mutex held).
  void take_back(FreeList &list, std::vector<void *> &dead) {
    for (auto &ptrs : list.by_log2) {
      for (void *p : ptrs) {
        if (void *f = return_pieces(p, 1)) {
          dead.push_back(f);
        }
      }
      ptrs.clear();
    }
  }
};

Depot &depot() {
  static Depot d;
  return d;
}

void vcuda_alloc(void **ptr, std::size_t bytes, vcuda::MemorySpace space) {
  if (space == vcuda::MemorySpace::Device) {
    vcuda::Malloc(ptr, bytes);
  } else {
    vcuda::MallocHost(ptr, bytes);
  }
}

void vcuda_free(void *ptr, vcuda::MemorySpace space) {
  if (space == vcuda::MemorySpace::Device) {
    vcuda::Free(ptr);
  } else {
    vcuda::FreeHost(ptr);
  }
}

void vcuda_free_all(const std::vector<void *> &ptrs,
                    vcuda::MemorySpace space) {
  for (void *p : ptrs) {
    vcuda_free(p, space);
  }
}

/// Frees a buffer the cache does not retain. A piece only decrements its
/// segment, and the segment's last piece frees it; capacities of a segment
/// or more are never pieces and skip the table.
void free_raw(void *ptr, std::size_t capacity, vcuda::MemorySpace space) {
  if (capacity < kSegmentBytes) {
    Depot &d = depot();
    const std::lock_guard<support::ContendedMutex> lock(d.mutex);
    ptr = d.return_pieces(ptr, 1);
  }
  if (ptr != nullptr) {
    vcuda_free(ptr, space);
  }
}

struct ThreadCache {
  FreeList device;
  FreeList pinned;
  Carver device_carver;
  Carver pinned_carver;
  BufferCacheStats stats;
  /// This thread's gauge node, resolved once so the lease/release hot path
  /// costs one TLS access total (registry-owned; outlives the thread).
  LeaseNode &lease_node = register_lease_node();

  ~ThreadCache();

  FreeList &list_for(vcuda::MemorySpace space) {
    return space == vcuda::MemorySpace::Device ? device : pinned;
  }
  Carver &carver_for(vcuda::MemorySpace space) {
    return space == vcuda::MemorySpace::Device ? device_carver
                                               : pinned_carver;
  }

  /// Frees through vcuda rather than flushing to the depot: a thread
  /// exiting after uninstall's depot drain must not strand buffers on the
  /// shelves where only another drain would find them. The cursors' pieces
  /// go back to their segments, and the first-miss rule starts over.
  void drain() {
    std::vector<void *> dead_device;
    std::vector<void *> dead_pinned;
    {
      Depot &d = depot();
      const std::lock_guard<support::ContendedMutex> lock(d.mutex);
      d.take_back(device, dead_device);
      d.take_back(pinned, dead_pinned);
      return_cursors(d, device_carver, dead_device);
      return_cursors(d, pinned_carver, dead_pinned);
    }
    vcuda_free_all(dead_device, vcuda::MemorySpace::Device);
    vcuda_free_all(dead_pinned, vcuda::MemorySpace::Pinned);
  }

  static void return_cursors(Depot &d, Carver &carver,
                             std::vector<void *> &dead) {
    for (std::size_t b = 0; b < kSegmentLog2; ++b) {
      if (void *f = d.retire_cursor(carver, b)) {
        dead.push_back(f);
      }
    }
    carver.missed = 0;
  }
};

ThreadCache &cache_slow() {
  thread_local ThreadCache c;
  return c;
}

/// Bootstrap pointer: ThreadCache has a non-trivial destructor, so direct
/// thread_local access pays an init-guard check per call. A plain pointer
/// is zero-initialized statically (no guard), making the steady-state
/// accessor a single TLS load — this runs twice per lease/release cycle.
thread_local ThreadCache *t_cache = nullptr;

/// Set when the thread's cache is destroyed (thread exit): the gauge node
/// it leaves behind (registry-owned, so still valid). A thread_local
/// destroyed after the cache may still release leases; those must not
/// touch the dead magazines (see return_to_cache).
thread_local LeaseNode *t_dead_node = nullptr;

ThreadCache::~ThreadCache() {
  drain();
  t_dead_node = &lease_node;
}

ThreadCache &cache() {
  ThreadCache *c = t_cache;
  if (c == nullptr) {
    c = &cache_slow();
    t_cache = c;
  }
  return *c;
}

thread_local bool t_cache_enabled = true;

/// The leased_now gauge. Leases can be released on a different thread than
/// acquired them (a non-blocking op completed elsewhere, uninstall-time
/// drain), so the gauge must be process-wide — but a shared atomic would
/// put two lock-prefixed RMWs on every lease/release cycle. Instead each
/// thread owns a (started, released) node that only it writes (plain
/// relaxed load/store, no RMW; a cross-thread release bumps the RELEASING
/// thread's counter). Readers walk the lock-free node list.
void count_lease_start(ThreadCache &c) {
  std::atomic<std::uint64_t> &n = c.lease_node.started;
  // Release store (a plain store on x86): pairs with leased_now's acquire
  // loads so a reader that sees a buffer's release also sees its start —
  // a cross-thread release happens-after the start via the op hand-off,
  // and the acquire/release chain extends that ordering to the reader.
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

void count_lease_release(LeaseNode &node) {
  std::atomic<std::uint64_t> &n = node.released;
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

std::size_t leased_now() {
  // Sum releases first with acquire loads: every start that happens-before
  // an observed release is then visible, so the gauge cannot underflow. A
  // node pushed between the two walks only adds `started` the second walk
  // might miss — never a release without its start.
  LeaseNode *head = g_lease_head.load(std::memory_order_acquire);
  std::uint64_t released = 0;
  for (LeaseNode *n = head; n != nullptr; n = n->next) {
    released += n->released.load(std::memory_order_acquire);
  }
  std::uint64_t started = 0;
  for (LeaseNode *n = head; n != nullptr; n = n->next) {
    started += n->started.load(std::memory_order_acquire);
  }
  return static_cast<std::size_t>(started - released);
}

void return_to_cache(void *ptr, std::size_t capacity,
                     vcuda::MemorySpace space) {
  if (LeaseNode *dead = t_dead_node) {
    // After the thread's cache is gone: count the release, free raw.
    count_lease_release(*dead);
    free_raw(ptr, capacity, space);
    return;
  }
  ThreadCache &c = cache();
  count_lease_release(c.lease_node);
  if (!t_cache_enabled) {
    free_raw(ptr, capacity, space);
    return;
  }
  const auto bucket = static_cast<std::size_t>(std::countr_zero(capacity));
  if (bucket >= kBuckets) { // larger than any bucket: do not retain
    free_raw(ptr, capacity, space);
    return;
  }
  std::vector<void *> &mag = c.list_for(space).by_log2[bucket];
  mag.push_back(ptr);
  if (mag.size() > kMagazineCap) {
    // Over the cap: move half the magazine to the depot in one batch. The
    // thread now has more free buffers of this bucket than it keeps, so
    // its cursor retires too: later misses reuse the depot's buffers
    // instead of faulting in fresh pieces, which grew halo_p2p's resident
    // set with every steady-state op.
    Depot &d = depot();
    std::vector<void *> &shelf = d.list_for(space).by_log2[bucket];
    const std::size_t keep = kMagazineCap / 2;
    void *retired = nullptr;
    {
      const std::lock_guard<support::ContendedMutex> lock(d.mutex);
      shelf.insert(shelf.end(),
                   mag.begin() + static_cast<std::ptrdiff_t>(keep), mag.end());
      if (bucket < kSegmentLog2) {
        retired = d.retire_cursor(c.carver_for(space), bucket);
      }
    }
    mag.resize(keep);
    if (retired != nullptr) {
      vcuda_free(retired, space);
    }
  }
}

/// Magazine miss: batch-refill this thread's magazine from the first depot
/// shelf in buckets [first, last). Returns one buffer (and shelves up to
/// half a magazine more locally) or nullptr when the depot has nothing
/// suitable either.
void *refill_from_depot(ThreadCache &c, vcuda::MemorySpace space,
                        std::size_t first, std::size_t last,
                        std::size_t *got_bucket) {
  Depot &d = depot();
  FreeList &shelves = d.list_for(space);
  const std::lock_guard<support::ContendedMutex> lock(d.mutex);
  for (std::size_t b = first; b < last; ++b) {
    std::vector<void *> &shelf = shelves.by_log2[b];
    if (shelf.empty()) {
      continue;
    }
    void *p = shelf.back();
    shelf.pop_back();
    std::vector<void *> &mag = c.list_for(space).by_log2[b];
    const std::size_t grab =
        std::min(shelf.size(), kMagazineCap / 2 - std::size_t{1});
    mag.insert(mag.end(), shelf.end() - static_cast<std::ptrdiff_t>(grab),
               shelf.end());
    shelf.resize(shelf.size() - grab);
    *got_bucket = b;
    return p;
  }
  return nullptr;
}

/// A bucket's second and later misses: allocate one segment, register it,
/// hand out its first piece and keep the rest on the thread's cursor.
void *carve_segment(Carver &carver, vcuda::MemorySpace space,
                    std::size_t bucket) {
  void *segment = nullptr;
  vcuda_alloc(&segment, kSegmentBytes, space);
  if (segment == nullptr) {
    return nullptr;
  }
  const std::size_t pieces = kSegmentBytes >> bucket;
  {
    Depot &d = depot();
    const std::lock_guard<support::ContendedMutex> lock(d.mutex);
    d.segments.emplace(reinterpret_cast<std::uintptr_t>(segment), pieces);
  }
  carver.next[bucket] =
      static_cast<std::byte *>(segment) + (std::size_t{1} << bucket);
  carver.uncarved[bucket] = pieces - 1;
  return segment;
}

} // namespace

void CachedBuffer::release() {
  if (ptr_ != nullptr) {
    return_to_cache(ptr_, capacity_, space_);
    ptr_ = nullptr;
    capacity_ = 0;
  }
}

CachedBuffer lease_buffer(vcuda::MemorySpace space, std::size_t bytes) {
  ThreadCache &c = cache();
  const std::size_t capacity = std::bit_ceil(bytes == 0 ? 1 : bytes);
  FreeList &list = c.list_for(space);
  const auto first = static_cast<std::size_t>(std::countr_zero(capacity));
  if (t_cache_enabled && first < kBuckets) {
    const auto hit = [&](void *p, std::size_t bucket) {
      ++c.stats.hits;
      count_lease_start(c);
      vcuda::this_thread_timeline().advance(kCacheHitNs);
      return CachedBuffer(p, std::size_t{1} << bucket, space);
    };
    const auto pop_magazine = [&](std::size_t b) -> void * {
      std::vector<void *> &mag = list.by_log2[b];
      if (mag.empty()) {
        return nullptr;
      }
      void *p = mag.back();
      mag.pop_back();
      return p;
    };
    // The exact bucket first, through every source that serves it: the
    // magazine (steady state hits here on the first probe, no lock), ...
    if (void *p = pop_magazine(first)) {
      return hit(p, first);
    }
    // ... the next uncarved piece of this thread's segment, if the bucket
    // has one, a bump and no lock, ...
    Carver &carver = c.carver_for(space);
    if (first < kSegmentLog2 && carver.uncarved[first] != 0) {
      void *p = carver.next[first];
      carver.next[first] += capacity;
      --carver.uncarved[first];
      return hit(p, first);
    }
    // ... and the depot's shelf, whose one acquire refills a batch, so a
    // consumer-only thread (leased here, released elsewhere) amortizes
    // the lock too.
    std::size_t got = 0;
    if (void *p = refill_from_depot(c, space, first, first + 1, &got)) {
      return hit(p, got);
    }
    // Only then a larger cached buffer, magazine before depot (see the
    // header: a small lease must not strand a large bucket's buffer).
    for (std::size_t b = first + 1; b < kBuckets; ++b) {
      if (void *p = pop_magazine(b)) {
        return hit(p, b);
      }
    }
    if (void *p = refill_from_depot(c, space, first + 1, kBuckets, &got)) {
      return hit(p, got);
    }
  }
  ++c.stats.misses;
  count_lease_start(c);
  // A bucket's first miss allocates just the buffer; from its second on,
  // a burst of same-size leases costs one allocation per segment.
  if (t_cache_enabled && first < kSegmentLog2) {
    Carver &carver = c.carver_for(space);
    const std::uint32_t bit = std::uint32_t{1} << first;
    if ((carver.missed & bit) != 0) {
      return CachedBuffer(carve_segment(carver, space, first), capacity,
                          space);
    }
    carver.missed |= bit;
  }
  void *p = nullptr;
  vcuda_alloc(&p, capacity, space);
  return CachedBuffer(p, capacity, space);
}

void drain_buffer_cache() {
  cache().drain();
  // The depot holds flushes from every thread (including exited ones);
  // uninstall's walk-and-free leak check covers them here. Threads still
  // holding magazines free those through their own ThreadCache destructor,
  // and a segment lives until its last piece is freed, wherever that is.
  // vcuda frees run after the depot mutex is dropped.
  std::vector<void *> dead_device;
  std::vector<void *> dead_pinned;
  {
    Depot &d = depot();
    const std::lock_guard<support::ContendedMutex> lock(d.mutex);
    d.take_back(d.device, dead_device);
    d.take_back(d.pinned, dead_pinned);
  }
  vcuda_free_all(dead_device, vcuda::MemorySpace::Device);
  vcuda_free_all(dead_pinned, vcuda::MemorySpace::Pinned);
}

void set_buffer_cache_enabled(bool enabled) { t_cache_enabled = enabled; }

bool buffer_cache_enabled() { return t_cache_enabled; }

BufferCacheStats buffer_cache_stats() {
  BufferCacheStats s = cache().stats;
  s.leased_now = leased_now();
  return s;
}

void reset_buffer_cache_stats() {
  // Counters reset; the lease gauge tracks live buffers, so it survives.
  cache().stats = BufferCacheStats{};
}

std::size_t buffer_depot_size() {
  Depot &d = depot();
  const std::lock_guard<support::ContendedMutex> lock(d.mutex);
  std::size_t n = 0;
  for (const auto &ptrs : d.device.by_log2) {
    n += ptrs.size();
  }
  for (const auto &ptrs : d.pinned.by_log2) {
    n += ptrs.size();
  }
  return n;
}

support::LockStats buffer_depot_lock_stats() { return depot().mutex.stats(); }

} // namespace tempi
