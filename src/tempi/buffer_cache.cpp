#include "tempi/buffer_cache.hpp"

#include "support/contended_mutex.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <mutex>
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

/// The shared depot backing every thread's magazines: same log2 shelves,
/// guarded by one counted mutex that only batch refill/flush and the
/// drain/stats walks take (steady-state lease/release cycles never touch
/// it). Exported as the tempi.lock.depot.* gauges.
struct Depot {
  support::ContendedMutex mutex;
  FreeList device;
  FreeList pinned;

  FreeList &list_for(vcuda::MemorySpace space) {
    return space == vcuda::MemorySpace::Device ? device : pinned;
  }
};

Depot &depot() {
  static Depot d;
  return d;
}

void free_raw(void *ptr, vcuda::MemorySpace space) {
  if (space == vcuda::MemorySpace::Device) {
    vcuda::Free(ptr);
  } else {
    vcuda::FreeHost(ptr);
  }
}

struct ThreadCache {
  FreeList device;
  FreeList pinned;
  BufferCacheStats stats;
  /// This thread's gauge node, resolved once so the lease/release hot path
  /// costs one TLS access total (registry-owned; outlives the thread).
  LeaseNode &lease_node = register_lease_node();

  ~ThreadCache();

  FreeList &list_for(vcuda::MemorySpace space) {
    return space == vcuda::MemorySpace::Device ? device : pinned;
  }

  /// Frees through vcuda rather than flushing to the depot: a thread
  /// exiting after uninstall's depot drain must not strand buffers on the
  /// shelves where only another drain would find them.
  void drain() {
    for (auto &ptrs : device.by_log2) {
      for (void *p : ptrs) {
        vcuda::Free(p);
      }
      ptrs.clear();
    }
    for (auto &ptrs : pinned.by_log2) {
      for (void *p : ptrs) {
        vcuda::FreeHost(p);
      }
      ptrs.clear();
    }
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
    free_raw(ptr, space);
    return;
  }
  ThreadCache &c = cache();
  count_lease_release(c.lease_node);
  if (!t_cache_enabled) {
    free_raw(ptr, space);
    return;
  }
  const auto bucket = static_cast<std::size_t>(std::countr_zero(capacity));
  if (bucket >= kBuckets) { // larger than any bucket: do not retain
    free_raw(ptr, space);
    return;
  }
  std::vector<void *> &mag = c.list_for(space).by_log2[bucket];
  mag.push_back(ptr);
  if (mag.size() > kMagazineCap) {
    // Over the cap: move half the magazine to the depot in one batch.
    Depot &d = depot();
    std::vector<void *> &shelf = d.list_for(space).by_log2[bucket];
    const std::size_t keep = kMagazineCap / 2;
    const std::lock_guard<support::ContendedMutex> lock(d.mutex);
    shelf.insert(shelf.end(), mag.begin() + static_cast<std::ptrdiff_t>(keep),
                 mag.end());
    mag.resize(keep);
  }
}

/// Full-magazine miss: batch-refill this thread's magazine from the first
/// depot shelf at or above the requested bucket. Returns one buffer (and
/// shelves up to half a magazine more locally) or nullptr when the depot
/// has nothing suitable either.
void *refill_from_depot(ThreadCache &c, vcuda::MemorySpace space,
                        std::size_t first, std::size_t *got_bucket) {
  Depot &d = depot();
  FreeList &shelves = d.list_for(space);
  const std::lock_guard<support::ContendedMutex> lock(d.mutex);
  for (std::size_t b = first; b < kBuckets; ++b) {
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
  // First fit at or above the requested capacity; steady state hits the
  // exact magazine bucket on the first probe, no lock anywhere.
  if (t_cache_enabled) {
    for (std::size_t b = first; b < kBuckets; ++b) {
      std::vector<void *> &bucket = list.by_log2[b];
      if (!bucket.empty()) {
        void *p = bucket.back();
        bucket.pop_back();
        ++c.stats.hits;
        count_lease_start(c);
        vcuda::this_thread_timeline().advance(kCacheHitNs);
        return CachedBuffer(p, std::size_t{1} << b, space);
      }
    }
    // Magazine dry: one depot acquire refills a batch, so a consumer-only
    // thread (leased here, released elsewhere) amortizes the lock too.
    std::size_t got = 0;
    if (void *p = refill_from_depot(c, space, first, &got)) {
      ++c.stats.hits;
      count_lease_start(c);
      vcuda::this_thread_timeline().advance(kCacheHitNs);
      return CachedBuffer(p, std::size_t{1} << got, space);
    }
  }
  ++c.stats.misses;
  count_lease_start(c);
  void *p = nullptr;
  if (space == vcuda::MemorySpace::Device) {
    vcuda::Malloc(&p, capacity);
  } else {
    vcuda::MallocHost(&p, capacity);
  }
  return CachedBuffer(p, capacity, space);
}

void drain_buffer_cache() {
  cache().drain();
  // The depot holds flushes from every thread (including exited ones);
  // uninstall's walk-and-free leak check covers them here. Threads still
  // holding magazines free those through their own ThreadCache destructor.
  Depot &d = depot();
  const std::lock_guard<support::ContendedMutex> lock(d.mutex);
  for (auto &ptrs : d.device.by_log2) {
    for (void *p : ptrs) {
      vcuda::Free(p);
    }
    ptrs.clear();
  }
  for (auto &ptrs : d.pinned.by_log2) {
    for (void *p : ptrs) {
      vcuda::FreeHost(p);
    }
    ptrs.clear();
  }
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
