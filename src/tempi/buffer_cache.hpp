// Resource caching layer (Sec. 5).
//
// cudaMalloc/cudaMallocHost cost tens to hundreds of microseconds — far too
// slow for the critical path of every Send. TEMPI caches device and pinned
// intermediate buffers (and reuses the per-thread stream) so that repeated
// requests in iterative applications are served in "tens or hundreds of
// nanoseconds amortized" (paper Sec. 5). Buffers are bucketed by
// power-of-two capacity and kept in per-thread magazines (capped at a few
// entries per bucket) backed by a mutex-guarded global depot: steady-state
// lease/release never locks, and a thread that leases on one side of a
// producer/consumer pattern and releases on the other amortizes the depot
// lock over batched refills/flushes.
//
// A lease looks for a buffer in its exact power-of-two bucket first, through
// every source that serves it: the thread's magazine, then the thread's
// carving cursor (below), then the depot's shelf. Only when all three are
// dry does it take a larger cached buffer, magazine before depot, so a
// small lease never strands a large bucket's buffer while the next large
// lease carves fresh memory.
//
// Misses below 1 MiB are carved from segments, so a burst of same-size
// leases (the first halo exchange) does not pay one cudaMalloc per lease.
// Per (thread, space, bucket), the first miss allocates just the buffer,
// so a size seen once reserves nothing; each later miss that finds the
// thread's bump cursor empty allocates one 1 MiB segment, hands out its
// first piece and leaves the rest on the cursor, which the next misses
// take before the depot. Released pieces flow through the magazines and
// depot like any buffer; a magazine flush retires the bucket's cursor, so
// once a thread has buffers to spare it reuses them rather than touching
// fresh pieces. A segment table under the depot mutex counts each
// segment's unfreed pieces; only the free paths read it, and the last
// piece frees the segment. Requests of 1 MiB or more, and every lease
// while the cache is disabled, are single allocations.
#pragma once

#include "support/contended_mutex.hpp"
#include "vcuda/runtime.hpp"

#include <cstddef>

namespace tempi {

/// A leased buffer; returns itself to the cache on destruction.
class CachedBuffer {
public:
  CachedBuffer() = default;
  CachedBuffer(void *ptr, std::size_t capacity, vcuda::MemorySpace space)
      : ptr_(ptr), capacity_(capacity), space_(space) {}
  CachedBuffer(const CachedBuffer &) = delete;
  CachedBuffer &operator=(const CachedBuffer &) = delete;
  CachedBuffer(CachedBuffer &&other) noexcept { swap(other); }
  CachedBuffer &operator=(CachedBuffer &&other) noexcept {
    release();
    swap(other);
    return *this;
  }
  ~CachedBuffer() { release(); }

  [[nodiscard]] void *get() const { return ptr_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] explicit operator bool() const { return ptr_ != nullptr; }

private:
  void release();
  void swap(CachedBuffer &other) noexcept {
    std::swap(ptr_, other.ptr_);
    std::swap(capacity_, other.capacity_);
    std::swap(space_, other.space_);
  }
  void *ptr_ = nullptr;
  std::size_t capacity_ = 0;
  vcuda::MemorySpace space_ = vcuda::MemorySpace::Device;
};

/// Lease a buffer of at least `bytes` in `space` (Device or Pinned) from
/// the calling thread's cache (exact bucket first, then a larger cached
/// buffer; see above), allocating through vcuda on a miss.
CachedBuffer lease_buffer(vcuda::MemorySpace space, std::size_t bytes);

/// Free everything in the calling thread's magazines and cursors AND the
/// shared depot (MPI_Finalize / uninstall), and restart the calling
/// thread's first-miss rule. Other threads' magazines and cursors are
/// freed by their own thread-exit destructors; anything they flushed to
/// the depot is covered here, so the uninstall leak check still walks
/// everything. A segment is freed with its last piece, wherever that is.
void drain_buffer_cache();

/// Disable/enable the calling thread's cache (ablation benches): when
/// disabled, every lease allocates through vcuda and every release frees
/// immediately, exposing the raw cudaMalloc cost on the critical path.
void set_buffer_cache_enabled(bool enabled);
bool buffer_cache_enabled();

/// Cache statistics for tests and the caching ablation bench. `hits` and
/// `misses` are per calling thread (per rank); a miss is one vcuda
/// allocation (a buffer or a segment), and a piece carved from the
/// thread's cursor counts as a hit. `leased_now` is a
/// process-wide gauge of buffers currently out on lease: the non-blocking
/// request engine keeps intermediates leased inside in-flight ops, which
/// may be released on a different thread than leased them (MPI_Wait on
/// another thread, uninstall-time drain). It is kept as per-thread
/// (started, released) counters summed on read, so the lease/release hot
/// path pays no shared atomic RMW.
struct BufferCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t leased_now = 0;
};
BufferCacheStats buffer_cache_stats();
void reset_buffer_cache_stats();

/// Buffers currently shelved in the shared depot (all spaces, all
/// buckets). Test/bench visibility into magazine flush behavior.
std::size_t buffer_depot_size();

/// Acquire/contention counters of the depot mutex, exported as the
/// tempi.lock.depot.* gauges in TEMPI_STATS.
support::LockStats buffer_depot_lock_stats();

} // namespace tempi
