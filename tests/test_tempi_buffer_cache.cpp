// The Sec. 5 resource caching layer: repeated leases are served from the
// free list at nanosecond (virtual) cost instead of re-running cudaMalloc,
// and a burst of same-size misses is carved from 1 MiB segments.
#include "tempi/buffer_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace {

TEST(BufferCache, FirstLeaseIsAMiss) {
  tempi::drain_buffer_cache();
  tempi::reset_buffer_cache_stats();
  {
    const auto buf = tempi::lease_buffer(vcuda::MemorySpace::Device, 4096);
    ASSERT_TRUE(buf);
    EXPECT_GE(buf.capacity(), 4096u);
  }
  EXPECT_EQ(tempi::buffer_cache_stats().misses, 1u);
  EXPECT_EQ(tempi::buffer_cache_stats().hits, 0u);
}

TEST(BufferCache, ReleasedBufferIsReused) {
  tempi::drain_buffer_cache();
  tempi::reset_buffer_cache_stats();
  void *first = nullptr;
  {
    const auto buf = tempi::lease_buffer(vcuda::MemorySpace::Device, 1000);
    first = buf.get();
  }
  const auto again = tempi::lease_buffer(vcuda::MemorySpace::Device, 1000);
  EXPECT_EQ(again.get(), first);
  EXPECT_EQ(tempi::buffer_cache_stats().hits, 1u);
}

TEST(BufferCache, HitIsNanosecondScale) {
  tempi::drain_buffer_cache();
  { const auto warm = tempi::lease_buffer(vcuda::MemorySpace::Device, 1 << 16); }
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  const auto buf = tempi::lease_buffer(vcuda::MemorySpace::Device, 1 << 16);
  const vcuda::VirtualNs hit_cost = vcuda::virtual_now() - t0;
  // "tens or hundreds of nanoseconds amortized time, instead of
  // microseconds to milliseconds" (Sec. 5).
  EXPECT_LT(hit_cost, 1000u);
}

TEST(BufferCache, MissPaysFullMallocCost) {
  tempi::drain_buffer_cache();
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  const auto buf = tempi::lease_buffer(vcuda::MemorySpace::Device, 1 << 16);
  EXPECT_GE(vcuda::virtual_now() - t0, vcuda::cost_params().malloc_ns);
}

TEST(BufferCache, LargerRequestGetsLargerBuffer) {
  tempi::drain_buffer_cache();
  { const auto small = tempi::lease_buffer(vcuda::MemorySpace::Device, 256); }
  // A bigger request must not reuse the too-small cached buffer.
  const auto big = tempi::lease_buffer(vcuda::MemorySpace::Device, 1 << 20);
  EXPECT_GE(big.capacity(), 1u << 20);
}

TEST(BufferCache, SmallerRequestReusesBiggerBuffer) {
  tempi::drain_buffer_cache();
  void *big_ptr = nullptr;
  {
    const auto big = tempi::lease_buffer(vcuda::MemorySpace::Device, 1 << 20);
    big_ptr = big.get();
  }
  const auto small = tempi::lease_buffer(vcuda::MemorySpace::Device, 512);
  EXPECT_EQ(small.get(), big_ptr); // first-fit at or above request
}

TEST(BufferCache, SmallLeaseTakesItsOwnBucketBeforeALargerBuffer) {
  // A lease looks through its exact bucket first (the magazine, then the
  // thread's carving cursor, then the depot's shelf) and takes a larger
  // cached buffer only when none of them has one. A small lease that took
  // a face-sized buffer ahead of its own bucket made the next face-sized
  // lease carve fresh memory.
  constexpr std::size_t kSmall = 2048;
  constexpr std::size_t kBig = 128 * 1024;
  for (const vcuda::MemorySpace space :
       {vcuda::MemorySpace::Device, vcuda::MemorySpace::Pinned}) {
    tempi::drain_buffer_cache();
    std::vector<tempi::CachedBuffer> small;
    // The bucket's second miss carves a segment and keeps its rest on the
    // thread's cursor.
    small.push_back(tempi::lease_buffer(space, kSmall));
    small.push_back(tempi::lease_buffer(space, kSmall));
    void *big_ptr = nullptr;
    {
      const auto big = tempi::lease_buffer(space, kBig);
      big_ptr = big.get();
    } // now in the magazine, one bucket up
    vcuda::Counters before = vcuda::counters();
    small.push_back(tempi::lease_buffer(space, kSmall));
    EXPECT_NE(small.back().get(), big_ptr) << "cursor";
    EXPECT_EQ(small.back().capacity(), kSmall);
    EXPECT_EQ(vcuda::counters().mallocs, before.mallocs);
    // Twelve releases overflow the magazine once: five go to the depot
    // and the cursor retires, seven stay. Take those seven back, and the
    // next lease's bucket has only the depot's shelf.
    for (int i = 0; i < 9; ++i) {
      small.push_back(tempi::lease_buffer(space, kSmall));
    }
    small.clear();
    ASSERT_EQ(tempi::buffer_depot_size(), 5u);
    for (int i = 0; i < 7; ++i) {
      small.push_back(tempi::lease_buffer(space, kSmall));
      EXPECT_NE(small.back().get(), big_ptr);
    }
    before = vcuda::counters();
    small.push_back(tempi::lease_buffer(space, kSmall));
    EXPECT_NE(small.back().get(), big_ptr) << "depot";
    EXPECT_EQ(small.back().capacity(), kSmall);
    EXPECT_EQ(vcuda::counters().mallocs, before.mallocs);
    EXPECT_LT(tempi::buffer_depot_size(), 5u);
    // The larger buffer is still cached for its own size.
    const auto big = tempi::lease_buffer(space, kBig);
    EXPECT_EQ(big.get(), big_ptr);
  }
  tempi::drain_buffer_cache();
}

TEST(BufferCache, SpacesAreSeparate) {
  tempi::drain_buffer_cache();
  void *dev_ptr = nullptr;
  {
    const auto dev = tempi::lease_buffer(vcuda::MemorySpace::Device, 2048);
    dev_ptr = dev.get();
  }
  const auto pinned = tempi::lease_buffer(vcuda::MemorySpace::Pinned, 2048);
  EXPECT_NE(pinned.get(), dev_ptr);
  EXPECT_EQ(vcuda::memory_registry().space_of(pinned.get()),
            vcuda::MemorySpace::Pinned);
}

TEST(BufferCache, MoveTransfersOwnership) {
  tempi::drain_buffer_cache();
  auto a = tempi::lease_buffer(vcuda::MemorySpace::Device, 128);
  void *p = a.get();
  tempi::CachedBuffer b = std::move(a);
  EXPECT_EQ(b.get(), p);
  EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): post-move state check
}

TEST(BufferCache, DrainReleasesToVcuda) {
  tempi::drain_buffer_cache();
  const std::uint64_t frees_before = vcuda::counters().frees;
  { const auto buf = tempi::lease_buffer(vcuda::MemorySpace::Device, 8192); }
  tempi::drain_buffer_cache();
  EXPECT_GT(vcuda::counters().frees, frees_before);
}

/// A thread_local lease holder (like a per-thread replay table) that a
/// thread constructs before its buffer cache, so it is destroyed after it.
struct LateHolder {
  tempi::CachedBuffer buf;
};

TEST(BufferCache, LeaseReleasedAfterCacheTeardownIsFreedRaw) {
  const std::size_t leased0 = tempi::buffer_cache_stats().leased_now;
  const vcuda::Counters before = vcuda::counters();
  std::thread([leased0] {
    thread_local LateHolder holder; // constructed first, destroyed last
    holder.buf = tempi::lease_buffer(vcuda::MemorySpace::Device, 4096);
    // A second lease of the same bucket, returned, leaves the magazine
    // with storage the dead cache must not be written through.
    { const auto warm = tempi::lease_buffer(vcuda::MemorySpace::Device, 4096); }
    EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0 + 1);
  }).join();
  const vcuda::Counters after = vcuda::counters();
  EXPECT_EQ(after.mallocs - before.mallocs, 2u);
  EXPECT_EQ(after.frees - before.frees, 2u); // the late release freed raw
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0);
}

constexpr std::size_t kSegment = std::size_t{1} << 20;

/// The vcuda allocation `p` lies in.
std::uintptr_t allocation_of(const void *p) {
  const auto a = vcuda::memory_registry().find(p);
  EXPECT_TRUE(a.has_value());
  return a ? a->base : 0;
}

/// Lease `n` buffers of one bucket at once from a drained cache and check
/// the allocations they cost and the pieces they got; then release them
/// and check that a drain frees everything.
void check_burst(vcuda::MemorySpace space, std::size_t capacity,
                 std::size_t n) {
  SCOPED_TRACE(::testing::Message()
               << "capacity " << capacity << ", " << n << " leases");
  const std::size_t pieces = kSegment / capacity;
  tempi::drain_buffer_cache();
  const std::size_t leased0 = tempi::buffer_cache_stats().leased_now;
  const vcuda::Counters before = vcuda::counters();
  {
    std::vector<tempi::CachedBuffer> held;
    for (std::size_t i = 0; i < n; ++i) {
      held.push_back(tempi::lease_buffer(space, capacity - 100));
    }
    EXPECT_EQ(vcuda::counters().mallocs - before.mallocs,
              n <= pieces + 1 ? 2u : 3u);
    std::set<void *> distinct;
    for (const tempi::CachedBuffer &b : held) {
      EXPECT_EQ(b.capacity(), capacity);
      EXPECT_EQ(vcuda::memory_registry().space_of(b.get()), space);
      distinct.insert(b.get());
    }
    EXPECT_EQ(distinct.size(), n);
    // Leases 2..pieces+1 are the first segment's pieces, in order.
    const auto *first = static_cast<const std::byte *>(held[1].get());
    EXPECT_EQ(allocation_of(first), reinterpret_cast<std::uintptr_t>(first));
    for (std::size_t i = 2; i < std::min(n, pieces + 1); ++i) {
      EXPECT_EQ(static_cast<const std::byte *>(held[i].get()) - first,
                static_cast<std::ptrdiff_t>((i - 1) * capacity));
    }
  }
  // Released pieces sit in the magazine (and depot); the drain hands them
  // and the uncarved rest back, freeing every segment.
  tempi::drain_buffer_cache();
  const vcuda::Counters after = vcuda::counters();
  EXPECT_EQ(after.mallocs - before.mallocs, after.frees - before.frees);
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0);
}

TEST(BufferCache, SameBucketBurstCostsTwoAllocations) {
  // A bucket's first miss allocates one buffer; its second allocates one
  // segment whose pieces serve every later miss, so any burst of 2 to
  // pieces + 1 concurrent leases costs exactly two allocations, and one
  // lease more a third.
  for (const vcuda::MemorySpace space :
       {vcuda::MemorySpace::Device, vcuda::MemorySpace::Pinned}) {
    for (const std::size_t capacity : {std::size_t{1} << 11,
                                       std::size_t{1} << 17}) {
      const std::size_t pieces = kSegment / capacity;
      for (const std::size_t n : {std::size_t{2}, pieces / 2 + 1, pieces + 1,
                                  pieces + 2}) {
        check_burst(space, capacity, n);
      }
    }
  }
}

TEST(BufferCache, ReleasedBurstIsReusedBeforeFreshPieces) {
  // A burst released past the magazine cap flushes to the depot and
  // retires the cursor, so the next burst reuses the buffers the first one
  // touched instead of carving the segment's untouched rest.
  tempi::drain_buffer_cache();
  constexpr std::size_t kBurst = 20; // above the magazine cap, below a segment
  std::set<void *> first;
  {
    std::vector<tempi::CachedBuffer> held;
    for (std::size_t i = 0; i < kBurst; ++i) {
      held.push_back(tempi::lease_buffer(vcuda::MemorySpace::Pinned, 16384));
      first.insert(held.back().get());
    }
  }
  const vcuda::Counters before = vcuda::counters();
  std::vector<tempi::CachedBuffer> again;
  for (std::size_t i = 0; i < kBurst; ++i) {
    again.push_back(tempi::lease_buffer(vcuda::MemorySpace::Pinned, 16384));
    EXPECT_EQ(first.count(again.back().get()), 1u) << "lease " << i;
  }
  EXPECT_EQ(vcuda::counters().mallocs, before.mallocs);
  again.clear();
  tempi::drain_buffer_cache();
}

TEST(BufferCache, SegmentPieceReleasedAfterTeardownFreesItOnce) {
  tempi::drain_buffer_cache(); // an empty depot: the thread's leases miss
  const std::size_t leased0 = tempi::buffer_cache_stats().leased_now;
  const vcuda::Counters before = vcuda::counters();
  std::thread([leased0] {
    thread_local LateHolder holder; // constructed first, destroyed last
    const tempi::CachedBuffer single =
        tempi::lease_buffer(vcuda::MemorySpace::Pinned, 4096);
    holder.buf = tempi::lease_buffer(vcuda::MemorySpace::Pinned, 4096);
    // A third lease, returned: the cache's teardown frees the single
    // buffer and hands this piece and the uncarved rest back, but the
    // held piece keeps the segment alive.
    {
      const auto warm = tempi::lease_buffer(vcuda::MemorySpace::Pinned, 4096);
    }
    EXPECT_EQ(allocation_of(holder.buf.get()),
              reinterpret_cast<std::uintptr_t>(holder.buf.get()));
    EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0 + 2);
  }).join();
  const vcuda::Counters after = vcuda::counters();
  EXPECT_EQ(after.mallocs - before.mallocs, 2u); // the buffer, one segment
  EXPECT_EQ(after.frees - before.frees, 2u); // the late release freed it
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0);
}

TEST(BufferCache, LargeAndUncachedLeasesAreSingleAllocations) {
  tempi::drain_buffer_cache();
  // A segment or more: every miss is its own allocation.
  vcuda::Counters before = vcuda::counters();
  {
    std::vector<tempi::CachedBuffer> held;
    for (int i = 0; i < 3; ++i) {
      held.push_back(
          tempi::lease_buffer(vcuda::MemorySpace::Device, kSegment));
      EXPECT_EQ(allocation_of(held.back().get()),
                reinterpret_cast<std::uintptr_t>(held.back().get()));
    }
    EXPECT_EQ(vcuda::counters().mallocs - before.mallocs, 3u);
  }
  tempi::drain_buffer_cache();
  EXPECT_EQ(vcuda::counters().frees - before.frees, 3u);

  // Cache disabled: one allocation per lease, freed at release.
  tempi::set_buffer_cache_enabled(false);
  before = vcuda::counters();
  {
    std::vector<tempi::CachedBuffer> held;
    for (int i = 0; i < 3; ++i) {
      held.push_back(tempi::lease_buffer(vcuda::MemorySpace::Pinned, 4096));
      EXPECT_EQ(allocation_of(held.back().get()),
                reinterpret_cast<std::uintptr_t>(held.back().get()));
    }
    EXPECT_EQ(vcuda::counters().mallocs - before.mallocs, 3u);
  }
  EXPECT_EQ(vcuda::counters().frees - before.frees, 3u);
  tempi::set_buffer_cache_enabled(true);
}

} // namespace
