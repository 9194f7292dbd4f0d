// The Sec. 5 resource caching layer: repeated leases are served from the
// free list at nanosecond (virtual) cost instead of re-running cudaMalloc.
#include "tempi/buffer_cache.hpp"

#include <gtest/gtest.h>

#include <thread>

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

} // namespace
