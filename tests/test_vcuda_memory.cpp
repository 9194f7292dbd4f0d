#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace {

TEST(Registry, MallocRegistersDeviceSpace) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 1024), vcuda::Error::Success);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(vcuda::memory_registry().space_of(p), vcuda::MemorySpace::Device);
  EXPECT_EQ(vcuda::Free(p), vcuda::Error::Success);
  EXPECT_EQ(vcuda::memory_registry().space_of(p),
            vcuda::MemorySpace::Pageable);
}

TEST(Registry, MallocHostRegistersPinnedSpace) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::MallocHost(&p, 64), vcuda::Error::Success);
  EXPECT_EQ(vcuda::memory_registry().space_of(p), vcuda::MemorySpace::Pinned);
  EXPECT_EQ(vcuda::FreeHost(p), vcuda::Error::Success);
}

TEST(Registry, InteriorPointersResolve) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 4096), vcuda::Error::Success);
  auto *interior = static_cast<std::byte *>(p) + 2048;
  EXPECT_EQ(vcuda::memory_registry().space_of(interior),
            vcuda::MemorySpace::Device);
  auto *one_past = static_cast<std::byte *>(p) + 4096;
  EXPECT_EQ(vcuda::memory_registry().space_of(one_past),
            vcuda::MemorySpace::Pageable);
  vcuda::Free(p);
}

TEST(Registry, StackPointerIsPageable) {
  int local = 0;
  EXPECT_EQ(vcuda::memory_registry().space_of(&local),
            vcuda::MemorySpace::Pageable);
}

TEST(Registry, LookupsSeeEveryMutation) {
  // Repeated lookups are answered from a per-thread memo; each insert or
  // erase must still be visible to the very next lookup.
  vcuda::MemoryRegistry r;
  constexpr std::uintptr_t kBase = 0x10000;
  const auto *p = reinterpret_cast<const void *>(kBase + 8);
  EXPECT_EQ(r.space_of(p), vcuda::MemorySpace::Pageable);
  r.insert(vcuda::Allocation{kBase, 64, vcuda::MemorySpace::Device, 0});
  EXPECT_EQ(r.space_of(p), vcuda::MemorySpace::Device);
  EXPECT_EQ(r.space_of(p), vcuda::MemorySpace::Device);
  r.insert(vcuda::Allocation{kBase, 64, vcuda::MemorySpace::Pinned, -1});
  EXPECT_EQ(r.space_of(p), vcuda::MemorySpace::Pinned);
  ASSERT_TRUE(r.erase(kBase).has_value());
  EXPECT_EQ(r.space_of(p), vcuda::MemorySpace::Pageable);
}

TEST(Registry, MemoNeverCrossesRegistries) {
  vcuda::MemoryRegistry a;
  vcuda::MemoryRegistry b;
  constexpr std::uintptr_t kBase = 0x20000;
  const auto *p = reinterpret_cast<const void *>(kBase);
  a.insert(vcuda::Allocation{kBase, 32, vcuda::MemorySpace::Device, 0});
  EXPECT_EQ(a.space_of(p), vcuda::MemorySpace::Device);
  EXPECT_FALSE(b.find(p).has_value());
  EXPECT_EQ(a.space_of(p), vcuda::MemorySpace::Device);
}

TEST(Registry, FreeOnOneThreadInvalidatesAnotherThreadsLookups) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 256), vcuda::Error::Success);
  std::atomic<int> step{0};
  vcuda::MemorySpace before = vcuda::MemorySpace::Pageable;
  vcuda::MemorySpace after = vcuda::MemorySpace::Device;
  std::thread reader([&] {
    before = vcuda::memory_registry().space_of(p);
    before = vcuda::memory_registry().space_of(p); // now memoized
    step.store(1, std::memory_order_release);
    while (step.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    after = vcuda::memory_registry().space_of(p);
  });
  while (step.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(vcuda::Free(p), vcuda::Error::Success);
  step.store(2, std::memory_order_release);
  reader.join();
  EXPECT_EQ(before, vcuda::MemorySpace::Device);
  EXPECT_EQ(after, vcuda::MemorySpace::Pageable);
}

TEST(Registry, PointerGetAttributesReportsDevice) {
  void *p = nullptr;
  vcuda::SetDevice(2);
  ASSERT_EQ(vcuda::Malloc(&p, 16), vcuda::Error::Success);
  vcuda::MemorySpace space{};
  int device = -1;
  ASSERT_EQ(vcuda::PointerGetAttributes(&space, &device, p),
            vcuda::Error::Success);
  EXPECT_EQ(space, vcuda::MemorySpace::Device);
  EXPECT_EQ(device, 2);
  vcuda::Free(p);
  vcuda::SetDevice(0);
}

TEST(Registry, PointerQueryReportsTheRangeAndCountsOnce) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 1000), vcuda::Error::Success);
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  const std::uint64_t queries = vcuda::counters().pointer_queries;
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  vcuda::Allocation range;
  ASSERT_EQ(vcuda::PointerGetAttributes(&range, static_cast<std::byte *>(p) +
                                                    999),
            vcuda::Error::Success);
  EXPECT_EQ(range.space, vcuda::MemorySpace::Device);
  EXPECT_EQ(range.base, base);
  EXPECT_EQ(range.size, 1000u);
  EXPECT_EQ(vcuda::virtual_now() - t0, vcuda::cost_params().pointer_query_ns);
  // Unregistered memory reports no range; the three-argument form is the
  // same query.
  int local = 0;
  ASSERT_EQ(vcuda::PointerGetAttributes(&range, &local), vcuda::Error::Success);
  EXPECT_EQ(range.space, vcuda::MemorySpace::Pageable);
  EXPECT_EQ(range.size, 0u);
  vcuda::MemorySpace space{};
  ASSERT_EQ(vcuda::PointerGetAttributes(&space, nullptr, p),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::counters().pointer_queries - queries, 3u);
  EXPECT_EQ(vcuda::PointerGetAttributes(nullptr, p),
            vcuda::Error::InvalidValue);
  vcuda::Free(p);
}

// The allocation stamp moves only on events that can change a remembered
// range. A memo filled on another thread, the way a residency cache above
// vcuda fills it (stamp, memo lookup, pointer query on a miss), keeps
// answering with no pointer query across disjoint Malloc, MallocHost and
// HostRegister calls, and is emptied by Free, FreeHost, HostUnregister and
// by an insert that replaces or overlaps a registered range.
TEST(Registry, StampMovesOnlyWhenARegisteredRangeCanChange) {
  const vcuda::MemoryRegistry &registry = vcuda::memory_registry();
  EXPECT_NE(registry.generation(), 0u);
  void *watched = nullptr;
  ASSERT_EQ(vcuda::Malloc(&watched, 64), vcuda::Error::Success);
  vcuda::AllocationMemo<4> memo;
  // Look `watched` up on a thread of its own; true when the memo answered.
  const auto memo_hit = [&] {
    bool hit = false;
    std::thread([&] {
      const std::uint64_t stamp = registry.generation();
      if (memo.find(stamp, reinterpret_cast<std::uintptr_t>(watched))) {
        hit = true;
        return;
      }
      vcuda::Allocation range;
      ASSERT_EQ(vcuda::PointerGetAttributes(&range, watched),
                vcuda::Error::Success);
      ASSERT_EQ(range.space, vcuda::MemorySpace::Device);
      memo.remember(range);
    }).join();
    return hit;
  };
  EXPECT_FALSE(memo_hit()); // the first lookup fills the memo
  const std::uint64_t queries = vcuda::counters().pointer_queries;
  EXPECT_TRUE(memo_hit());

  void *dev = nullptr;
  void *pinned = nullptr;
  std::vector<std::byte> host(256);
  ASSERT_EQ(vcuda::Malloc(&dev, 64), vcuda::Error::Success);
  EXPECT_TRUE(memo_hit()) << "Malloc";
  ASSERT_EQ(vcuda::MallocHost(&pinned, 64), vcuda::Error::Success);
  EXPECT_TRUE(memo_hit()) << "MallocHost";
  ASSERT_EQ(vcuda::HostRegister(host.data(), host.size()),
            vcuda::Error::Success);
  EXPECT_TRUE(memo_hit()) << "HostRegister";
  // Failed calls are no allocation events either.
  EXPECT_EQ(vcuda::HostUnregister(host.data() + 1),
            vcuda::Error::InvalidValue);
  EXPECT_EQ(vcuda::HostRegister(host.data() + 8, 8),
            vcuda::Error::InvalidValue);
  EXPECT_TRUE(memo_hit()) << "failed calls";
  EXPECT_EQ(vcuda::counters().pointer_queries, queries);

  const auto expect_emptied = [&](const char *event) {
    EXPECT_FALSE(memo_hit()) << event; // refilled by this lookup's query
    EXPECT_TRUE(memo_hit()) << event;
  };
  ASSERT_EQ(vcuda::HostUnregister(host.data()), vcuda::Error::Success);
  expect_emptied("HostUnregister");
  ASSERT_EQ(vcuda::FreeHost(pinned), vcuda::Error::Success);
  expect_emptied("FreeHost");
  ASSERT_EQ(vcuda::Free(dev), vcuda::Error::Success);
  expect_emptied("Free");
  EXPECT_EQ(vcuda::counters().pointer_queries, queries + 3);

  // Overlapping inserts: on a registry of its own, so no real allocation
  // is replaced. Each one moves the stamp; a disjoint one does not.
  vcuda::MemoryRegistry local;
  local.insert({0x1000, 0x100, vcuda::MemorySpace::Device, 0});
  std::uint64_t last = local.generation();
  const auto stamp_moved = [&] {
    const std::uint64_t before = std::exchange(last, local.generation());
    return before != last;
  };
  local.insert({0x2000, 0x100, vcuda::MemorySpace::Pinned, -1});
  EXPECT_FALSE(stamp_moved()) << "disjoint";
  local.insert({0x1100, 0x100, vcuda::MemorySpace::Pinned, -1});
  EXPECT_FALSE(stamp_moved()) << "adjacent";
  local.insert({0x1000, 0x80, vcuda::MemorySpace::Pinned, -1});
  EXPECT_TRUE(stamp_moved()) << "same base";
  local.insert({0x1040, 0x10, vcuda::MemorySpace::Pinned, -1});
  EXPECT_TRUE(stamp_moved()) << "inside a range";
  local.insert({0x1f80, 0x100, vcuda::MemorySpace::Pinned, -1});
  EXPECT_TRUE(stamp_moved()) << "over the next range's base";
  ASSERT_TRUE(local.erase(0x1f80));
  EXPECT_TRUE(stamp_moved()) << "erase";
  EXPECT_EQ(vcuda::Free(watched), vcuda::Error::Success);
}

TEST(Registry, FreeWrongSpaceFails) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::MallocHost(&p, 16), vcuda::Error::Success);
  EXPECT_EQ(vcuda::Free(p), vcuda::Error::InvalidValue); // wrong deallocator
  EXPECT_EQ(vcuda::FreeHost(p), vcuda::Error::Success);
}

TEST(Registry, NullFreeIsNoop) {
  EXPECT_EQ(vcuda::Free(nullptr), vcuda::Error::Success);
  EXPECT_EQ(vcuda::FreeHost(nullptr), vcuda::Error::Success);
}

TEST(Registry, ZeroByteMalloc) {
  void *p = reinterpret_cast<void *>(0x1);
  EXPECT_EQ(vcuda::Malloc(&p, 0), vcuda::Error::Success);
  EXPECT_EQ(p, nullptr);
}

TEST(Registry, BytesInTracksTotals) {
  const std::size_t before =
      vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device);
  void *a = nullptr, *b = nullptr;
  vcuda::Malloc(&a, 1000);
  vcuda::Malloc(&b, 2000);
  EXPECT_GE(vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device),
            before + 3000);
  vcuda::Free(a);
  vcuda::Free(b);
}

TEST(Device, SetGetRoundtrip) {
  int d = -1;
  ASSERT_EQ(vcuda::SetDevice(1), vcuda::Error::Success);
  ASSERT_EQ(vcuda::GetDevice(&d), vcuda::Error::Success);
  EXPECT_EQ(d, 1);
  EXPECT_EQ(vcuda::SetDevice(vcuda::device_count()),
            vcuda::Error::InvalidDevice);
  vcuda::SetDevice(0);
}

TEST(Device, CountIsConfigurable) {
  const int prev = vcuda::set_device_count(4);
  EXPECT_EQ(vcuda::device_count(), 4);
  vcuda::set_device_count(prev);
}

} // namespace
