#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
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

TEST(Registry, GenerationChangesOnEveryAllocationEvent) {
  const vcuda::MemoryRegistry &registry = vcuda::memory_registry();
  std::uint64_t last = registry.generation();
  EXPECT_NE(last, 0u);
  const auto expect_changed = [&](const char *event) {
    const std::uint64_t now = registry.generation();
    EXPECT_NE(now, last) << event;
    last = now;
  };
  void *dev = nullptr;
  void *pinned = nullptr;
  std::vector<std::byte> host(256);
  ASSERT_EQ(vcuda::Malloc(&dev, 64), vcuda::Error::Success);
  expect_changed("Malloc");
  ASSERT_EQ(vcuda::MallocHost(&pinned, 64), vcuda::Error::Success);
  expect_changed("MallocHost");
  ASSERT_EQ(vcuda::HostRegister(host.data(), host.size()),
            vcuda::Error::Success);
  expect_changed("HostRegister");
  // Lookups and failed calls are no allocation events.
  vcuda::MemorySpace space{};
  vcuda::PointerGetAttributes(&space, nullptr, dev);
  EXPECT_EQ(vcuda::HostUnregister(host.data() + 1),
            vcuda::Error::InvalidValue);
  EXPECT_EQ(registry.generation(), last);
  ASSERT_EQ(vcuda::HostUnregister(host.data()), vcuda::Error::Success);
  expect_changed("HostUnregister");
  ASSERT_EQ(vcuda::FreeHost(pinned), vcuda::Error::Success);
  expect_changed("FreeHost");
  ASSERT_EQ(vcuda::Free(dev), vcuda::Error::Success);
  expect_changed("Free");
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
