// Repeated MPI_Pack/MPI_Unpack replay: the interposer runs a device pack
// or unpack live on the first sighting of its (packer, source,
// destination, count, direction), records it as a vcuda graph on the
// second, and replays the graph (one graph launch + one fence) from then
// on. Replays must move the buffers' current bytes, never a stale graph.
#include "interpose/table.hpp"
#include "random_types.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"
#include "vcuda/clock.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::fill_pattern;
using testing_helpers::random_strided_type;
using testing_helpers::reference_pack;
using testing_helpers::Rng;
using testing_helpers::SpaceBuffer;

MPI_Datatype committed_vector(int count, int blocklen, int stride) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(count, blocklen, stride, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

bool same_bytes(const void *a, const void *b, std::size_t n) {
  return std::memcmp(a, b, n) == 0;
}

/// Pack `count` objects of `t` from `src` at position 0 of `out`.
int pack_at0(const void *src, int count, MPI_Datatype t, void *out,
             int outsize) {
  int position = 0;
  return MPI_Pack(src, count, t, out, outsize, &position, MPI_COMM_WORLD);
}

/// Pack one object of `t` from `src` at each of `keys` consecutive
/// positions of `out` (`keys` distinct replay keys), `rounds` times over.
void pack_positions(const void *src, MPI_Datatype t, void *out, int keys,
                    int rounds) {
  int size = 0;
  MPI_Type_size(t, &size);
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < keys; ++k) {
      int position = k * size;
      EXPECT_EQ(MPI_Pack(src, 1, t, out, keys * size, &position,
                         MPI_COMM_WORLD),
                MPI_SUCCESS);
    }
  }
}

class PackReplay : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    sysmpi::ensure_self_context();
  }
  void TearDown() override { tempi::uninstall(); }
};

class PackReplayRandom : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override {
    tempi::install();
    sysmpi::ensure_self_context();
  }
  void TearDown() override { tempi::uninstall(); }
};

// Four pack/unpack rounds over one random type with the source mutated
// before each: calls 3 and 4 are replays, and every round must equal the
// system path's bytes, so a replay reads the buffers' current contents.
TEST_P(PackReplayRandom, ReplaysMatchSystemPathAsSourceChanges) {
  Rng rng(GetParam() * 2654435761u + 11);
  MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 4));
  MPI_Aint lb = 0, extent = 0;
  int size = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  MPI_Type_size(t, &size);
  ASSERT_NE(tempi::find_packer(t), nullptr);
  if (size == 0) {
    MPI_Type_free(&t);
    return;
  }
  const int count = rng.uniform(1, 3);
  const int bytes = size * count;
  const std::size_t span = static_cast<std::size_t>(extent) * count + 64;
  SpaceBuffer src(vcuda::MemorySpace::Device, span);
  SpaceBuffer packed(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(bytes));
  SpaceBuffer back(vcuda::MemorySpace::Device, span);
  std::vector<std::byte> sys_packed(static_cast<std::size_t>(bytes));
  std::vector<std::byte> sys_back(span);
  std::memset(back.get(), 0, span);
  std::memset(sys_back.data(), 0, span);

  const interpose::MpiTable &sys = interpose::system_table();
  const std::uint64_t captures0 = counter("tempi.pack.captures");
  const std::uint64_t replays0 = counter("tempi.pack.replays");
  for (unsigned call = 0; call < 4; ++call) {
    fill_pattern(src.get(), span, GetParam() * 16 + call);
    ASSERT_EQ(pack_at0(src.get(), count, t, packed.get(), bytes),
              MPI_SUCCESS);
    int position = 0;
    ASSERT_EQ(sys.Pack(src.get(), count, t, sys_packed.data(), bytes,
                       &position, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_TRUE(same_bytes(packed.get(), sys_packed.data(), sys_packed.size()))
        << "pack call " << call;

    position = 0;
    ASSERT_EQ(MPI_Unpack(packed.get(), bytes, &position, back.get(), count, t,
                         MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(position, bytes);
    position = 0;
    ASSERT_EQ(sys.Unpack(sys_packed.data(), bytes, &position, sys_back.data(),
                         count, t, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_TRUE(same_bytes(back.get(), sys_back.data(), span))
        << "unpack call " << call;
  }
  // One capture per direction (call 2); calls 2-4 replay.
  EXPECT_EQ(counter("tempi.pack.captures") - captures0, 2u);
  EXPECT_EQ(counter("tempi.pack.replays") - replays0, 6u);
  MPI_Type_free(&t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackReplayRandom, ::testing::Range(1u, 21u));

struct DeviceOps {
  std::uint64_t kernels, syncs, graphs, fences;
};

DeviceOps device_ops() {
  const vcuda::Counters c = vcuda::counters();
  return {c.kernel_launches, c.stream_syncs, c.graph_launches,
          c.stream_fences};
}

DeviceOps operator-(const DeviceOps &a, const DeviceOps &b) {
  return {a.kernels - b.kernels, a.syncs - b.syncs, a.graphs - b.graphs,
          a.fences - b.fences};
}

TEST_F(PackReplay, FirstCallLiveSecondCapturesLaterReplay) {
  MPI_Datatype t = committed_vector(256, 8, 64);
  SpaceBuffer src(vcuda::MemorySpace::Device, 256 * 64);
  SpaceBuffer out(vcuda::MemorySpace::Device, 256 * 8);
  SpaceBuffer back(vcuda::MemorySpace::Device, 256 * 64);
  fill_pattern(src.get(), src.size());

  const std::uint64_t captures0 = counter("tempi.pack.captures");
  std::vector<vcuda::VirtualNs> took;
  for (int call = 1; call <= 4; ++call) {
    const DeviceOps before = device_ops();
    const std::uint64_t captures = counter("tempi.pack.captures");
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    ASSERT_EQ(pack_at0(src.get(), 1, t, out.get(), 256 * 8), MPI_SUCCESS);
    took.push_back(vcuda::virtual_now() - t0);
    const DeviceOps d = device_ops() - before;
    const std::uint64_t captured = counter("tempi.pack.captures") - captures;
    if (call == 1) {
      EXPECT_EQ(d.kernels, 1u);
      EXPECT_EQ(d.syncs, 1u);
      EXPECT_EQ(d.graphs, 0u);
      EXPECT_EQ(captured, 0u);
    } else {
      EXPECT_EQ(d.kernels, 0u) << "call " << call;
      EXPECT_EQ(d.syncs, 0u) << "call " << call;
      EXPECT_EQ(d.graphs, 1u) << "call " << call;
      EXPECT_EQ(d.fences, 1u) << "call " << call;
      EXPECT_EQ(captured, call == 2 ? 1u : 0u) << "call " << call;
    }
    const auto expect = reference_pack(src.get(), 1, *t);
    EXPECT_TRUE(same_bytes(out.get(), expect.data(), expect.size()));
  }
  // A replay pays a graph launch, the in-graph node floor and a fence
  // instead of a cold launch, the cold floor and a blocking sync.
  EXPECT_LT(took[2] * 2, took[0]) << took[0] << " ns live vs " << took[2]
                                  << " ns replayed";

  // The unpack direction is keyed separately and promoted the same way.
  for (int call = 1; call <= 3; ++call) {
    const DeviceOps before = device_ops();
    int position = 0;
    ASSERT_EQ(MPI_Unpack(out.get(), 256 * 8, &position, back.get(), 1, t,
                         MPI_COMM_WORLD),
              MPI_SUCCESS);
    const DeviceOps d = device_ops() - before;
    EXPECT_EQ(d.kernels, call == 1 ? 1u : 0u) << "unpack call " << call;
    EXPECT_EQ(d.graphs, call == 1 ? 0u : 1u) << "unpack call " << call;
    EXPECT_EQ(reference_pack(back.get(), 1, *t),
              reference_pack(src.get(), 1, *t));
  }
  EXPECT_EQ(counter("tempi.pack.captures") - captures0, 2u);
  MPI_Type_free(&t);
}

TEST_F(PackReplay, SpansNameTheLiveCaptureAndReplayPaths) {
  MPI_Datatype t = committed_vector(64, 4, 16);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
  SpaceBuffer out(vcuda::MemorySpace::Device, 64 * 4);
  tempi::trace::reset();
  tempi::trace::set_enabled(true);
  for (int call = 0; call < 3; ++call) {
    ASSERT_EQ(pack_at0(src.get(), 1, t, out.get(), 64 * 4), MPI_SUCCESS);
  }
  tempi::trace::set_enabled(false);
  std::vector<tempi::trace::Phase> phases;
  for (const tempi::trace::SpanRecord &s : tempi::trace_snapshot().spans) {
    if (s.kind == tempi::trace::OpKind::Pack) {
      phases.push_back(s.phase);
      if (s.phase != tempi::trace::Phase::GraphCapture) {
        EXPECT_EQ(s.bytes, 64u * 4u);
      }
    }
  }
  tempi::trace::reset();
  using tempi::trace::Phase;
  EXPECT_EQ(phases, (std::vector<Phase>{Phase::PackLaunch, Phase::GraphCapture,
                                        Phase::GraphReplay,
                                        Phase::GraphReplay}));
  MPI_Type_free(&t);
}

TEST_F(PackReplay, PositionIsPartOfTheKeyAndTruncationStillWins) {
  MPI_Datatype t = committed_vector(32, 4, 8);
  constexpr int kBytes = 32 * 4;
  SpaceBuffer src(vcuda::MemorySpace::Device, 32 * 8);
  SpaceBuffer out(vcuda::MemorySpace::Device, 2 * kBytes);
  fill_pattern(src.get(), src.size());
  for (int call = 0; call < 3; ++call) {
    ASSERT_EQ(pack_at0(src.get(), 1, t, out.get(), 2 * kBytes), MPI_SUCCESS);
  }

  // Same arguments but a different *position: a new key, packed live.
  DeviceOps before = device_ops();
  int position = kBytes;
  ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(), 2 * kBytes, &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(position, 2 * kBytes);
  DeviceOps d = device_ops() - before;
  EXPECT_EQ(d.kernels, 1u);
  EXPECT_EQ(d.graphs, 0u);
  const auto expect = reference_pack(src.get(), 1, *t);
  EXPECT_TRUE(same_bytes(out.bytes() + kBytes, expect.data(), expect.size()));

  // A promoted key with too small an output still truncates, untouched.
  before = device_ops();
  position = 0;
  EXPECT_EQ(MPI_Pack(src.get(), 1, t, out.get(), kBytes - 1, &position,
                     MPI_COMM_WORLD),
            MPI_ERR_TRUNCATE);
  EXPECT_EQ(position, 0);
  d = device_ops() - before;
  EXPECT_EQ(d.kernels, 0u);
  EXPECT_EQ(d.graphs, 0u);
  position = 0;
  EXPECT_EQ(MPI_Unpack(out.get(), kBytes - 1, &position, src.get(), 1, t,
                       MPI_COMM_WORLD),
            MPI_ERR_TRUNCATE);
  EXPECT_EQ(position, 0);
  MPI_Type_free(&t);
}

TEST_F(PackReplay, MoreKeysThanTheTableHoldsNeverCapture) {
  const auto captures_over = [](int keys) {
    MPI_Datatype t = committed_vector(4, 1, 2);
    SpaceBuffer src(vcuda::MemorySpace::Device, 8);
    SpaceBuffer out(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(keys) * 4);
    const std::uint64_t captures0 = counter("tempi.pack.captures");
    pack_positions(src.get(), t, out.get(), keys, 3);
    MPI_Type_free(&t);
    return counter("tempi.pack.captures") - captures0;
  };
  // Cycling 400 keys through a 128-entry LRU table evicts every key
  // before its second sighting.
  const std::uint64_t evictions0 = counter("tempi.pack.evictions");
  EXPECT_EQ(captures_over(400), 0u);
  EXPECT_GE(counter("tempi.pack.evictions") - evictions0, 3u * 400u - 128u);
  // Control, on a fresh table: a working set that fits is captured once
  // per key.
  tempi::uninstall();
  tempi::install();
  EXPECT_EQ(captures_over(100), 100u);
}

TEST_F(PackReplay, FreedAndRecommittedTypeNeverReplaysTheOldGraph) {
  MPI_Datatype wide = committed_vector(64, 8, 16);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
  SpaceBuffer out(vcuda::MemorySpace::Device, 64 * 8);
  fill_pattern(src.get(), src.size(), 3);
  for (int call = 0; call < 3; ++call) {
    ASSERT_EQ(pack_at0(src.get(), 1, wide, out.get(), 64 * 8), MPI_SUCCESS);
  }
  MPI_Type_free(&wide);

  // Same pointers, same count, a different layout (possibly the same
  // handle): a new packer, so a new key.
  MPI_Datatype narrow = committed_vector(64, 4, 16);
  std::memset(out.get(), 0, out.size());
  const DeviceOps before = device_ops();
  ASSERT_EQ(pack_at0(src.get(), 1, narrow, out.get(), 64 * 8), MPI_SUCCESS);
  const DeviceOps d = device_ops() - before;
  EXPECT_EQ(d.kernels, 1u);
  EXPECT_EQ(d.graphs, 0u);
  const auto expect = reference_pack(src.get(), 1, *narrow);
  EXPECT_TRUE(same_bytes(out.get(), expect.data(), expect.size()));
  EXPECT_EQ(out.bytes()[expect.size()], std::byte{0}); // nothing beyond
  MPI_Type_free(&narrow);
}

// Uninstall destroys every packer, so the next install's packers may reuse
// their addresses with the same buffers. Whether the allocator reuses one
// is not observable, so the test checks the mechanism instead: after a
// reinstall a table full of promoted entries holds none of them (the new
// keys evict nothing), on the uninstalling thread and on a thread that
// lives across the reinstall alike.
TEST_F(PackReplay, ReinstallDropsEveryEntryOfTheLastInstall) {
  constexpr int kKeys = 128; // the whole table
  const auto refill_after_reinstall = [](void *src, void *out) {
    MPI_Datatype t = committed_vector(4, 1, 2);
    const DeviceOps before = device_ops();
    const std::uint64_t evictions0 = counter("tempi.pack.evictions");
    pack_positions(src, t, out, kKeys, 1);
    const DeviceOps d = device_ops() - before;
    EXPECT_EQ(counter("tempi.pack.evictions") - evictions0, 0u);
    EXPECT_EQ(d.kernels, static_cast<std::uint64_t>(kKeys));
    EXPECT_EQ(d.graphs, 0u);
    const auto expect = reference_pack(src, 1, *t);
    EXPECT_TRUE(same_bytes(static_cast<std::byte *>(out) + (kKeys - 1) * 4,
                           expect.data(), expect.size()));
    MPI_Type_free(&t);
  };
  std::barrier<> step(2);
  std::thread worker([&] {
    sysmpi::ensure_self_context();
    SpaceBuffer src(vcuda::MemorySpace::Device, 8);
    SpaceBuffer out(vcuda::MemorySpace::Device, kKeys * 4);
    fill_pattern(src.get(), src.size(), 6);
    MPI_Datatype t = committed_vector(4, 1, 2);
    pack_positions(src.get(), t, out.get(), kKeys, 2);
    MPI_Type_free(&t);
    step.arrive_and_wait(); // main reinstalls
    step.arrive_and_wait();
    refill_after_reinstall(src.get(), out.get());
  });

  SpaceBuffer src(vcuda::MemorySpace::Device, 8);
  SpaceBuffer out(vcuda::MemorySpace::Device, kKeys * 4);
  fill_pattern(src.get(), src.size(), 5);
  MPI_Datatype t = committed_vector(4, 1, 2);
  pack_positions(src.get(), t, out.get(), kKeys, 2);
  MPI_Type_free(&t);
  step.arrive_and_wait();
  tempi::uninstall();
  tempi::install();
  step.arrive_and_wait();
  worker.join();
  refill_after_reinstall(src.get(), out.get());
}

TEST_F(PackReplay, ApplicationCaptureTakesTheLivePath) {
  MPI_Datatype t = committed_vector(64, 4, 16);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
  SpaceBuffer out(vcuda::MemorySpace::Device, 64 * 4);
  fill_pattern(src.get(), src.size(), 9);
  std::memset(out.get(), 0, out.size());

  const std::uint64_t captures0 = counter("tempi.pack.captures");
  const vcuda::StreamHandle stream = vcuda::default_stream();
  ASSERT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
  for (int call = 0; call < 3; ++call) {
    ASSERT_EQ(pack_at0(src.get(), 1, t, out.get(), 64 * 4), MPI_SUCCESS);
  }
  vcuda::GraphHandle app = nullptr;
  ASSERT_EQ(vcuda::GraphEndCapture(stream, &app), vcuda::Error::Success);
  // Every call recorded its kernel into the application's graph; none
  // touched the replay table.
  EXPECT_EQ(vcuda::GraphNodeCount(app), 3u);
  EXPECT_EQ(counter("tempi.pack.captures"), captures0);
  EXPECT_EQ(out.bytes()[0], std::byte{0}); // recorded, not executed

  ASSERT_EQ(vcuda::GraphLaunch(app, stream), vcuda::Error::Success);
  ASSERT_EQ(vcuda::StreamSynchronize(stream), vcuda::Error::Success);
  const auto expect = reference_pack(src.get(), 1, *t);
  EXPECT_TRUE(same_bytes(out.get(), expect.data(), expect.size()));
  vcuda::GraphDestroy(app);

  // The captured calls were never sighted: the next one runs live.
  const DeviceOps before = device_ops();
  ASSERT_EQ(pack_at0(src.get(), 1, t, out.get(), 64 * 4), MPI_SUCCESS);
  EXPECT_EQ((device_ops() - before).kernels, 1u);
  MPI_Type_free(&t);
}

TEST_F(PackReplay, ThreadsReplayFromTheirOwnTables) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([t, i] {
      sysmpi::ensure_self_context();
      SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
      SpaceBuffer out(vcuda::MemorySpace::Device, 128 * 4);
      SpaceBuffer back(vcuda::MemorySpace::Device, 128 * 12);
      for (unsigned call = 0; call < 6; ++call) {
        fill_pattern(src.get(), src.size(),
                     static_cast<std::uint32_t>(i * 8) + call);
        EXPECT_EQ(pack_at0(src.get(), 1, t, out.get(), 128 * 4), MPI_SUCCESS);
        int position = 0;
        EXPECT_EQ(MPI_Unpack(out.get(), 128 * 4, &position, back.get(), 1, t,
                             MPI_COMM_WORLD),
                  MPI_SUCCESS);
        const auto expect = reference_pack(src.get(), 1, *t);
        EXPECT_TRUE(same_bytes(out.get(), expect.data(), expect.size()));
        EXPECT_EQ(reference_pack(back.get(), 1, *t), expect);
      }
    });
  }
  for (std::thread &th : threads) {
    th.join();
  }
  MPI_Type_free(&t);
}

} // namespace
