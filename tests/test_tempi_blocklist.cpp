// The Sec. 8 extension: generic blocklist packing for indexed/struct
// datatypes. Correctness against the reference oracle, device-metadata
// footprint (the Sec. 2 trade-off), interposer integration, and the
// default-off policy matching the paper's Summit deployment.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/blocklist_packer.hpp"
#include "tempi/collectives.hpp"
#include "tempi/reduce.hpp"
#include "tempi/tempi.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::fill_pattern;
using testing_helpers::reference_pack;
using testing_helpers::SpaceBuffer;

MPI_Datatype committed_indexed() {
  const int blens[4] = {2, 1, 3, 2};
  const int displs[4] = {0, 5, 9, 20};
  MPI_Datatype t = nullptr;
  MPI_Type_indexed(4, blens, displs, MPI_INT, &t);
  MPI_Type_commit(&t);
  return t;
}

MPI_Datatype committed_struct() {
  const int blens[3] = {2, 1, 4};
  const MPI_Aint displs[3] = {0, 24, 40};
  const MPI_Datatype types[3] = {MPI_DOUBLE, MPI_INT, MPI_FLOAT};
  MPI_Datatype t = nullptr;
  MPI_Type_create_struct(3, blens, displs, types, &t);
  MPI_Type_commit(&t);
  return t;
}

TEST(FlattenType, IndexedMatchesSysmpiBlocks) {
  MPI_Datatype t = committed_indexed();
  const auto blocks = tempi::flatten_type(t, interpose::system_table());
  ASSERT_TRUE(blocks.has_value());
  const auto &ref = t->flat_list().blocks;
  ASSERT_EQ(blocks->size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ((*blocks)[i].first, ref[i].offset) << i;
    EXPECT_EQ((*blocks)[i].second, ref[i].length) << i;
  }
  MPI_Type_free(&t);
}

TEST(FlattenType, StructAndNestedTypes) {
  MPI_Datatype s = committed_struct();
  const auto blocks = tempi::flatten_type(s, interpose::system_table());
  ASSERT_TRUE(blocks.has_value());
  EXPECT_EQ(blocks->size(), 3u); // three struct fields, runs merged inside
  MPI_Type_free(&s);

  // Vector of indexed: nesting across the strided/irregular boundary.
  MPI_Datatype idx = committed_indexed(), vec = nullptr;
  MPI_Type_vector(3, 1, 2, idx, &vec);
  MPI_Type_commit(&vec);
  const auto nested = tempi::flatten_type(vec, interpose::system_table());
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->size(), 3u * 4u);
  MPI_Type_free(&vec);
  MPI_Type_free(&idx);
}

TEST(BlockListPacker, PackMatchesReference) {
  MPI_Datatype t = committed_indexed();
  auto bl = tempi::BlockListPacker::create(t, interpose::system_table());
  ASSERT_NE(bl, nullptr);
  EXPECT_EQ(bl->block_count(), 4u);
  EXPECT_EQ(bl->type_size(), 8 * 4);
  const tempi::Packer packer(std::move(bl));

  SpaceBuffer src(vcuda::MemorySpace::Device, 26 * 4);
  fill_pattern(src.get(), src.size());
  const auto expect = reference_pack(src.get(), 1, *t);
  SpaceBuffer dst(vcuda::MemorySpace::Device, expect.size());
  ASSERT_EQ(packer.pack(dst.get(), src.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(std::memcmp(dst.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(BlockListPacker, UnpackInvertsPackMultiCount) {
  MPI_Datatype t = committed_struct();
  auto bl = tempi::BlockListPacker::create(t, interpose::system_table());
  ASSERT_NE(bl, nullptr);
  const tempi::Packer packer(std::move(bl));
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);

  constexpr int kCount = 3;
  const std::size_t span = static_cast<std::size_t>(extent) * kCount + 32;
  SpaceBuffer src(vcuda::MemorySpace::Device, span);
  SpaceBuffer back(vcuda::MemorySpace::Device, span);
  fill_pattern(src.get(), span, 17);
  std::memset(back.get(), 0, span);

  SpaceBuffer mid(vcuda::MemorySpace::Device, packer.packed_bytes(kCount));
  ASSERT_EQ(packer.pack(mid.get(), src.get(), kCount,
                        vcuda::default_stream()),
            vcuda::Error::Success);
  ASSERT_EQ(packer.unpack(back.get(), mid.get(), kCount,
                          vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(reference_pack(back.get(), kCount, *t),
            reference_pack(src.get(), kCount, *t));
  MPI_Type_free(&t);
}

TEST(BlockListPacker, MetadataLivesInDeviceMemory) {
  // The Sec. 2 trade-off: ~16 B of device metadata per block.
  const std::size_t before =
      vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device);
  MPI_Datatype t = committed_indexed();
  auto packer = tempi::BlockListPacker::create(t, interpose::system_table());
  ASSERT_NE(packer, nullptr);
  EXPECT_EQ(packer->metadata_bytes(), 4u * 16u);
  EXPECT_GE(vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device),
            before + packer->metadata_bytes());
  packer.reset(); // metadata freed with the packer
  EXPECT_LT(vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device),
            before + 64);
  MPI_Type_free(&t);
}

class BlocklistInterposer : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    sysmpi::ensure_self_context();
  }
  void TearDown() override {
    tempi::set_blocklist_fallback(false);
    tempi::uninstall();
  }
};

TEST_F(BlocklistInterposer, DisabledByDefaultMatchingThePaper) {
  EXPECT_FALSE(tempi::blocklist_fallback());
  MPI_Datatype t = committed_indexed();
  EXPECT_EQ(tempi::find_blocklist_packer(t), nullptr);
  MPI_Type_free(&t);
}

TEST_F(BlocklistInterposer, EnabledCommitBuildsBlocklistPacker) {
  tempi::set_blocklist_fallback(true);
  MPI_Datatype t = committed_indexed();
  EXPECT_EQ(tempi::find_packer(t), nullptr); // not strided
  EXPECT_NE(tempi::find_blocklist_packer(t), nullptr);
  MPI_Type_free(&t);
  EXPECT_EQ(tempi::find_blocklist_packer(t), nullptr); // evicted
}

TEST_F(BlocklistInterposer, SecondCommitBuildsNothing) {
  // Committing a type twice is legal; the second commit must find the
  // packer the first one built, not flatten and upload the block list again.
  tempi::set_blocklist_fallback(true);
  MPI_Datatype t = committed_indexed();
  const auto first = tempi::find_blocklist_packer(t);
  ASSERT_NE(first, nullptr);
  vcuda::reset_counters();
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(vcuda::counters().mallocs, 0u);
  EXPECT_EQ(tempi::find_blocklist_packer(t), first);
  MPI_Type_free(&t);
}

TEST_F(BlocklistInterposer, StridedTypesStillPreferCanonicalPath) {
  tempi::set_blocklist_fallback(true);
  MPI_Datatype t = nullptr;
  MPI_Type_vector(8, 2, 4, MPI_INT, &t);
  MPI_Type_commit(&t);
  EXPECT_NE(tempi::find_packer(t), nullptr);
  EXPECT_EQ(tempi::find_blocklist_packer(t), nullptr);
  MPI_Type_free(&t);
}

TEST_F(BlocklistInterposer, PackOnDeviceIsSingleKernel) {
  tempi::set_blocklist_fallback(true);
  MPI_Datatype t = committed_indexed();
  SpaceBuffer src(vcuda::MemorySpace::Device, 26 * 4);
  SpaceBuffer out(vcuda::MemorySpace::Device, 8 * 4);
  fill_pattern(src.get(), src.size());
  vcuda::reset_counters();
  int position = 0;
  ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(), 8 * 4, &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(vcuda::counters().kernel_launches, 1u);
  const auto expect = reference_pack(src.get(), 1, *t);
  EXPECT_EQ(std::memcmp(out.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST_F(BlocklistInterposer, SendRecvRoundtripsIndexedGpuData) {
  tempi::set_blocklist_fallback(true);
  tempi::trace::reset_counters();
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_indexed();
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 23);
      MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 1,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 1,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.send.device"), 1u); // blocklist ships via device
}

TEST_F(BlocklistInterposer, PersistentAndReplayPathsCarryBlocklistTypes) {
  // A block-list type rides the canonical request paths: persistent
  // Send_init/Recv_init are accelerated rather than forwarded, and
  // repeated Isends and MPI_Pack calls replay from recorded graphs.
  tempi::set_blocklist_fallback(true);
  tempi::trace::reset_counters();
  constexpr int kRounds = 3;
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_indexed();
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const std::size_t span = static_cast<std::size_t>(extent) + 16;
    SpaceBuffer buf(vcuda::MemorySpace::Device, span);
    // What the receiver must see in round `r`: the packed bytes of the
    // sender's round-`r` fill.
    const auto expected = [&](std::uint32_t seed) {
      std::vector<std::byte> host(span);
      fill_pattern(host.data(), span, seed);
      return reference_pack(host.data(), 1, *t);
    };

    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    for (int r = 0; r < kRounds; ++r) {
      const auto seed = static_cast<std::uint32_t>(40 + r);
      if (rank == 0) {
        fill_pattern(buf.get(), span, seed);
      } else {
        std::memset(buf.get(), 0, span);
      }
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      if (rank == 1) {
        EXPECT_EQ(reference_pack(buf.get(), 1, *t), expected(seed))
            << "persistent round " << r;
      }
    }
    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);

    for (int r = 0; r < kRounds; ++r) {
      const auto seed = static_cast<std::uint32_t>(60 + r);
      if (rank == 0) {
        fill_pattern(buf.get(), span, seed);
        ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 1, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      } else {
        std::memset(buf.get(), 0, span);
        ASSERT_EQ(MPI_Recv(buf.get(), 1, t, 0, 1, MPI_COMM_WORLD,
                           MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
        EXPECT_EQ(reference_pack(buf.get(), 1, *t), expected(seed))
            << "Isend round " << r;
      }
    }

    if (rank == 0) {
      SpaceBuffer out(vcuda::MemorySpace::Device, 8 * 4);
      for (int r = 0; r < kRounds; ++r) {
        const auto seed = static_cast<std::uint32_t>(80 + r);
        fill_pattern(buf.get(), span, seed);
        int position = 0;
        ASSERT_EQ(MPI_Pack(buf.get(), 1, t, out.get(), 8 * 4, &position,
                           MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_EQ(position, 8 * 4);
        const auto want = expected(seed);
        EXPECT_EQ(std::memcmp(out.get(), want.data(), want.size()), 0)
            << "pack round " << r;
      }
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.persistent.inits"), 2u);
  EXPECT_EQ(counter("tempi.persistent.forwarded"), 0u);
  EXPECT_GE(counter("tempi.isend.replays"), 1u);
  EXPECT_GE(counter("tempi.pack.replays"), 1u);
}

TEST_F(BlocklistInterposer, StridedOnlyEnginesLeaveBlocklistTypesAlone) {
  // The collectives and reduction engines move strided packers only: a
  // block-list type keeps the system MPI's collectives and reductions.
  tempi::set_blocklist_fallback(true);
  MPI_Datatype t = committed_indexed();
  ASSERT_NE(tempi::find_blocklist_packer(t), nullptr);
  EXPECT_FALSE(tempi::red::engine_shape_ok(t, MPI_SUM));
  MPI_Type_free(&t);

  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  const auto alltoallv = [&cfg] {
    std::array<std::vector<std::byte>, 2> out;
    sysmpi::run_ranks(cfg, [&out](int rank) {
      MPI_Init(nullptr, nullptr);
      MPI_Datatype idx = committed_indexed();
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(idx, &lb, &extent);
      const int counts[2] = {1, 1};
      const int displs[2] = {0, 1};
      const std::size_t span = 2 * static_cast<std::size_t>(extent) + 16;
      SpaceBuffer sbuf(vcuda::MemorySpace::Device, span);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device, span);
      fill_pattern(sbuf.get(), span, static_cast<std::uint32_t>(rank) + 7);
      std::memset(rbuf.get(), 0, span);
      ASSERT_EQ(MPI_Alltoallv(sbuf.get(), counts, displs, idx, rbuf.get(),
                              counts, displs, idx, MPI_COMM_WORLD),
                MPI_SUCCESS);
      out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                                 rbuf.bytes() + span);
      MPI_Type_free(&idx);
      MPI_Finalize();
    });
    return out;
  };
  tempi::trace::reset_counters();
  const auto accelerated = alltoallv();
  EXPECT_EQ(counter("tempi.coll.fallback"), 2u); // one per rank
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 0u);
  tempi::set_send_mode(tempi::SendMode::System);
  const auto system = alltoallv();
  tempi::set_send_mode(tempi::SendMode::Auto);
  EXPECT_EQ(accelerated, system);
}

TEST_F(BlocklistInterposer, FasterThanBaselineForManyBlocks) {
  tempi::set_blocklist_fallback(true);
  // 512-block indexed type on the GPU: baseline walks every block through
  // the driver; blocklist uses one kernel.
  std::vector<int> blens(512, 1), displs(512);
  for (int i = 0; i < 512; ++i) {
    displs[static_cast<std::size_t>(i)] = 2 * i;
  }
  MPI_Datatype t = nullptr;
  MPI_Type_indexed(512, blens.data(), displs.data(), MPI_INT, &t);
  MPI_Type_commit(&t);

  SpaceBuffer src(vcuda::MemorySpace::Device, 1024 * 4);
  SpaceBuffer out(vcuda::MemorySpace::Device, 512 * 4);
  int position = 0;
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(), 512 * 4, &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  const vcuda::VirtualNs accelerated = vcuda::virtual_now() - t0;
  MPI_Type_free(&t);

  tempi::set_blocklist_fallback(false);
  MPI_Datatype t2 = nullptr;
  MPI_Type_indexed(512, blens.data(), displs.data(), MPI_INT, &t2);
  MPI_Type_commit(&t2);
  position = 0;
  const vcuda::VirtualNs t1 = vcuda::virtual_now();
  ASSERT_EQ(MPI_Pack(src.get(), 1, t2, out.get(), 512 * 4, &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  const vcuda::VirtualNs baseline = vcuda::virtual_now() - t1;
  MPI_Type_free(&t2);

  EXPECT_GT(baseline, 50 * accelerated);
}

} // namespace
