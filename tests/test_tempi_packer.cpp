// TEMPI pack/unpack kernels: correctness against the scalar reference
// oracle, roundtrip properties over a parameterized shape sweep, and the
// performance structure the paper reports (single launch, block-size
// sensitivity, unpack slower than pack).
#include "interpose/table.hpp"
#include "sysmpi/mpi.hpp"
#include "tempi/canonicalize.hpp"
#include "tempi/packer.hpp"
#include "tempi/translate.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <tuple>

namespace {

using testing_helpers::fill_pattern;
using testing_helpers::reference_pack;
using testing_helpers::SpaceBuffer;

/// Build a TEMPI packer for a committed datatype through the same pipeline
/// MPI_Type_commit uses.
tempi::Packer make_packer(MPI_Datatype t) {
  auto ir = tempi::translate(t, interpose::system_table());
  EXPECT_TRUE(ir.has_value());
  tempi::simplify(*ir);
  auto sb = tempi::to_strided_block(*ir);
  EXPECT_TRUE(sb.has_value());
  MPI_Aint lb = 0, extent = 0;
  int size = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  MPI_Type_size(t, &size);
  return tempi::Packer(std::move(*sb), extent, size);
}

TEST(Packer, VectorPackMatchesReference) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(13, 100, 128, MPI_FLOAT, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);

  SpaceBuffer src(vcuda::MemorySpace::Device, 13 * 128 * 4);
  fill_pattern(src.get(), src.size());
  const auto expect = reference_pack(src.get(), 1, *t);

  SpaceBuffer dst(vcuda::MemorySpace::Device, expect.size());
  ASSERT_EQ(packer.pack(dst.get(), src.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(std::memcmp(dst.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(Packer, SubarrayPackMatchesReference) {
  const int sizes[3] = {8, 16, 32}, subsizes[3] = {3, 5, 20},
            starts[3] = {2, 4, 7};
  MPI_Datatype t = nullptr;
  MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C, MPI_FLOAT,
                           &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);
  EXPECT_EQ(packer.block().ndims(), 3);

  SpaceBuffer src(vcuda::MemorySpace::Device, 8 * 16 * 32 * 4);
  fill_pattern(src.get(), src.size());
  const auto expect = reference_pack(src.get(), 1, *t);
  SpaceBuffer dst(vcuda::MemorySpace::Device, expect.size());
  ASSERT_EQ(packer.pack(dst.get(), src.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(std::memcmp(dst.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(Packer, UnpackInvertsPack) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(9, 5, 11, MPI_INT, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);

  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent));
  SpaceBuffer dst(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent));
  fill_pattern(src.get(), src.size());
  std::memset(dst.get(), 0xEE, dst.size());

  SpaceBuffer mid(vcuda::MemorySpace::Device, packer.packed_bytes(1));
  ASSERT_EQ(packer.pack(mid.get(), src.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  ASSERT_EQ(packer.unpack(dst.get(), mid.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(reference_pack(src.get(), 1, *t), reference_pack(dst.get(), 1, *t));
  MPI_Type_free(&t);
}

TEST(Packer, ContiguousTypeUsesMemcpyNotKernel) {
  MPI_Datatype t = nullptr;
  MPI_Type_contiguous(1024, MPI_FLOAT, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);
  EXPECT_TRUE(packer.contiguous());

  SpaceBuffer src(vcuda::MemorySpace::Device, 4096);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 4096);
  fill_pattern(src.get(), 4096);
  vcuda::reset_counters();
  ASSERT_EQ(packer.pack(dst.get(), src.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::counters().kernel_launches, 0u);
  EXPECT_EQ(vcuda::counters().memcpy_async_calls, 1u);
  EXPECT_EQ(std::memcmp(dst.get(), src.get(), 4096), 0);
  MPI_Type_free(&t);
}

TEST(Packer, MultiCountUsesOneKernelLaunch) {
  // Sec. 3.3: the dynamic count is handled inside a single kernel (grid Z
  // for 2D), not by one launch per object.
  MPI_Datatype t = nullptr;
  MPI_Type_vector(16, 32, 64, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);

  constexpr int kCount = 7;
  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) * kCount + 64);
  fill_pattern(src.get(), src.size());
  SpaceBuffer dst(vcuda::MemorySpace::Device, packer.packed_bytes(kCount));
  vcuda::reset_counters();
  ASSERT_EQ(packer.pack(dst.get(), src.get(), kCount,
                        vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::counters().kernel_launches, 1u);
  EXPECT_EQ(vcuda::counters().stream_syncs, 1u);
  const auto expect = reference_pack(src.get(), kCount, *t);
  EXPECT_EQ(std::memcmp(dst.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(Packer, OneShotDestinationIsSlowerPerByteThanDevice) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(4096, 128, 256, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);

  SpaceBuffer src(vcuda::MemorySpace::Device, 4096 * 256);
  SpaceBuffer dev_dst(vcuda::MemorySpace::Device, packer.packed_bytes(1));
  SpaceBuffer host_dst(vcuda::MemorySpace::Pinned, packer.packed_bytes(1));

  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  packer.pack(dev_dst.get(), src.get(), 1, vcuda::default_stream());
  const vcuda::VirtualNs dev_ns = vcuda::virtual_now() - t0;

  const vcuda::VirtualNs t1 = vcuda::virtual_now();
  packer.pack(host_dst.get(), src.get(), 1, vcuda::default_stream());
  const vcuda::VirtualNs host_ns = vcuda::virtual_now() - t1;

  EXPECT_GT(host_ns, dev_ns); // interconnect-bound vs HBM-bound
  MPI_Type_free(&t);
}

TEST(Packer, UnpackSlowerThanPackForSmallBlocks) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(65536, 8, 64, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);
  SpaceBuffer obj(vcuda::MemorySpace::Device, 65536 * 64);
  SpaceBuffer packed(vcuda::MemorySpace::Device, packer.packed_bytes(1));

  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  packer.pack(packed.get(), obj.get(), 1, vcuda::default_stream());
  const vcuda::VirtualNs pack_ns = vcuda::virtual_now() - t0;
  const vcuda::VirtualNs t1 = vcuda::virtual_now();
  packer.unpack(obj.get(), packed.get(), 1, vcuda::default_stream());
  const vcuda::VirtualNs unpack_ns = vcuda::virtual_now() - t1;
  EXPECT_GT(unpack_ns, pack_ns);
  MPI_Type_free(&t);
}

TEST(PackPlan, MatchesRecomputeSelection) {
  // The commit-time plan must agree exactly with the per-call recompute it
  // replaced: same word size, same geometry for every dynamic count.
  MPI_Datatype types[3] = {nullptr, nullptr, nullptr};
  MPI_Type_vector(13, 100, 128, MPI_FLOAT, &types[0]);
  const int sizes[3] = {8, 16, 32}, subsizes[3] = {3, 5, 20},
            starts[3] = {2, 4, 7};
  MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C, MPI_FLOAT,
                           &types[1]);
  MPI_Type_vector(7, 3, 11, MPI_BYTE, &types[2]);
  for (MPI_Datatype &t : types) {
    MPI_Type_commit(&t);
    const tempi::Packer packer = make_packer(t);
    const tempi::PackPlan &plan = packer.plan();
    const tempi::StridedBlock &sb = packer.block();
    EXPECT_EQ(plan.word_size, tempi::select_word_size(sb));
    for (int count : {1, 2, 7, 64}) {
      const vcuda::LaunchConfig want =
          tempi::make_launch_config(sb, plan.word_size, count);
      const vcuda::LaunchConfig got = tempi::launch_config_for(plan, count);
      EXPECT_EQ(got.block.x, want.block.x);
      EXPECT_EQ(got.block.y, want.block.y);
      EXPECT_EQ(got.block.z, want.block.z);
      EXPECT_EQ(got.grid.x, want.grid.x);
      EXPECT_EQ(got.grid.y, want.grid.y);
      EXPECT_EQ(got.grid.z, want.grid.z);
    }
    MPI_Type_free(&t);
  }
}

TEST(PackPlan, PlanDrivenPackMatchesRecomputePathForRandomTypes) {
  // Plan-driven launches (Packer::pack) must be byte-identical to the
  // recompute-per-call launch_pack path for randomly drawn vector types.
  std::mt19937 rng(20210623); // the paper's conference date as seed
  std::uniform_int_distribution<int> counts(1, 40);
  std::uniform_int_distribution<int> blocks(1, 32);
  std::uniform_int_distribution<int> pads(0, 17);
  std::uniform_int_distribution<int> objs(1, 4);
  for (int round = 0; round < 25; ++round) {
    const int vcount = counts(rng);
    const int blocklen = blocks(rng);
    const int stride = blocklen + pads(rng);
    const int objcount = objs(rng);
    MPI_Datatype t = nullptr;
    ASSERT_EQ(MPI_Type_vector(vcount, blocklen, stride, MPI_INT, &t),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
    const tempi::Packer packer = make_packer(t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);

    const std::size_t span = static_cast<std::size_t>(extent) * objcount + 64;
    SpaceBuffer src(vcuda::MemorySpace::Device, span);
    fill_pattern(src.get(), span, static_cast<std::uint32_t>(round * 977));
    SpaceBuffer via_plan(vcuda::MemorySpace::Device,
                         packer.packed_bytes(objcount));
    SpaceBuffer via_recompute(vcuda::MemorySpace::Device,
                              packer.packed_bytes(objcount));

    ASSERT_EQ(packer.pack(via_plan.get(), src.get(), objcount,
                          vcuda::default_stream()),
              vcuda::Error::Success);
    ASSERT_EQ(tempi::launch_pack(packer.block(), extent, via_recompute.get(),
                                 src.get(), objcount,
                                 vcuda::default_stream()),
              vcuda::Error::Success);
    vcuda::StreamSynchronize(vcuda::default_stream());
    EXPECT_EQ(std::memcmp(via_plan.get(), via_recompute.get(),
                          packer.packed_bytes(objcount)),
              0)
        << "vector(" << vcount << "," << blocklen << "," << stride
        << ") x" << objcount;
    MPI_Type_free(&t);
  }
}

TEST(PackerDma, UniformStrideFoldsBatchIntoOneCopy) {
  // A 2-D subarray spanning the full outer dimension has extent ==
  // rows * pitch, so consecutive objects continue the row grid and any
  // count folds into a single Memcpy2DAsync.
  const int sizes[2] = {16, 64}, subsizes[2] = {16, 24}, starts[2] = {0, 8};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_subarray(2, sizes, subsizes, starts, MPI_ORDER_C,
                                     MPI_BYTE, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  const tempi::Packer packer = make_packer(t);
  ASSERT_TRUE(packer.dma_capable());
  EXPECT_TRUE(packer.plan().dma_uniform);

  constexpr int kCount = 5;
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) * kCount + 64);
  fill_pattern(src.get(), src.size());
  SpaceBuffer dst(vcuda::MemorySpace::Device, packer.packed_bytes(kCount));
  vcuda::reset_counters();
  ASSERT_EQ(packer.pack_dma(dst.get(), src.get(), kCount,
                            vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::counters().memcpy_async_calls, 1u); // folded, not kCount
  const auto expect = reference_pack(src.get(), kCount, *t);
  EXPECT_EQ(std::memcmp(dst.get(), expect.data(), expect.size()), 0);

  // And the DMA unpack must invert it, also in one call.
  SpaceBuffer back(vcuda::MemorySpace::Device,
                   static_cast<std::size_t>(extent) * kCount + 64);
  std::memset(back.get(), 0, back.size());
  vcuda::reset_counters();
  ASSERT_EQ(packer.unpack_dma(back.get(), dst.get(), kCount,
                              vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::counters().memcpy_async_calls, 1u);
  EXPECT_EQ(reference_pack(back.get(), kCount, *t), expect);
  MPI_Type_free(&t);
}

TEST(PackerDma, NonUniformStrideStillCopiesPerObject) {
  // A plain vector's extent ends at the last block, so object strides are
  // not uniform row strides: one DMA call per object remains.
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(8, 16, 48, MPI_BYTE, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  const tempi::Packer packer = make_packer(t);
  ASSERT_TRUE(packer.dma_capable());
  EXPECT_FALSE(packer.plan().dma_uniform);

  constexpr int kCount = 3;
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) * kCount + 64);
  fill_pattern(src.get(), src.size());
  SpaceBuffer dst(vcuda::MemorySpace::Device, packer.packed_bytes(kCount));
  vcuda::reset_counters();
  ASSERT_EQ(packer.pack_dma(dst.get(), src.get(), kCount,
                            vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::counters().memcpy_async_calls,
            static_cast<std::uint64_t>(kCount));
  const auto expect = reference_pack(src.get(), kCount, *t);
  EXPECT_EQ(std::memcmp(dst.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(PackerMemo, RemembersMethodPerCountAndGeneration) {
  using tempi::Method;
  MPI_Datatype t = nullptr;
  MPI_Type_vector(64, 8, 16, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);

  EXPECT_FALSE(packer.cached_transfers(1, 1).has_value()); // cold
  packer.remember_transfers(1, 1, {{Method::OneShot, 0}, {Method::Device, 0}});
  ASSERT_TRUE(packer.cached_transfers(1, 1).has_value());
  EXPECT_EQ(packer.cached_transfers(1, 1)->isolated.method, Method::OneShot);
  EXPECT_EQ(packer.cached_transfers(1, 1)->overlapped.method, Method::Device);
  // A different count or a newer model generation must miss.
  EXPECT_FALSE(packer.cached_transfers(2, 1).has_value());
  EXPECT_FALSE(packer.cached_transfers(1, 2).has_value());
  // Re-remembering under the new generation replaces the slot.
  packer.remember_transfers(1, 2, {{Method::Staged, 0}, {Method::Staged, 0}});
  EXPECT_EQ(packer.cached_transfers(1, 2)->isolated.method, Method::Staged);
  EXPECT_FALSE(packer.cached_transfers(1, 1).has_value());
  MPI_Type_free(&t);
}

TEST(PackerMemo, KeepsTheChunkAndEveryGenerationBit) {
  // The memo word holds the packed TransferChoices next to 27 generation
  // bits and a 26-bit count: a Pipelined pair keeps its chunk, a
  // generation 2^26 apart still misses, and counts of 2^26 or more
  // bypass the memo.
  using tempi::Method;
  MPI_Datatype t = nullptr;
  MPI_Type_vector(64, 8, 16, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  const tempi::Packer packer = make_packer(t);

  const tempi::TransferChoice pipe{Method::Pipelined, std::size_t{1} << 30};
  packer.remember_transfers(3, 5, {pipe, pipe});
  const auto got = packer.cached_transfers(3, 5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->isolated.method, Method::Pipelined);
  EXPECT_EQ(got->isolated.chunk_bytes, pipe.chunk_bytes);
  EXPECT_EQ(got->overlapped.method, Method::Pipelined);
  EXPECT_EQ(got->overlapped.chunk_bytes, pipe.chunk_bytes);
  EXPECT_FALSE(packer.cached_transfers(3, 5 + (std::uint64_t{1} << 26)));

  constexpr int kTooMany = (1 << 26) + 3; // count 3's slot
  const tempi::TransferChoice dev{Method::Device, 0};
  packer.remember_transfers(kTooMany, 5, {dev, dev});
  EXPECT_FALSE(packer.cached_transfers(kTooMany, 5).has_value());
  ASSERT_TRUE(packer.cached_transfers(3, 5).has_value()); // not overwritten
  EXPECT_EQ(packer.cached_transfers(3, 5)->isolated.method, Method::Pipelined);
  MPI_Type_free(&t);
}

// Parameterized sweep over (count, blocklen, stride, dtype bytes, objcount):
// TEMPI pack must equal the reference for sorted-construction vectors, and
// pack-unpack must restore the object, in device memory.
class PackerSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PackerSweep, MatchesReferenceAndRoundtrips) {
  const auto [vcount, blocklen, stride, objcount] = GetParam();
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(vcount, blocklen, stride, MPI_FLOAT, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  const tempi::Packer packer = make_packer(t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);

  const std::size_t span =
      static_cast<std::size_t>(extent) * objcount + 256;
  SpaceBuffer src(vcuda::MemorySpace::Device, span);
  SpaceBuffer back(vcuda::MemorySpace::Device, span);
  fill_pattern(src.get(), span, static_cast<std::uint32_t>(stride * 31));
  std::memset(back.get(), 0, span);

  const auto expect = reference_pack(src.get(), objcount, *t);
  SpaceBuffer packed(vcuda::MemorySpace::Device,
                     packer.packed_bytes(objcount));
  ASSERT_EQ(packer.pack(packed.get(), src.get(), objcount,
                        vcuda::default_stream()),
            vcuda::Error::Success);
  ASSERT_EQ(std::memcmp(packed.get(), expect.data(), expect.size()), 0);

  ASSERT_EQ(packer.unpack(back.get(), packed.get(), objcount,
                          vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(reference_pack(back.get(), objcount, *t), expect);
  MPI_Type_free(&t);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackerSweep,
    ::testing::Combine(::testing::Values(1, 2, 13, 64),   // vector count
                       ::testing::Values(1, 3, 25),       // blocklength
                       ::testing::Values(26, 40),         // stride (elems)
                       ::testing::Values(1, 2, 5)));      // object count

// 3D subarray sweep: canonical 3D kernels across odd shapes and offsets.
class Packer3DSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Packer3DSweep, SubarrayRoundtrips) {
  const auto [sx, sy, sz] = GetParam();
  const int sizes[3] = {sz + 3, sy + 2, sx + 5};
  const int subsizes[3] = {sz, sy, sx};
  const int starts[3] = {1, 2, 3};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C,
                                     MPI_DOUBLE, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  const tempi::Packer packer = make_packer(t);

  const std::size_t span = static_cast<std::size_t>(sizes[0]) * sizes[1] *
                           sizes[2] * sizeof(double);
  SpaceBuffer src(vcuda::MemorySpace::Device, span);
  SpaceBuffer back(vcuda::MemorySpace::Device, span);
  fill_pattern(src.get(), span, static_cast<std::uint32_t>(sx * sy * sz));
  std::memset(back.get(), 0, span);

  const auto expect = reference_pack(src.get(), 1, *t);
  SpaceBuffer packed(vcuda::MemorySpace::Device, packer.packed_bytes(1));
  ASSERT_EQ(packer.pack(packed.get(), src.get(), 1, vcuda::default_stream()),
            vcuda::Error::Success);
  ASSERT_EQ(std::memcmp(packed.get(), expect.data(), expect.size()), 0);
  ASSERT_EQ(packer.unpack(back.get(), packed.get(), 1,
                          vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(reference_pack(back.get(), 1, *t), expect);
  MPI_Type_free(&t);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Packer3DSweep,
                         ::testing::Combine(::testing::Values(1, 4, 9),
                                            ::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 2, 7)));

} // namespace
