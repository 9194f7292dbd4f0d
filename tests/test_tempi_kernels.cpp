// Kernel geometry properties (Sec. 3.3) over randomized StridedBlocks:
// the power-of-two fill rule, the 1024-thread block limit, full coverage
// of the object, and word-size divisibility invariants. The transcode (a
// fused-batch segment copying one layout's objects straight into
// another's) equals an unpack of a pack over random type pairs, touches no
// gap byte, and is never modeled slower than the pack plus the unpack. A
// pack segment of a fused batch writes and costs what launch_pack does.
#include "interpose/table.hpp"
#include "random_types.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/canonicalize.hpp"
#include "tempi/kernels.hpp"
#include "tempi/translate.hpp"
#include "test_helpers.hpp"
#include "vcuda/clock.hpp"
#include "vcuda/costmodel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

namespace {

using tempi::StridedBlock;
using testing_helpers::fill_pattern;
using testing_helpers::random_strided_type;
using testing_helpers::Rng;
using testing_helpers::SpaceBuffer;

StridedBlock random_block(std::mt19937 &gen) {
  std::uniform_int_distribution<int> dims_dist(1, 3);
  std::uniform_int_distribution<long long> block_dist(1, 2048);
  std::uniform_int_distribution<long long> count_dist(1, 600);
  std::uniform_int_distribution<long long> off_dist(0, 64);
  StridedBlock sb;
  const int dims = dims_dist(gen);
  sb.start = off_dist(gen);
  sb.counts.push_back(block_dist(gen));
  sb.strides.push_back(1);
  long long span = sb.counts[0];
  for (int d = 1; d < dims; ++d) {
    const long long count = count_dist(gen);
    const long long stride = span + off_dist(gen);
    sb.counts.push_back(count);
    sb.strides.push_back(stride);
    span = stride * count;
  }
  return sb;
}

class KernelGeometry : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelGeometry, InvariantsHold) {
  std::mt19937 gen(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const StridedBlock sb = random_block(gen);
    const int w = tempi::select_word_size(sb);

    // Word size divides the contiguous block, the start, and all strides.
    EXPECT_EQ(sb.counts[0] % w, 0);
    EXPECT_EQ(sb.start % w, 0);
    for (std::size_t d = 1; d < sb.strides.size(); ++d) {
      EXPECT_EQ(sb.strides[d] % w, 0);
    }
    EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8 || w == 16);

    for (const int count : {1, 3}) {
      const vcuda::LaunchConfig cfg = tempi::make_launch_config(sb, w, count);
      // Block limit.
      EXPECT_LE(cfg.block.volume(), 1024ull);
      EXPECT_GE(cfg.block.volume(), 1ull);
      // Power-of-two dimensions.
      EXPECT_TRUE(std::has_single_bit(cfg.block.x));
      EXPECT_TRUE(std::has_single_bit(cfg.block.y));
      EXPECT_TRUE(std::has_single_bit(cfg.block.z));
      // The grid covers the object in every dimension.
      EXPECT_GE(static_cast<long long>(cfg.grid.x) * cfg.block.x * w,
                sb.counts[0]);
      if (sb.ndims() >= 2) {
        EXPECT_GE(static_cast<long long>(cfg.grid.y) * cfg.block.y,
                  sb.counts[1]);
      }
      if (sb.ndims() >= 3) {
        EXPECT_GE(static_cast<long long>(cfg.grid.z) * cfg.block.z,
                  sb.counts[2]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelGeometry, ::testing::Range(1u, 9u));

TEST(KernelCostShape, PackReadsStridedUnpackWritesStrided) {
  StridedBlock sb;
  sb.counts = {32, 100};
  sb.strides = {1, 64};
  const auto pack = tempi::pack_cost(sb, 2, vcuda::MemorySpace::Device,
                                     vcuda::MemorySpace::Device);
  EXPECT_EQ(pack.total_bytes, 32u * 100u * 2u);
  EXPECT_EQ(pack.src.contiguous_bytes, 32u);
  EXPECT_FALSE(pack.src.is_write);
  EXPECT_EQ(pack.dst.contiguous_bytes, 0u);
  EXPECT_TRUE(pack.dst.is_write);

  const auto unpack = tempi::unpack_cost(sb, 2, vcuda::MemorySpace::Device,
                                         vcuda::MemorySpace::Device);
  EXPECT_EQ(unpack.dst.contiguous_bytes, 32u);
  EXPECT_TRUE(unpack.dst.is_write);
}

TEST(KernelCostShape, PinnedEndpointGovernsBothSides) {
  StridedBlock sb;
  sb.counts = {16, 8};
  sb.strides = {1, 32};
  const auto cost = tempi::pack_cost(sb, 1, vcuda::MemorySpace::Device,
                                     vcuda::MemorySpace::Pinned);
  EXPECT_EQ(cost.src.space, vcuda::MemorySpace::Pinned);
  EXPECT_EQ(cost.dst.space, vcuda::MemorySpace::Pinned);
}

TEST(KernelCostShape, ContiguousObjectHasNoStridedSide) {
  StridedBlock sb;
  sb.counts = {4096};
  sb.strides = {1};
  const auto cost = tempi::pack_cost(sb, 1, vcuda::MemorySpace::Device,
                                     vcuda::MemorySpace::Device);
  EXPECT_EQ(cost.src.contiguous_bytes, 0u);
  EXPECT_EQ(cost.dst.contiguous_bytes, 0u);
}

TEST(KernelCostShape, TranscodeReadsTheSourceRunsAndWritesTheDestinations) {
  StridedBlock from;
  from.counts = {8, 64};
  from.strides = {1, 16};
  StridedBlock to;
  to.counts = {4, 128};
  to.strides = {1, 12};
  const auto cost = tempi::transcode_cost(from, to, 512,
                                          vcuda::MemorySpace::Device,
                                          vcuda::MemorySpace::Device);
  EXPECT_EQ(cost.total_bytes, 512u);
  EXPECT_EQ(cost.src.contiguous_bytes, 8u);
  EXPECT_FALSE(cost.src.is_write);
  EXPECT_EQ(cost.dst.contiguous_bytes, 4u);
  EXPECT_TRUE(cost.dst.is_write);
}

/// A committed type's canonical layout, as MPI_Type_commit builds it.
struct Layout {
  StridedBlock sb;
  long long extent = 0;
  tempi::PackPlan plan;
};

Layout layout_of(MPI_Datatype t) {
  auto ir = tempi::translate(t, interpose::system_table());
  EXPECT_TRUE(ir.has_value());
  tempi::simplify(*ir);
  const auto sb = tempi::to_strided_block(*ir);
  EXPECT_TRUE(sb.has_value());
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  Layout l{*sb, extent, {}};
  l.plan = tempi::make_pack_plan(l.sb, l.extent);
  return l;
}

/// Which bytes of `count` objects of `t` hold data.
std::vector<bool> covered(MPI_Datatype t, int count, std::size_t span) {
  std::vector<bool> mask(span, false);
  for (int i = 0; i < count; ++i) {
    sysmpi::for_each_block(*t, 0, [&](long long off, long long len) {
      const long long at = static_cast<long long>(i) * t->extent + off;
      std::fill_n(mask.begin() + at, len, true);
    });
  }
  return mask;
}

class TranscodeProperty : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override { sysmpi::ensure_self_context(); }
};

// Random pairs of types, each side at the count that makes the packed
// sizes equal: the transcode writes exactly what unpacking the source's
// pack writes, leaves every gap byte of the destination as it was, and is
// modeled no slower than the pack and the unpack it replaces.
TEST_P(TranscodeProperty, EqualsUnpackOfPackAndNeverCostsMore) {
  Rng rng(GetParam() * 7349 + 3);
  int pairs = 0;
  for (int trial = 0; trial < 40 && pairs < 8; ++trial) {
    MPI_Datatype a = random_strided_type(rng, rng.uniform(1, 4));
    MPI_Datatype b = random_strided_type(rng, rng.uniform(1, 4));
    int size_a = 0, size_b = 0;
    MPI_Type_size(a, &size_a);
    MPI_Type_size(b, &size_b);
    const int packed = size_a > 0 && size_b > 0 ? std::lcm(size_a, size_b) : 0;
    const int na = packed > 0 ? packed / size_a : 0;
    const int nb = packed > 0 ? packed / size_b : 0;
    if (packed == 0 || na > 16 || nb > 16) {
      MPI_Type_free(&a);
      MPI_Type_free(&b);
      continue;
    }
    ++pairs;
    const Layout from = layout_of(a);
    const Layout to = layout_of(b);
    const std::size_t span_a = static_cast<std::size_t>(from.extent) * na + 64;
    const std::size_t span_b = static_cast<std::size_t>(to.extent) * nb + 64;
    SpaceBuffer src(vcuda::MemorySpace::Device, span_a);
    SpaceBuffer staged(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(packed));
    SpaceBuffer expect(vcuda::MemorySpace::Device, span_b);
    SpaceBuffer got(vcuda::MemorySpace::Device, span_b);
    fill_pattern(src.get(), span_a, GetParam() + 17 * trial);
    fill_pattern(expect.get(), span_b, 900 + trial);
    std::memcpy(got.get(), expect.get(), span_b);
    const std::vector<std::byte> poison(got.bytes(), got.bytes() + span_b);

    vcuda::StreamHandle s = vcuda::default_stream();
    ASSERT_EQ(tempi::launch_pack(from.plan, from.sb, from.extent,
                                 staged.get(), src.get(), na, s),
              vcuda::Error::Success);
    ASSERT_EQ(tempi::launch_unpack(to.plan, to.sb, to.extent, expect.get(),
                                   staged.get(), nb, s),
              vcuda::Error::Success);
    const tempi::UnpackItem item{&to.plan,   &to.sb,  to.extent,
                                 got.get(),  src.get(), nb,
                                 &from.plan, &from.sb, from.extent};
    ASSERT_EQ(tempi::launch_unpack_batch({&item, 1}, s),
              vcuda::Error::Success);
    ASSERT_EQ(vcuda::StreamSynchronize(s), vcuda::Error::Success);

    const std::string what = tempi::to_string(*tempi::translate(
                                 a, interpose::system_table())) +
                             " -> " +
                             tempi::to_string(*tempi::translate(
                                 b, interpose::system_table()));
    EXPECT_EQ(std::memcmp(got.get(), expect.get(), span_b), 0) << what;
    const std::vector<bool> data = covered(b, nb, span_b);
    for (std::size_t i = 0; i < span_b; ++i) {
      if (!data[i] && got.bytes()[i] != poison[i]) {
        ADD_FAILURE() << "gap byte " << i << " written: " << what;
        break;
      }
    }

    const auto d = vcuda::MemorySpace::Device;
    const vcuda::CostParams &p = vcuda::cost_params();
    EXPECT_LE(vcuda::kernel_duration(
                  p, tempi::transcode_cost(from.sb, to.sb,
                                           static_cast<std::size_t>(packed),
                                           d, d)),
              vcuda::kernel_duration(p, tempi::pack_cost(from.sb, na, d, d)) +
                  vcuda::kernel_duration(p,
                                         tempi::unpack_cost(to.sb, nb, d, d)))
        << what;
    MPI_Type_free(&a);
    MPI_Type_free(&b);
  }
  EXPECT_GT(pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranscodeProperty, ::testing::Range(1u, 21u));

/// Virtual time from enqueueing `launch` on a fresh stream to the end of
/// its synchronization: the host launch cost plus the modeled device time.
template <class Launch> vcuda::VirtualNs timed_on_fresh_stream(Launch launch) {
  vcuda::StreamHandle s = nullptr;
  EXPECT_EQ(vcuda::StreamCreate(&s), vcuda::Error::Success);
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  EXPECT_EQ(launch(s), vcuda::Error::Success);
  EXPECT_EQ(vcuda::StreamSynchronize(s), vcuda::Error::Success);
  const vcuda::VirtualNs took = vcuda::virtual_now() - t0;
  vcuda::StreamDestroy(s);
  return took;
}

class PackItemProperty : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override { sysmpi::ensure_self_context(); }
};

// A pack segment between an unpack and a transcode of one fused batch
// writes exactly the bytes launch_pack writes alone, into device or mapped
// host memory, and a one-item pack batch is modeled exactly as long as
// launch_pack.
TEST_P(PackItemProperty, PackSegmentEqualsLaunchPackInAMixedBatch) {
  Rng rng(GetParam() * 2246822519u + 5);
  int packs = 0;
  for (int trial = 0; trial < 40 && packs < 6; ++trial) {
    MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 4));
    int size = 0;
    MPI_Type_size(t, &size);
    const Layout l = size > 0 ? layout_of(t) : Layout{};
    if (size == 0 || l.plan.contiguous) {
      MPI_Type_free(&t);
      continue;
    }
    ++packs;
    const int count = rng.uniform(1, 3);
    const std::size_t span = static_cast<std::size_t>(l.extent) * count + 64;
    const auto packed = static_cast<std::size_t>(size) * count;
    const vcuda::MemorySpace wire_space = trial % 2 == 0
                                              ? vcuda::MemorySpace::Device
                                              : vcuda::MemorySpace::Pinned;
    SpaceBuffer src(vcuda::MemorySpace::Device, span);
    SpaceBuffer alone(wire_space, packed);
    SpaceBuffer fused(wire_space, packed);
    SpaceBuffer neighbor_wire(vcuda::MemorySpace::Device, packed);
    SpaceBuffer unpacked(vcuda::MemorySpace::Device, span);
    SpaceBuffer transcoded(vcuda::MemorySpace::Device, span);
    fill_pattern(src.get(), span, GetParam() * 64 + trial);
    fill_pattern(neighbor_wire.get(), packed, 300 + trial);
    fill_pattern(alone.get(), packed, 500 + trial);
    fill_pattern(fused.get(), packed, 700 + trial);

    vcuda::StreamHandle s = vcuda::default_stream();
    ASSERT_EQ(tempi::launch_pack(l.plan, l.sb, l.extent, alone.get(),
                                 src.get(), count, s),
              vcuda::Error::Success);
    tempi::UnpackItem pack{&l.plan, &l.sb, l.extent, fused.get(), src.get(),
                           count};
    pack.pack = true;
    const std::array<tempi::UnpackItem, 3> batch{
        tempi::UnpackItem{&l.plan, &l.sb, l.extent, unpacked.get(),
                          neighbor_wire.get(), count},
        pack,
        tempi::UnpackItem{&l.plan, &l.sb, l.extent, transcoded.get(),
                          src.get(), count, &l.plan, &l.sb, l.extent}};
    ASSERT_EQ(tempi::launch_unpack_batch(batch, s), vcuda::Error::Success);
    ASSERT_EQ(vcuda::StreamSynchronize(s), vcuda::Error::Success);
    const std::string what =
        tempi::to_string(*tempi::translate(t, interpose::system_table()));
    EXPECT_EQ(std::memcmp(fused.get(), alone.get(), packed), 0) << what;

    EXPECT_EQ(timed_on_fresh_stream([&](vcuda::StreamHandle fresh) {
                return tempi::launch_unpack_batch({&pack, 1}, fresh);
              }),
              timed_on_fresh_stream([&](vcuda::StreamHandle fresh) {
                return tempi::launch_pack(l.plan, l.sb, l.extent, fused.get(),
                                          src.get(), count, fresh);
              }))
        << what;
    MPI_Type_free(&t);
  }
  EXPECT_GT(packs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackItemProperty, ::testing::Range(1u, 21u));

} // namespace
