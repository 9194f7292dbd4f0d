// Property tests over randomly generated datatype trees.
//
// Generator (random_types.hpp): random nestings of contiguous / vector /
// hvector / subarray over random named types. Properties:
//   P1  TEMPI translation succeeds and canonicalization reaches a fixed
//       point (idempotent).
//   P2  The canonical StridedBlock describes exactly the type's data:
//       size() == MPI_Type_size.
//   P3  TEMPI pack output == scalar reference pack (traversal order equals
//       sorted order for these nest-outward generators).
//   P4  TEMPI unpack(pack(x)) restores every byte the type covers.
//   P5  Baseline MPI_Pack agrees with the reference on host and device.
//   P6  Randomly chosen *equivalent pairs* (same object, different
//       construction) canonicalize to identical IR.
#include "interpose/table.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/canonicalize.hpp"
#include "tempi/packer.hpp"
#include "tempi/translate.hpp"
#include "random_types.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace {

using testing_helpers::fill_pattern;
using testing_helpers::random_strided_type;
using testing_helpers::reference_pack;
using testing_helpers::Rng;
using testing_helpers::SpaceBuffer;

class RandomTypeProperty : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override { sysmpi::ensure_self_context(); }
};

TEST_P(RandomTypeProperty, CanonicalizationIsIdempotent) {
  Rng rng(GetParam());
  MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 4));
  auto ir = tempi::translate(t, interpose::system_table());
  ASSERT_TRUE(ir.has_value());
  tempi::simplify(*ir);
  tempi::Type again = *ir;
  tempi::simplify(again);
  EXPECT_EQ(again, *ir) << tempi::to_string(*ir);
  MPI_Type_free(&t);
}

TEST_P(RandomTypeProperty, StridedBlockSizeMatchesTypeSize) {
  Rng rng(GetParam() * 7919 + 13);
  MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 4));
  auto ir = tempi::translate(t, interpose::system_table());
  ASSERT_TRUE(ir.has_value());
  tempi::simplify(*ir);
  const auto sb = tempi::to_strided_block(*ir);
  ASSERT_TRUE(sb.has_value()) << tempi::to_string(*ir);
  int size = 0;
  MPI_Type_size(t, &size);
  EXPECT_EQ(sb->size(), size) << tempi::to_string(*ir);
  MPI_Type_free(&t);
}

TEST_P(RandomTypeProperty, TempiPackMatchesReferenceAndRoundtrips) {
  Rng rng(GetParam() * 104729 + 7);
  MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 4));
  auto ir = tempi::translate(t, interpose::system_table());
  ASSERT_TRUE(ir.has_value());
  tempi::simplify(*ir);
  const auto sb = tempi::to_strided_block(*ir);
  ASSERT_TRUE(sb.has_value());
  MPI_Aint lb = 0, extent = 0;
  int size = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  MPI_Type_size(t, &size);
  if (size == 0) {
    MPI_Type_free(&t);
    return;
  }
  const tempi::Packer packer(*sb, extent, size);

  const int count = rng.uniform(1, 3);
  const std::size_t span = static_cast<std::size_t>(extent) * count + 64;
  SpaceBuffer src(vcuda::MemorySpace::Device, span);
  SpaceBuffer back(vcuda::MemorySpace::Device, span);
  fill_pattern(src.get(), span, GetParam());
  std::memset(back.get(), 0, span);

  const auto expect = reference_pack(src.get(), count, *t);
  SpaceBuffer packed(vcuda::MemorySpace::Device, packer.packed_bytes(count));
  ASSERT_EQ(packer.pack(packed.get(), src.get(), count,
                        vcuda::default_stream()),
            vcuda::Error::Success);
  ASSERT_EQ(std::memcmp(packed.get(), expect.data(), expect.size()), 0)
      << tempi::to_string(*ir);

  ASSERT_EQ(packer.unpack(back.get(), packed.get(), count,
                          vcuda::default_stream()),
            vcuda::Error::Success);
  EXPECT_EQ(reference_pack(back.get(), count, *t), expect);
  MPI_Type_free(&t);
}

TEST_P(RandomTypeProperty, BaselinePackMatchesReference) {
  Rng rng(GetParam() * 31337 + 3);
  MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 3));
  MPI_Aint lb = 0, extent = 0;
  int size = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  MPI_Type_size(t, &size);
  if (size == 0) {
    MPI_Type_free(&t);
    return;
  }
  const auto space = rng.chance(0.5) ? vcuda::MemorySpace::Device
                                     : vcuda::MemorySpace::Pageable;
  SpaceBuffer src(space, static_cast<std::size_t>(extent) + 64);
  fill_pattern(src.get(), src.size(), GetParam() + 99);
  const auto expect = reference_pack(src.get(), 1, *t);
  SpaceBuffer out(space, expect.size());
  int position = 0;
  ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(),
                     static_cast<int>(expect.size()), &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(std::memcmp(out.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST_P(RandomTypeProperty, EquivalentConstructionsShareCanonicalForm) {
  // Build a random 2-D object, then describe it three ways: vector of
  // named, hvector of a contiguous row, and 2-D subarray. All must
  // canonicalize identically.
  Rng rng(GetParam() * 65537 + 1);
  const int elem = 4; // floats
  const int rowlen = rng.uniform(1, 64);                 // elements
  const int nrows = rng.uniform(1, 32);
  const int pitch_elems = rowlen + rng.uniform(1, 16);   // gapped rows

  MPI_Datatype as_vector = nullptr;
  MPI_Type_vector(nrows, rowlen, pitch_elems, MPI_FLOAT, &as_vector);

  MPI_Datatype row = nullptr, as_hvector = nullptr;
  MPI_Type_contiguous(rowlen, MPI_FLOAT, &row);
  MPI_Type_create_hvector(nrows, 1, static_cast<MPI_Aint>(pitch_elems) * elem,
                          row, &as_hvector);

  const int sizes[2] = {nrows, pitch_elems};
  const int subsizes[2] = {nrows, rowlen};
  const int starts[2] = {0, 0};
  MPI_Datatype as_subarray = nullptr;
  MPI_Type_create_subarray(2, sizes, subsizes, starts, MPI_ORDER_C,
                           MPI_FLOAT, &as_subarray);

  const auto canon = [](MPI_Datatype t) {
    auto ir = tempi::translate(t, interpose::system_table());
    EXPECT_TRUE(ir.has_value());
    tempi::simplify(*ir);
    return *ir;
  };
  const tempi::Type a = canon(as_vector);
  const tempi::Type b = canon(as_hvector);
  const tempi::Type c = canon(as_subarray);
  EXPECT_EQ(a, b) << tempi::to_string(a) << " vs " << tempi::to_string(b);
  EXPECT_EQ(a, c) << tempi::to_string(a) << " vs " << tempi::to_string(c);

  MPI_Type_free(&as_subarray);
  MPI_Type_free(&as_hvector);
  MPI_Type_free(&row);
  MPI_Type_free(&as_vector);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTypeProperty,
                         ::testing::Range(1u, 41u));

} // namespace
