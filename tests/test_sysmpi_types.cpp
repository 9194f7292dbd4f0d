// Datatype object model: constructor geometry (size/lb/extent), flattening,
// and the MPI introspection interface.
#include "sysmpi/mpi.hpp"
#include "sysmpi/types.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

long long type_size(MPI_Datatype t) {
  int s = 0;
  MPI_Type_size(t, &s);
  return s;
}

std::pair<MPI_Aint, MPI_Aint> type_extent(MPI_Datatype t) {
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  return {lb, extent};
}

TEST(NamedTypes, SizesMatchC) {
  EXPECT_EQ(type_size(MPI_BYTE), 1);
  EXPECT_EQ(type_size(MPI_CHAR), 1);
  EXPECT_EQ(type_size(MPI_SHORT), 2);
  EXPECT_EQ(type_size(MPI_INT), 4);
  EXPECT_EQ(type_size(MPI_FLOAT), 4);
  EXPECT_EQ(type_size(MPI_DOUBLE), 8);
  EXPECT_EQ(type_size(MPI_LONG_LONG), 8);
}

TEST(NamedTypes, AreSingletons) {
  EXPECT_EQ(MPI_FLOAT, MPI_FLOAT);
  EXPECT_NE(MPI_FLOAT, MPI_DOUBLE);
}

TEST(Contiguous, GeometryAndBlocks) {
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_contiguous(10, MPI_FLOAT, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 40);
  EXPECT_EQ(type_extent(t).second, 40);
  EXPECT_EQ(sysmpi::block_count(*t), 1u); // merges into one dense run
  EXPECT_TRUE(t->is_contiguous());
  MPI_Type_free(&t);
}

TEST(Vector, GeometryAndBlocks) {
  // 5 blocks of 2 floats, stride 7 floats.
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(5, 2, 7, MPI_FLOAT, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 5 * 2 * 4);
  EXPECT_EQ(type_extent(t).second, (4 * 7 + 2) * 4); // 4 strides + last block
  EXPECT_EQ(sysmpi::block_count(*t), 5u);
  EXPECT_FALSE(t->is_contiguous());
  EXPECT_EQ(t->flat_list().blocks[1].offset, 7 * 4);
  EXPECT_EQ(t->flat_list().blocks[1].length, 8);
  MPI_Type_free(&t);
}

TEST(Vector, UnitStrideIsContiguous) {
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(6, 1, 1, MPI_INT, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(sysmpi::block_count(*t), 1u);
  EXPECT_TRUE(t->is_contiguous());
  MPI_Type_free(&t);
}

TEST(Hvector, StrideInBytes) {
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_hvector(3, 2, 100, MPI_FLOAT, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 24);
  EXPECT_EQ(type_extent(t).second, 2 * 100 + 8);
  ASSERT_EQ(sysmpi::block_count(*t), 3u);
  EXPECT_EQ(t->flat_list().blocks[2].offset, 200);
  MPI_Type_free(&t);
}

TEST(Vector, NegativeStrideSpansFromTheLastBlock) {
  // Blocks start at 0, -20 and -40 bytes: the span runs from the last
  // block's start to the first block's end.
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(3, 2, -5, MPI_INT, &t), MPI_SUCCESS);
  EXPECT_EQ(type_extent(t).first, -40);
  EXPECT_EQ(type_extent(t).second, 48);
  MPI_Type_free(&t);
  ASSERT_EQ(MPI_Type_create_hvector(4, 1, -12, MPI_DOUBLE, &t), MPI_SUCCESS);
  EXPECT_EQ(type_extent(t).first, -36);
  EXPECT_EQ(type_extent(t).second, 44);
  MPI_Type_free(&t);
  ASSERT_EQ(MPI_Type_vector(1, 3, -7, MPI_INT, &t), MPI_SUCCESS);
  EXPECT_EQ(type_extent(t).first, 0); // one block: the stride is unused
  EXPECT_EQ(type_extent(t).second, 12);
  MPI_Type_free(&t);
}

TEST(Indexed, IrregularBlocks) {
  const std::vector<int> blens{2, 1, 3};
  const std::vector<int> displs{0, 5, 10};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_indexed(3, blens.data(), displs.data(), MPI_INT, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 6 * 4);
  EXPECT_EQ(type_extent(t).second, 13 * 4);
  ASSERT_EQ(sysmpi::block_count(*t), 3u);
  EXPECT_EQ(t->flat_list().blocks[1].offset, 20);
  EXPECT_EQ(t->flat_list().blocks[2].length, 12);
  MPI_Type_free(&t);
}

TEST(Hindexed, ByteDisplacements) {
  const std::vector<int> blens{1, 1};
  const std::vector<MPI_Aint> displs{4, 100};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(
      MPI_Type_create_hindexed(2, blens.data(), displs.data(), MPI_DOUBLE, &t),
      MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 16);
  EXPECT_EQ(type_extent(t).first, 4);       // lb is the first block start
  EXPECT_EQ(type_extent(t).second, 104);    // 100+8-4
  MPI_Type_free(&t);
}

TEST(IndexedBlock, UniformBlocks) {
  const std::vector<int> displs{9, 0, 3};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(
      MPI_Type_create_indexed_block(3, 2, displs.data(), MPI_FLOAT, &t),
      MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 24);
  // Traversal follows the given displacement order, not address order.
  EXPECT_EQ(t->flat_list().blocks[0].offset, 36);
  MPI_Type_free(&t);
}

TEST(Subarray, CorderCMakesLastDimFastest) {
  // 2D array 4x6 ints, subarray 2x3 at (1,2), C order: dim 1 contiguous.
  const int sizes[2] = {4, 6}, subsizes[2] = {2, 3}, starts[2] = {1, 2};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_subarray(2, sizes, subsizes, starts, MPI_ORDER_C,
                                     MPI_INT, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 2 * 3 * 4);
  EXPECT_EQ(type_extent(t).second, 4 * 6 * 4); // whole array
  ASSERT_EQ(sysmpi::block_count(*t), 2u);      // one run per row
  EXPECT_EQ(t->flat_list().blocks[0].offset, (1 * 6 + 2) * 4);
  EXPECT_EQ(t->flat_list().blocks[0].length, 3 * 4);
  EXPECT_EQ(t->flat_list().blocks[1].offset, (2 * 6 + 2) * 4);
  MPI_Type_free(&t);
}

TEST(Subarray, OrderFortranMakesFirstDimFastest) {
  const int sizes[2] = {6, 4}, subsizes[2] = {3, 2}, starts[2] = {2, 1};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_subarray(2, sizes, subsizes, starts,
                                     MPI_ORDER_FORTRAN, MPI_INT, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  ASSERT_EQ(sysmpi::block_count(*t), 2u);
  EXPECT_EQ(t->flat_list().blocks[0].offset, (1 * 6 + 2) * 4);
  EXPECT_EQ(t->flat_list().blocks[0].length, 3 * 4);
  MPI_Type_free(&t);
}

TEST(Subarray, RejectsOutOfBounds) {
  const int sizes[1] = {4}, subsizes[1] = {3}, starts[1] = {2};
  MPI_Datatype t = nullptr;
  EXPECT_NE(MPI_Type_create_subarray(1, sizes, subsizes, starts, MPI_ORDER_C,
                                     MPI_INT, &t),
            MPI_SUCCESS);
}

TEST(Struct, MixedTypes) {
  const int blens[2] = {2, 1};
  const MPI_Aint displs[2] = {0, 16};
  const MPI_Datatype types[2] = {MPI_INT, MPI_DOUBLE};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_struct(2, blens, displs, types, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 16);
  EXPECT_EQ(type_extent(t).second, 24);
  EXPECT_EQ(sysmpi::block_count(*t), 2u);
  MPI_Type_free(&t);
}

TEST(Resized, OverridesExtent) {
  MPI_Datatype v = nullptr, r = nullptr;
  ASSERT_EQ(MPI_Type_vector(2, 1, 4, MPI_FLOAT, &v), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_create_resized(v, 0, 64, &r), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&r), MPI_SUCCESS);
  EXPECT_EQ(type_extent(r).second, 64);
  EXPECT_EQ(type_size(r), 8);
  MPI_Type_free(&r);
  MPI_Type_free(&v);
}

TEST(Dup, SharesGeometry) {
  MPI_Datatype v = nullptr, d = nullptr;
  ASSERT_EQ(MPI_Type_vector(2, 3, 5, MPI_INT, &v), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&v), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_dup(v, &d), MPI_SUCCESS);
  EXPECT_EQ(type_size(d), type_size(v));
  EXPECT_EQ(type_extent(d), type_extent(v));
  MPI_Type_free(&d);
  MPI_Type_free(&v);
}

TEST(NestedTypes, ChildCanBeFreedEarly) {
  // MPI allows freeing a constituent type while the derived type lives on.
  MPI_Datatype row = nullptr, plane = nullptr;
  ASSERT_EQ(MPI_Type_contiguous(8, MPI_FLOAT, &row), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_create_hvector(4, 1, 64, row, &plane), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_free(&row), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&plane), MPI_SUCCESS);
  EXPECT_EQ(type_size(plane), 4 * 32);
  EXPECT_EQ(sysmpi::block_count(*plane), 4u);
  MPI_Type_free(&plane);
}

TEST(Envelope, ReportsCombinerAndCounts) {
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(5, 2, 7, MPI_FLOAT, &t), MPI_SUCCESS);
  int ni = 0, na = 0, nd = 0, combiner = 0;
  ASSERT_EQ(MPI_Type_get_envelope(t, &ni, &na, &nd, &combiner), MPI_SUCCESS);
  EXPECT_EQ(combiner, MPI_COMBINER_VECTOR);
  EXPECT_EQ(ni, 3);
  EXPECT_EQ(na, 0);
  EXPECT_EQ(nd, 1);
  MPI_Type_free(&t);
}

TEST(Envelope, NamedTypeHasNoContents) {
  int ni = 0, na = 0, nd = 0, combiner = 0;
  ASSERT_EQ(MPI_Type_get_envelope(MPI_INT, &ni, &na, &nd, &combiner),
            MPI_SUCCESS);
  EXPECT_EQ(combiner, MPI_COMBINER_NAMED);
  int dummy = 0;
  EXPECT_NE(MPI_Type_get_contents(MPI_INT, 1, 1, 1, &dummy, nullptr, nullptr),
            MPI_SUCCESS);
}

TEST(Contents, RoundtripsConstructorArguments) {
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_vector(5, 2, 7, MPI_FLOAT, &t), MPI_SUCCESS);
  int ints[3] = {};
  MPI_Datatype sub = nullptr;
  ASSERT_EQ(MPI_Type_get_contents(t, 3, 0, 1, ints, nullptr, &sub),
            MPI_SUCCESS);
  EXPECT_EQ(ints[0], 5);
  EXPECT_EQ(ints[1], 2);
  EXPECT_EQ(ints[2], 7);
  EXPECT_EQ(sub, MPI_FLOAT);
  MPI_Type_free(&t);
}

TEST(Contents, SubarrayLayout) {
  const int sizes[3] = {8, 9, 10}, subsizes[3] = {2, 3, 4},
            starts[3] = {1, 2, 3};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C,
                                     MPI_DOUBLE, &t),
            MPI_SUCCESS);
  int ni = 0, na = 0, nd = 0, combiner = 0;
  MPI_Type_get_envelope(t, &ni, &na, &nd, &combiner);
  EXPECT_EQ(combiner, MPI_COMBINER_SUBARRAY);
  ASSERT_EQ(ni, 11); // ndims + 3*ndims + order
  std::vector<int> ints(static_cast<std::size_t>(ni));
  MPI_Datatype sub = nullptr;
  ASSERT_EQ(MPI_Type_get_contents(t, ni, 0, 1, ints.data(), nullptr, &sub),
            MPI_SUCCESS);
  EXPECT_EQ(ints[0], 3);
  EXPECT_EQ(ints[4], 2); // subsizes start after sizes
  EXPECT_EQ(ints[10], MPI_ORDER_C);
  MPI_Type_free(&t);
}

TEST(BlockMerging, AdjacentRunsCoalesce) {
  // Two blocks that happen to touch end-to-start merge at commit.
  const std::vector<int> blens{2, 2};
  const std::vector<int> displs{0, 2};
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_indexed(2, blens.data(), displs.data(), MPI_INT, &t),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(sysmpi::block_count(*t), 1u);
  EXPECT_EQ(t->flat_list().blocks[0].length, 16);
  MPI_Type_free(&t);
}

TEST(ZeroCount, EmptyTypesAreLegal) {
  MPI_Datatype t = nullptr;
  ASSERT_EQ(MPI_Type_contiguous(0, MPI_INT, &t), MPI_SUCCESS);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(type_size(t), 0);
  EXPECT_EQ(sysmpi::block_count(*t), 0u);
  MPI_Type_free(&t);
}

} // namespace
