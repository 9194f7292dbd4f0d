// Error paths and misuse handling across the API surface: invalid
// arguments are diagnosed, not crashed on, and failed calls leave state
// intact (failure-injection counterpart to the happy-path suites).
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

namespace {

using testing_helpers::SpaceBuffer;

class ApiErrors : public ::testing::Test {
protected:
  void SetUp() override { sysmpi::ensure_self_context(); }
};

TEST_F(ApiErrors, TypeConstructorsRejectNulls) {
  EXPECT_EQ(MPI_Type_contiguous(4, MPI_INT, nullptr), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Type_contiguous(-1, MPI_INT, nullptr), MPI_ERR_ARG);
  MPI_Datatype t = nullptr;
  EXPECT_EQ(MPI_Type_vector(-2, 1, 1, MPI_INT, &t), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Type_contiguous(4, MPI_DATATYPE_NULL, &t), MPI_ERR_ARG);
}

TEST_F(ApiErrors, CommitNullRejected) {
  MPI_Datatype null_type = MPI_DATATYPE_NULL;
  EXPECT_EQ(MPI_Type_commit(&null_type), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Type_commit(nullptr), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Type_free(nullptr), MPI_ERR_ARG);
}

TEST_F(ApiErrors, SendToInvalidRankRejected) {
  const int v = 1;
  EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 99, 0, MPI_COMM_WORLD), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Send(&v, -1, MPI_INT, 0, 0, MPI_COMM_WORLD), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_NULL), MPI_ERR_ARG);
}

TEST_F(ApiErrors, GetCountNeedsArguments) {
  MPI_Status status;
  int count = 0;
  EXPECT_EQ(MPI_Get_count(nullptr, MPI_INT, &count), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Get_count(&status, MPI_INT, nullptr), MPI_ERR_ARG);
}

TEST_F(ApiErrors, EnvelopeRejectsNulls) {
  int a = 0, b = 0, c = 0;
  EXPECT_EQ(MPI_Type_get_envelope(MPI_INT, &a, &b, &c, nullptr), MPI_ERR_ARG);
  EXPECT_EQ(MPI_Type_get_envelope(MPI_DATATYPE_NULL, &a, &b, &c, &a),
            MPI_ERR_ARG);
}

TEST_F(ApiErrors, ContentsOnNamedTypeRejected) {
  int ints[4];
  EXPECT_EQ(MPI_Type_get_contents(MPI_FLOAT, 4, 0, 0, ints, nullptr, nullptr),
            MPI_ERR_TYPE);
}

TEST_F(ApiErrors, ContentsWithSmallArraysRejected) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(2, 3, 4, MPI_INT, &t);
  int one_int = 0;
  MPI_Datatype sub = nullptr;
  EXPECT_EQ(MPI_Type_get_contents(t, 1, 0, 1, &one_int, nullptr, &sub),
            MPI_ERR_ARG);
  MPI_Type_free(&t);
}

TEST_F(ApiErrors, UnpackBeyondInputRejected) {
  MPI_Datatype t = nullptr;
  MPI_Type_contiguous(8, MPI_INT, &t);
  MPI_Type_commit(&t);
  std::byte in[16];
  int out[8];
  int position = 0;
  EXPECT_EQ(MPI_Unpack(in, 16, &position, out, 1, t, MPI_COMM_WORLD),
            MPI_ERR_TRUNCATE);
  EXPECT_EQ(position, 0); // unchanged on failure
  MPI_Type_free(&t);
}

TEST_F(ApiErrors, PackSizeRejectsNegativeCount) {
  int size = 0;
  EXPECT_EQ(MPI_Pack_size(-1, MPI_INT, MPI_COMM_WORLD, &size), MPI_ERR_ARG);
}

TEST_F(ApiErrors, TempiPackOverflowRejectedWithInterposer) {
  tempi::ScopedInterposer guard;
  MPI_Datatype t = nullptr;
  MPI_Type_vector(64, 4, 8, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 8);
  SpaceBuffer out(vcuda::MemorySpace::Device, 64 * 4);
  int position = 0;
  // Out buffer declared smaller than one element.
  EXPECT_EQ(MPI_Pack(src.get(), 1, t, out.get(), 100, &position,
                     MPI_COMM_WORLD),
            MPI_ERR_TRUNCATE);
  EXPECT_EQ(position, 0);
  MPI_Type_free(&t);
}

TEST_F(ApiErrors, BlocklistPackNullPositionIsAnArgumentError) {
  // The Sec. 8 blocklist path reports a null position as the system and
  // canonical paths do: MPI_ERR_ARG, not a truncation.
  tempi::ScopedInterposer guard;
  tempi::set_blocklist_fallback(true);
  const int blens[2] = {1, 2};
  const int displs[2] = {0, 7};
  MPI_Datatype t = nullptr;
  MPI_Type_indexed(2, blens, displs, MPI_INT, &t);
  MPI_Type_commit(&t);
  ASSERT_NE(tempi::find_blocklist_packer(t), nullptr);
  SpaceBuffer obj(vcuda::MemorySpace::Device, 9 * 4);
  SpaceBuffer flat(vcuda::MemorySpace::Device, 3 * 4);
  EXPECT_EQ(MPI_Pack(obj.get(), 1, t, flat.get(), 3 * 4, nullptr,
                     MPI_COMM_WORLD),
            MPI_ERR_ARG);
  EXPECT_EQ(MPI_Unpack(flat.get(), 3 * 4, nullptr, obj.get(), 1, t,
                       MPI_COMM_WORLD),
            MPI_ERR_ARG);
  // A short buffer is still a truncation.
  int position = 0;
  EXPECT_EQ(MPI_Pack(obj.get(), 1, t, flat.get(), 3 * 4 - 1, &position,
                     MPI_COMM_WORLD),
            MPI_ERR_TRUNCATE);
  EXPECT_EQ(position, 0);
  tempi::set_blocklist_fallback(false);
  MPI_Type_free(&t);
}

TEST_F(ApiErrors, TempiRecvTruncationPropagates) {
  tempi::ScopedInterposer guard;
  for (const tempi::SendMode mode :
       {tempi::SendMode::ForceOneShot, tempi::SendMode::ForceDevice,
        tempi::SendMode::ForceStaged}) {
    tempi::set_send_mode(mode);
    const std::size_t leased = tempi::buffer_cache_stats().leased_now;
    sysmpi::RunConfig cfg;
    cfg.ranks = 2;
    sysmpi::run_ranks(cfg, [](int rank) {
      MPI_Init(nullptr, nullptr);
      MPI_Datatype big = nullptr, small = nullptr;
      MPI_Type_vector(64, 4, 8, MPI_BYTE, &big);
      MPI_Type_vector(16, 4, 8, MPI_BYTE, &small);
      MPI_Type_commit(&big);
      MPI_Type_commit(&small);
      SpaceBuffer buf(vcuda::MemorySpace::Device, 64 * 8);
      if (rank == 0) {
        MPI_Send(buf.get(), 1, big, 1, 0, MPI_COMM_WORLD);
      } else {
        // Receiving a 256-byte payload into a 64-byte datatype fails.
        EXPECT_EQ(MPI_Recv(buf.get(), 1, small, 0, 0, MPI_COMM_WORLD,
                           MPI_STATUS_IGNORE),
                  MPI_ERR_TRUNCATE);
      }
      MPI_Type_free(&big);
      MPI_Type_free(&small);
      MPI_Finalize();
    });
    // The failed receive returned its leases to the cache.
    EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased)
        << "mode " << static_cast<int>(mode);
  }
  tempi::set_send_mode(tempi::SendMode::Auto);
}

TEST_F(ApiErrors, WaitNullRequestIsNoop) {
  MPI_Request req = MPI_REQUEST_NULL;
  EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(MPI_Waitall(0, nullptr, MPI_STATUSES_IGNORE), MPI_SUCCESS);
}

TEST_F(ApiErrors, SubarrayValidation) {
  MPI_Datatype t = nullptr;
  const int sizes[2] = {4, 4}, subsizes[2] = {5, 1}, starts[2] = {0, 0};
  EXPECT_EQ(MPI_Type_create_subarray(2, sizes, subsizes, starts, MPI_ORDER_C,
                                     MPI_INT, &t),
            MPI_ERR_ARG); // subsize > size
  const int neg_starts[2] = {-1, 0};
  const int ok_sub[2] = {2, 2};
  EXPECT_EQ(MPI_Type_create_subarray(2, sizes, ok_sub, neg_starts,
                                     MPI_ORDER_C, MPI_INT, &t),
            MPI_ERR_ARG);
  EXPECT_EQ(MPI_Type_create_subarray(2, sizes, ok_sub, starts, 12345,
                                     MPI_INT, &t),
            MPI_ERR_ARG); // bad order constant
}

TEST_F(ApiErrors, AllreduceRejectsDerivedTypes) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  sysmpi::run_ranks(cfg, [](int) {
    MPI_Datatype t = nullptr;
    MPI_Type_contiguous(2, MPI_INT, &t);
    MPI_Type_commit(&t);
    int a[2] = {1, 2}, b[2] = {0, 0};
    EXPECT_EQ(MPI_Allreduce(a, b, 1, t, MPI_SUM, MPI_COMM_WORLD),
              MPI_ERR_ARG);
    MPI_Type_free(&t);
  });
}

} // namespace
