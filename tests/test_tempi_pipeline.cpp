// The Pipelined (chunked) method: correctness of multi-leg wire
// transfers, the injectable wire-chunk limit that lets tiny messages
// exercise the >limit multi-leg path, the regression that oversized sends
// now succeed instead of returning MPI_ERR_COUNT, TEMPI_CHUNK_BYTES-style
// chunk overrides, the tempi.pipeline.* counters, a receiver whose blocks
// do not divide the sender's legs, the request-engine integration (Wait-
// and Test-driven chunk progress), and the Sendrecv decomposition.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/methods.hpp"
#include "tempi/tempi.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::fill_pattern;
using testing_helpers::reference_pack;
using testing_helpers::SpaceBuffer;

void run2(const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, body);
}

/// RAII guard: shrink the wire-chunk limit (and optionally force a chunk
/// size) for one test, restoring the defaults afterwards.
class PipelineConfigGuard {
public:
  explicit PipelineConfigGuard(std::size_t limit, std::size_t override = 0) {
    previous_limit_ = tempi::set_wire_chunk_limit(limit);
    tempi::set_chunk_bytes_override(override);
  }
  ~PipelineConfigGuard() {
    tempi::set_wire_chunk_limit(previous_limit_);
    tempi::set_chunk_bytes_override(0);
  }

private:
  std::size_t previous_limit_ = tempi::kMaxWireBytes;
};

class TempiPipeline : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    // The exact memo/leg-count assertions here require a quiescent model:
    // with the tuner armed, per-leg observations from a cold send would
    // (correctly) refresh the tables and invalidate the memo mid-test.
    tempi::tune::set_enabled(false);
  }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::tune::set_enabled(true);
    tempi::tune::reset();
    tempi::uninstall();
  }
};

/// One strided exchange rank0 -> rank1 plus an MPI_BYTE cross-check of
/// the raw allocation, returning the send return code observed on rank 0.
void exchange_and_check(int vcount, int blocklen, int stride) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(vcount, blocklen, stride, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 23);
      ASSERT_EQ(MPI_Send(buf.get(), 1, t, 1, 7, MPI_COMM_WORLD),
                MPI_SUCCESS);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 8,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Status status;
      ASSERT_EQ(MPI_Recv(buf.get(), 1, t, 0, 7, MPI_COMM_WORLD, &status),
                MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 7);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 8,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPipeline, ForcedPipelinedDeliversCorrectBytes) {
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  tempi::trace::reset_counters();
  exchange_and_check(256, 16, 48);
  EXPECT_EQ(counter("tempi.send.pipelined"), 1u);
  // At least the data leg plus the terminator on the send side, and the
  // receiver's legs on top.
  EXPECT_GE(counter("tempi.pipeline.chunks"), 4u);
}

TEST_F(TempiPipeline, TinyInjectedLimitSplitsIntoManyLegs) {
  // A 64 KiB wire ceiling on a ~48 KiB-per-leg budget: a 192 KiB packed
  // message must cross the wire as multiple ordered legs.
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  tempi::trace::reset_counters();
  exchange_and_check(3 * 1024, 16, 48); // 3K blocks x 64 B = 192 KiB packed
  // 192 KiB over <= 64 KiB legs: at least 3 sender data legs + terminator.
  // Sender legs + receiver legs.
  EXPECT_GE(counter("tempi.pipeline.chunks"), 8u);
}

TEST_F(TempiPipeline, OversizedSendSucceedsInsteadOfErrCount) {
  // The regression the wire-chunk limit injection exists for: a packed
  // message larger than the (injected) single-leg ceiling used to fail
  // with MPI_ERR_COUNT; it must now be carried as multiple ordered legs —
  // in Auto mode, without any forced method.
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::Auto);
  tempi::trace::reset_counters();
  exchange_and_check(4 * 1024, 32, 96); // 512 KiB packed > 64 KiB limit
  EXPECT_EQ(counter("tempi.send.pipelined"), 1u);
  EXPECT_EQ(counter("tempi.send.oneshot") + counter("tempi.send.device") +
                counter("tempi.send.staged"),
            0u);
  EXPECT_GE(counter("tempi.pipeline.over_ceiling_bytes"), 512u * 1024u);
}

TEST_F(TempiPipeline, ForcedMonolithicUpgradesAboveTheLimit) {
  // ForceDevice above the wire limit cannot be honored by one leg; the
  // gate upgrades it to Pipelined instead of returning MPI_ERR_COUNT.
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  tempi::trace::reset_counters();
  exchange_and_check(4 * 1024, 32, 96); // 512 KiB packed
  EXPECT_EQ(counter("tempi.send.pipelined"), 1u);
  EXPECT_EQ(counter("tempi.send.device"), 0u);
}

TEST_F(TempiPipeline, SingleUnsplittableBlockStillFailsLoudly) {
  // Chunks split at contiguous-block boundaries; one block bigger than
  // the wire limit keeps the historical MPI_ERR_COUNT.
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    if (rank == 0) {
      MPI_Datatype t = nullptr;
      // Two 128 KiB contiguous blocks: block_bytes > the 64 KiB limit.
      MPI_Type_vector(2, 32 * 1024, 40 * 1024, MPI_FLOAT, &t);
      MPI_Type_commit(&t);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      SpaceBuffer buf(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 64);
      EXPECT_EQ(MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD),
                MPI_ERR_COUNT);
      MPI_Type_free(&t);
    }
    MPI_Finalize();
  });
}

TEST_F(TempiPipeline, ChunkOverrideControlsLegCount) {
  // The TEMPI_CHUNK_BYTES mechanism (set_chunk_bytes_override is the
  // programmatic face the env var is parsed into): a 16 KiB chunk on a
  // 96 KiB message makes 6 full sender legs plus the terminator.
  PipelineConfigGuard guard(/*limit=*/tempi::kMaxWireBytes,
                            /*override=*/16 * 1024);
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  tempi::trace::reset_counters();
  exchange_and_check(1536, 16, 48); // 96 KiB packed, 64 B objects
  // 96 KiB / 16 KiB = 6 data legs + 1 empty terminator, on each side.
  EXPECT_EQ(counter("tempi.pipeline.chunks"), 14u);
}

/// Rank 0 sends one vector of `send_rows` 24 B rows, rank 1 receives one
/// vector of `recv_rows` 16 B rows (legs of whole sender rows are not
/// whole receiver rows). Returns the receive's return code and the
/// receiver's packed object.
std::pair<int, std::vector<std::byte>> mismatched_rows_exchange(
    int send_rows, int recv_rows) {
  std::pair<int, std::vector<std::byte>> got{MPI_ERR_OTHER, {}};
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    if (rank == 0) {
      MPI_Type_vector(send_rows, 6, 10, MPI_FLOAT, &t);
    } else {
      MPI_Type_vector(recv_rows, 4, 7, MPI_FLOAT, &t);
    }
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 29);
      EXPECT_EQ(MPI_Send(buf.get(), 1, t, 1, 4, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
      std::memset(buf.get(), 0, buf.size());
      got.first =
          MPI_Recv(buf.get(), 1, t, 0, 4, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      got.second = reference_pack(buf.get(), 1, *t);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  return got;
}

TEST_F(TempiPipeline, MismatchedBlockSizesAccumulateAndUnpackOnce) {
  // 120 B legs (5 sender rows) are not whole 16 B receiver rows, so the
  // receiver lands the legs in one buffer and unpacks it once at the end.
  PipelineConfigGuard guard(/*limit=*/1024, /*override=*/120);
  for (const auto &[send_rows, recv_rows, legs] : {
           // 1152 B: 9 full legs + a 72 B remainder leg.
           std::tuple<int, int, std::uint64_t>{48, 72, 10},
           // 1200 B: 10 full legs + the empty terminator.
           {50, 75, 11},
       }) {
    tempi::set_send_mode(tempi::SendMode::ForcePipelined);
    tempi::trace::reset_counters();
    const auto [rc, bytes] = mismatched_rows_exchange(send_rows, recv_rows);
    EXPECT_EQ(rc, MPI_SUCCESS) << send_rows << " rows";
    EXPECT_EQ(counter("tempi.pipeline.chunks"), 2 * legs)
        << send_rows << " rows";
    tempi::set_send_mode(tempi::SendMode::System);
    const auto sys = mismatched_rows_exchange(send_rows, recv_rows);
    ASSERT_EQ(sys.first, MPI_SUCCESS);
    EXPECT_EQ(bytes, sys.second) << send_rows << " rows";
  }
  // A sender shipping 1200 B into a 1152 B receive: the tenth leg
  // overruns the remaining 72 B, which the system MPI reports.
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  EXPECT_EQ(mismatched_rows_exchange(50, 72).first, MPI_ERR_TRUNCATE);
}

TEST_F(TempiPipeline, SteadyStatePipelinedSendsHitTheMethodMemo) {
  // Acceptance: pipelined selection must ride PR 2's memoization — after
  // the first send, Auto-mode selection is one atomic load (no model
  // lock), observable as method_memo_hits.
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::Auto);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(4 * 1024, 8, 24, MPI_FLOAT, &t); // 128 KiB > limit
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 3);
      MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD); // cold: model miss
      tempi::trace::reset_counters();
      MPI_Send(buf.get(), 1, t, 1, 1, MPI_COMM_WORLD); // warm: memo hit
      EXPECT_EQ(counter("tempi.send.pipelined"), 1u);
      EXPECT_GE(counter("tempi.model.memo_hits"), 1u);
      EXPECT_EQ(counter("tempi.model.cache_misses"), 0u);
    } else {
      MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Recv(buf.get(), 1, t, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPipeline, NonBlockingPipelinedWaitCompletes) {
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  tempi::trace::reset_counters();
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(3 * 1024, 16, 48, MPI_FLOAT, &t); // 192 KiB packed
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 31);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 5, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 6,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 5, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      MPI_Status status;
      ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 5);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 6,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.isend.pipelined"), 1u);
}

TEST_F(TempiPipeline, TestDrivesChunkProgressIncrementally) {
  // MPI_Test on a pipelined receive consumes the legs that have already
  // arrived and only reports completion after the terminating short leg.
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(3 * 1024, 16, 48, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 1) {
      std::memset(buf.get(), 0, buf.size());
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 9, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // Nothing sent yet: Test must not complete (and must not block).
      int flag = 1;
      ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 10, MPI_COMM_WORLD);
      // Poll to completion: legs arrive as the sender progresses.
      while (flag == 0) {
        ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
      }
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 11,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    } else {
      fill_pattern(buf.get(), buf.size(), 47);
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 10, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(buf.get(), 1, t, 1, 9, MPI_COMM_WORLD);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 11,
               MPI_COMM_WORLD);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPipeline, SendrecvOverlapsBothDirections) {
  // The Sendrecv decomposition: Isend + Irecv + Waitall, both directions
  // accelerated (and pipelined when over the injected limit).
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  tempi::set_send_mode(tempi::SendMode::Auto);
  tempi::trace::reset_counters();
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(4 * 1024, 32, 96, MPI_FLOAT, &t); // 512 KiB packed
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer out(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    SpaceBuffer in(vcuda::MemorySpace::Device,
                   static_cast<std::size_t>(extent) + 64);
    fill_pattern(out.get(), out.size(),
                 static_cast<std::uint32_t>(100 + rank));
    std::memset(in.get(), 0, in.size());
    MPI_Status status;
    ASSERT_EQ(MPI_Sendrecv(out.get(), 1, t, 1 - rank, 60 + rank, in.get(), 1,
                           t, 1 - rank, 60 + (1 - rank), MPI_COMM_WORLD,
                           &status),
              MPI_SUCCESS);
    EXPECT_EQ(status.MPI_SOURCE, 1 - rank);
    // Cross-check the received strided bytes against the peer's pattern.
    SpaceBuffer expect(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) + 64);
    fill_pattern(expect.get(), expect.size(),
                 static_cast<std::uint32_t>(100 + (1 - rank)));
    EXPECT_EQ(reference_pack(in.get(), 1, *t),
              reference_pack(expect.get(), 1, *t));
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  // Both ranks' send halves went through the request engine as pipelined
  // non-blocking sends (512 KiB > the injected 64 KiB ceiling).
  EXPECT_EQ(counter("tempi.isend.pipelined"), 2u);
  EXPECT_EQ(counter("tempi.send.oneshot") + counter("tempi.send.device") +
                counter("tempi.send.staged") +
                counter("tempi.send.pipelined"),
            0u);
}

TEST_F(TempiPipeline, RangedPackMatchesSliceOfFullPack) {
  // The plan-driven ranged launches underneath the chunk legs: packing
  // global blocks [first, first+n) — including ranges that start and end
  // mid-object — must equal the same slice of a full pack.
  sysmpi::ensure_self_context();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(8, 4, 12, MPI_INT, &t); // 8 blocks/object, 16 B blocks
  MPI_Type_commit(&t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  const auto packer = tempi::find_packer(t);
  ASSERT_NE(packer, nullptr);
  constexpr int kCount = 3;
  const auto blk = static_cast<std::size_t>(packer->wire_block_bytes());
  ASSERT_EQ(blk, 16u);
  const long long nblocks = packer->total_blocks(kCount);
  ASSERT_EQ(nblocks, 24);
  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) * kCount + 64);
  fill_pattern(src.get(), src.size(), 77);
  SpaceBuffer full(vcuda::MemorySpace::Device, blk * nblocks);
  ASSERT_EQ(packer->pack(full.get(), src.get(), kCount,
                         vcuda::default_stream()),
            vcuda::Error::Success);
  for (const auto &[first, n] :
       {std::pair<long long, long long>{0, 5}, {5, 9}, {14, 10}, {0, 24}}) {
    SpaceBuffer chunk(vcuda::MemorySpace::Device, blk * n);
    ASSERT_EQ(packer->pack_range_async(chunk.get(), src.get(), first, n,
                                       vcuda::default_stream()),
              vcuda::Error::Success);
    vcuda::StreamSynchronize(vcuda::default_stream());
    EXPECT_EQ(std::memcmp(chunk.get(), full.bytes() + first * blk, blk * n),
              0)
        << "blocks [" << first << ", " << first + n << ")";
    // And the inverse: unpacking the chunk back lands the same blocks.
    SpaceBuffer back(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) * kCount + 64);
    std::memset(back.get(), 0, back.size());
    ASSERT_EQ(packer->unpack_range_async(back.get(), chunk.get(), first, n,
                                         vcuda::default_stream()),
              vcuda::Error::Success);
    vcuda::StreamSynchronize(vcuda::default_stream());
    SpaceBuffer rechunk(vcuda::MemorySpace::Device, blk * n);
    ASSERT_EQ(packer->pack_range_async(rechunk.get(), back.get(), first, n,
                                       vcuda::default_stream()),
              vcuda::Error::Success);
    vcuda::StreamSynchronize(vcuda::default_stream());
    EXPECT_EQ(std::memcmp(rechunk.get(), chunk.get(), blk * n), 0);
  }
  MPI_Type_free(&t);
}

TEST_F(TempiPipeline, PipelinedEstimateBeatsMonolithicForHugeMessages) {
  // Model-level acceptance: for large *fragmented* messages — small
  // contiguous blocks, where pack/unpack bandwidth is comparable to the
  // wire so overlap has something to hide — the pipelined estimate with
  // the model-chosen chunk must beat every monolithic method by >= 1.3x
  // (the bench sweeps the whole block spectrum; here we pin the
  // 64 MiB / 8 B-block point).
  const tempi::PerfModel model;
  const double block = 8;
  const double total = 64.0 * 1024 * 1024;
  const auto pipe = model.best_pipelined(block, total);
  EXPECT_GT(pipe.chunk_bytes, 0u);
  double best_mono = 1e300;
  for (const tempi::Method m :
       {tempi::Method::OneShot, tempi::Method::Device,
        tempi::Method::Staged}) {
    best_mono = std::min(best_mono, model.estimate_us(m, block, total));
  }
  EXPECT_GE(best_mono / pipe.us, 1.3);
  // Within the wire limit choose_transfer keeps the monolithic wire
  // format (and its cache): the one-message framing is what tolerates a
  // peer that independently fell through to the system path. Under-limit
  // pipelining is the forced modes' opt-in.
  const auto under = model.choose_transfer(
      8, static_cast<std::size_t>(total));
  EXPECT_NE(under.method, tempi::Method::Pipelined);
  EXPECT_EQ(under.chunk_bytes, 0u);
  const auto small = model.choose_transfer(128, 1024);
  EXPECT_EQ(small.method,
            model
                .choose_transfer(128, 1024, {tempi::TransferKind::Persistent})
                .method);
  EXPECT_EQ(small.chunk_bytes, 0u);
}

TEST_F(TempiPipeline, ChooseTransferForcedAboveTheLimit) {
  PipelineConfigGuard guard(/*limit=*/64 * 1024);
  const tempi::PerfModel model;
  // 1 MiB cannot ride one 64 KiB leg: Pipelined regardless of estimates.
  const auto choice = model.choose_transfer(64, 1024 * 1024);
  EXPECT_EQ(choice.method, tempi::Method::Pipelined);
  EXPECT_GT(choice.chunk_bytes, 0u);
  EXPECT_LE(choice.chunk_bytes, 64u * 1024u);
}

} // namespace
