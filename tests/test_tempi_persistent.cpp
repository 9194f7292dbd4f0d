// The persistent-operation fast path (tempi/async.hpp channels):
// Send_init/Recv_init/Start/Startall/Request_free interposition, re-arm
// semantics across Wait/Waitall/Test, graph-replayed zero-setup sends,
// pipelined persistent sends under an injected wire limit, the
// Type_free-while-channel-live graveyard pin, forwarding under the
// system send mode, lease pinning/release, and the uninstall drain
// contract.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/topology.hpp"
#include "test_helpers.hpp"
#include "vcuda/clock.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
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

class TempiPersistent : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    tempi::trace::reset_counters();
    // The exact-count replay/launch assertions below depend on channels
    // staying frozen; the tuner is re-enabled (and its cells cleared) in
    // TearDown so each test opts in to refresh traffic explicitly.
    tempi::tune::set_enabled(false);
  }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::set_wire_chunk_limit(tempi::kMaxWireBytes);
    tempi::set_chunk_bytes_override(0);
    tempi::tune::set_enabled(true);
    tempi::tune::reset();
    tempi::uninstall();
  }
};

/// Iterate a frozen channel pair `iters` times: the sender refills the
/// object with a fresh pattern each round, the receiver verifies the
/// delivered bytes against a raw-byte cross-check channel every round —
/// re-arms must deliver fresh payloads, not the recording-time state.
void persistent_exchange_and_check(tempi::SendMode mode, int vcount,
                                   int blocklen, int stride_elems,
                                   int iters) {
  tempi::set_send_mode(mode);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(vcount, blocklen, stride_elems, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);

    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 7, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      for (int it = 0; it < iters; ++it) {
        fill_pattern(buf.get(), buf.size(), 100 + it);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_NE(req, MPI_REQUEST_NULL); // persistent handles survive Wait
        MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 8,
                 MPI_COMM_WORLD);
      }
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 7, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      std::vector<std::byte> raw(buf.size());
      for (int it = 0; it < iters; ++it) {
        std::memset(buf.get(), 0, buf.size());
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        MPI_Status status;
        ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
        EXPECT_NE(req, MPI_REQUEST_NULL);
        EXPECT_EQ(status.MPI_SOURCE, 0);
        EXPECT_EQ(status.MPI_TAG, 7);
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 8,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                  reference_pack(raw.data(), 1, *t))
            << "mode " << static_cast<int>(mode) << " iteration " << it;
      }
    }
    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    EXPECT_EQ(req, MPI_REQUEST_NULL);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
}

TEST_F(TempiPersistent, DeviceMethodReArmsCorrectly) {
  persistent_exchange_and_check(tempi::SendMode::ForceDevice, 64, 8, 24, 4);
}

TEST_F(TempiPersistent, OneShotMethodReArmsCorrectly) {
  persistent_exchange_and_check(tempi::SendMode::ForceOneShot, 64, 8, 24, 4);
}

TEST_F(TempiPersistent, StagedMethodReArmsCorrectly) {
  persistent_exchange_and_check(tempi::SendMode::ForceStaged, 64, 8, 24, 4);
}

TEST_F(TempiPersistent, AutoFreezesAChannelAndCountsReplays) {
  persistent_exchange_and_check(tempi::SendMode::Auto, 128, 2, 10, 5);
  EXPECT_EQ(counter("tempi.persistent.inits"), 2u);   // one channel per side
  EXPECT_EQ(counter("tempi.persistent.starts"), 10u); // 5 arms per side
  // Send arms + recv unpacks.
  EXPECT_GE(counter("tempi.persistent.replays"), 10u);
  EXPECT_GE(counter("tempi.persistent.graph_launches"), 10u);
  EXPECT_EQ(counter("tempi.persistent.forwarded"), 0u);
  EXPECT_EQ(tempi::async::persistent_open(), 0u); // all freed in-test
}

TEST_F(TempiPersistent, PersistentSendInteroperatesWithPlainTypedRecv) {
  // The monolithic wire format is per-side: a frozen sender must remain
  // receivable by an ordinary typed MPI_Recv on the peer.
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 16, 48, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 32);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 9);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 3, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 4,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      ASSERT_EQ(MPI_Recv(buf.get(), 1, t, 0, 3, MPI_COMM_WORLD,
                         MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 4,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPersistent, StartallArmsAndWaitallReArmsMixedChannels) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(48, 4, 12, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    // Two channels per rank (distinct tags) armed through one Startall and
    // completed through one Waitall, twice over.
    SpaceBuffer a(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 16);
    SpaceBuffer b(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 16);
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(a.get(), 1, t, 1, 20, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Send_init(b.get(), 1, t, 1, 21, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(a.get(), 1, t, 0, 20, MPI_COMM_WORLD,
                              &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Recv_init(b.get(), 1, t, 0, 21, MPI_COMM_WORLD,
                              &reqs[1]),
                MPI_SUCCESS);
    }
    for (int it = 0; it < 2; ++it) {
      if (rank == 0) {
        fill_pattern(a.get(), a.size(), 40 + it);
        fill_pattern(b.get(), b.size(), 50 + it);
        ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
        MPI_Status statuses[2];
        ASSERT_EQ(MPI_Waitall(2, reqs, statuses), MPI_SUCCESS);
        MPI_Send(a.get(), static_cast<int>(a.size()), MPI_BYTE, 1, 22,
                 MPI_COMM_WORLD);
        MPI_Send(b.get(), static_cast<int>(b.size()), MPI_BYTE, 1, 23,
                 MPI_COMM_WORLD);
      } else {
        std::memset(a.get(), 0, a.size());
        std::memset(b.get(), 0, b.size());
        ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
        MPI_Status statuses[2];
        ASSERT_EQ(MPI_Waitall(2, reqs, statuses), MPI_SUCCESS);
        EXPECT_EQ(statuses[0].MPI_TAG, 20);
        EXPECT_EQ(statuses[1].MPI_TAG, 21);
        for (MPI_Request r : reqs) {
          EXPECT_NE(r, MPI_REQUEST_NULL); // survived Waitall
        }
        std::vector<std::byte> raw(a.size());
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 22,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(a.get(), 1, *t),
                  reference_pack(raw.data(), 1, *t));
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 23,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(b.get(), 1, *t),
                  reference_pack(raw.data(), 1, *t));
      }
    }
    ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
    ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPersistent, TestDrivesAPersistentReceiveToCompletion) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 8, 24, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      // Delay the send behind a handshake so the receiver polls Test at
      // least once against an unmatched wire.
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 90, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      fill_pattern(buf.get(), buf.size(), 5);
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 91, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 91, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      int flag = 0;
      MPI_Status status;
      ASSERT_EQ(MPI_Test(&req, &flag, &status), MPI_SUCCESS);
      EXPECT_EQ(flag, 0); // nothing sent yet: the channel stays armed
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 90, MPI_COMM_WORLD);
      while (flag == 0) {
        ASSERT_EQ(MPI_Test(&req, &flag, &status), MPI_SUCCESS);
      }
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 91);
      EXPECT_NE(req, MPI_REQUEST_NULL);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPersistent, InactiveChannelCompletesImmediatelyWithEmptyStatus) {
  sysmpi::ensure_self_context();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(16, 4, 12, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer buf(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
  MPI_Request req = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 0, 1, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  ASSERT_TRUE(tempi::async::owns(req));
  // Never started: Wait and Test complete immediately with empty statuses.
  MPI_Status status;
  status.MPI_SOURCE = 42;
  ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
  EXPECT_NE(req, MPI_REQUEST_NULL);
  EXPECT_EQ(status.MPI_SOURCE, -1);
  int flag = 0;
  ASSERT_EQ(MPI_Test(&req, &flag, &status), MPI_SUCCESS);
  EXPECT_EQ(flag, 1);
  ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
  MPI_Type_free(&t);
}

TEST_F(TempiPersistent, DoubleStartIsRejected) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 12, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 3);
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 5, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      EXPECT_EQ(MPI_Start(&req), MPI_ERR_ARG); // armed twice
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    } else {
      MPI_Recv(buf.get(), 1, t, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPersistent, PipelinedChannelUnderInjectedWireLimit) {
  // A message over the injected wire limit freezes a Pipelined channel on
  // both endpoints: the sender replays one pre-recorded pack graph per
  // leg, the receiver re-arms a ChunkedRecv per Start.
  tempi::set_wire_chunk_limit(16 * 1024);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(2048, 16, 48, MPI_BYTE, &t); // 32 KiB packed > limit
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 60, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      for (int it = 0; it < 3; ++it) {
        fill_pattern(buf.get(), buf.size(), 70 + it);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 61,
                 MPI_COMM_WORLD);
      }
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 60, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      std::vector<std::byte> raw(buf.size());
      for (int it = 0; it < 3; ++it) {
        std::memset(buf.get(), 0, buf.size());
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        MPI_Status status;
        ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
        EXPECT_EQ(static_cast<std::size_t>(status.count_bytes),
                  static_cast<std::size_t>(2048) * 16);
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 61,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                  reference_pack(raw.data(), 1, *t))
            << "iteration " << it;
      }
    }
    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.persistent.inits"), 2u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 6u);
  // 32 KiB over a 16 KiB limit is two full legs plus the empty
  // terminator: the sender replays one graph per non-empty leg per arm,
  // while pipelined receives re-arm a ChunkedRecv (no replay).
  EXPECT_EQ(counter("tempi.persistent.replays"), 3u);
  EXPECT_EQ(counter("tempi.persistent.graph_launches"), 6u);
  EXPECT_GT(counter("tempi.pipeline.chunks"), 0u);
  tempi::set_wire_chunk_limit(tempi::kMaxWireBytes);
}

TEST_F(TempiPersistent, RefreezeFollowsModelGenerationExactlyOnce) {
  // Frozen channels subscribe to the tuner's refresh generation, not the
  // transfer-config generation: chunk-override churn alone must leave the
  // recorded graphs untouched, one model refresh re-records each channel
  // exactly once at its next Start (never blocking it), and every Start
  // after that replays the new plan with no further re-search.
  tempi::set_wire_chunk_limit(16 * 1024);
  tempi::set_chunk_bytes_override(4096);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(2048, 16, 48, MPI_BYTE, &t); // 32 KiB packed > limit
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 80, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 80, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    std::vector<std::byte> raw(buf.size());
    const auto exchange = [&](int it) {
      if (rank == 0) {
        fill_pattern(buf.get(), buf.size(), 90 + it);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 81,
                 MPI_COMM_WORLD);
      } else {
        std::memset(buf.get(), 0, buf.size());
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 81,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                  reference_pack(raw.data(), 1, *t))
            << "iteration " << it;
      }
    };

    // Frozen 4 KiB plan: arms replay, nothing re-records.
    exchange(0);
    exchange(1);
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_EQ(counter("tempi.model.refreezes"), 0u);

    // Transfer-config churn only (no model refresh): still frozen.
    if (rank == 0) {
      tempi::set_chunk_bytes_override(8192);
    }
    MPI_Barrier(MPI_COMM_WORLD);
    exchange(2);
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_EQ(counter("tempi.model.refreezes"), 0u);

    // A real model refresh: fold two (harmless — Staged never wins)
    // observations and bump the refresh generation.
    if (rank == 0) {
      tempi::tune::set_enabled(true);
      tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1,
                           vcuda::us_to_ns(50.0));
      tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1,
                           vcuda::us_to_ns(50.0));
      EXPECT_TRUE(tempi::tune::refresh_now());
      tempi::tune::set_enabled(false);
    }
    MPI_Barrier(MPI_COMM_WORLD);
    exchange(3); // each side re-records onto the 8 KiB plan, once
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_EQ(counter("tempi.model.refreezes"), 2u);

    // Steady state again: the generation was consumed, replays only.
    exchange(4);
    exchange(5);
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_EQ(counter("tempi.model.refreezes"), 2u);

    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.persistent.inits"), 2u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 12u);
  EXPECT_EQ(counter("tempi.model.refreezes"), 2u);
  EXPECT_GE(counter("tempi.model.generation_bumps"), 1u);
  tempi::set_wire_chunk_limit(tempi::kMaxWireBytes);
  tempi::set_chunk_bytes_override(0);
}

TEST_F(TempiPersistent, FailedRefreezeKeepsTheFrozenPlan) {
  // A re-freeze whose recording fails must leave the request on the plan
  // it froze: the Start that hit the failure and every later one succeed
  // and deliver fresh payloads. The lowered limit is below one 16-byte
  // row, so the re-search picks Pipelined, whose legs the limit rejects on
  // both ends (MPI_ERR_COUNT while recording).
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  std::atomic<int> failed_starts{0};
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(2048, 16, 48, MPI_BYTE, &t); // 32 KiB packed
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 70, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 70, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    std::vector<std::byte> raw(buf.size());
    // Both sides learn whether either Start failed before anyone waits, so
    // a broken request fails the test instead of hanging it.
    const auto exchange = [&](int it) {
      if (rank == 0) {
        fill_pattern(buf.get(), buf.size(), 110 + it);
      } else {
        std::memset(buf.get(), 0, buf.size());
      }
      const int rc = MPI_Start(&req);
      EXPECT_EQ(rc, MPI_SUCCESS) << "rank " << rank << " iteration " << it;
      if (rc != MPI_SUCCESS) {
        failed_starts.fetch_add(1);
      }
      MPI_Barrier(MPI_COMM_WORLD);
      if (failed_starts.load() > 0) {
        return;
      }
      EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      if (rank == 0) {
        MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 71,
                 MPI_COMM_WORLD);
      } else {
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 71,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                  reference_pack(raw.data(), 1, *t))
            << "iteration " << it;
      }
    };

    exchange(0); // the frozen Device plan
    MPI_Barrier(MPI_COMM_WORLD);
    if (rank == 0) {
      tempi::set_wire_chunk_limit(8);
      tempi::tune::set_enabled(true);
      tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1,
                           vcuda::us_to_ns(50.0));
      tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1,
                           vcuda::us_to_ns(50.0));
      EXPECT_TRUE(tempi::tune::refresh_now());
      tempi::tune::set_enabled(false);
    }
    MPI_Barrier(MPI_COMM_WORLD);
    for (int it = 1; it <= 3 && failed_starts.load() == 0; ++it) {
      exchange(it); // the first re-searches and fails to re-record
    }
    MPI_Barrier(MPI_COMM_WORLD);
    if (rank == 0) {
      tempi::set_wire_chunk_limit(tempi::kMaxWireBytes);
    }
    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(failed_starts.load(), 0);
  EXPECT_EQ(counter("tempi.persistent.starts"), 8u);
  EXPECT_EQ(counter("tempi.persistent.replays"), 8u); // still Device graphs
  EXPECT_EQ(counter("tempi.model.refreezes"), 0u);    // nothing re-froze
}

TEST_F(TempiPersistent, RefreezeSurvivesRemappedCartCommunicator) {
  // Persistent channels on a communicator whose ranks were re-placed by
  // MPI_Cart_create(reorder=1): freeze, replay with fresh payloads, and
  // re-freeze after a model-generation bump — all under the permuted
  // numbering (matching uses Cartesian ranks, not parent ranks). The
  // wire limit forces Pipelined plans so the mid-stream chunk change
  // makes every re-choice an actual re-record.
  tempi::set_wire_chunk_limit(16 * 1024);
  tempi::set_chunk_bytes_override(4096);
  sysmpi::RunConfig cfg;
  cfg.ranks = 64;
  cfg.ranks_per_node = 8; // 8x8 grid on 8 nodes: the brick remap engages
  sysmpi::run_ranks(cfg, [](int) {
    MPI_Init(nullptr, nullptr);
    const int dims[2] = {8, 8};
    const int periods[2] = {1, 1};
    MPI_Comm cart = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Cart_create(MPI_COMM_WORLD, 2, dims, periods, 1, &cart),
              MPI_SUCCESS);
    int crank = -1;
    MPI_Comm_rank(cart, &crank);
    int left = MPI_PROC_NULL, right = MPI_PROC_NULL;
    ASSERT_EQ(MPI_Cart_shift(cart, 1, 1, &left, &right), MPI_SUCCESS);

    MPI_Datatype t = nullptr;
    MPI_Type_vector(2048, 16, 48, MPI_BYTE, &t); // 32 KiB packed > limit
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) + 16);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) + 16);
    std::vector<std::byte> want(rbuf.size());
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    ASSERT_EQ(MPI_Send_init(sbuf.get(), 1, t, right, 9, cart, &reqs[0]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Recv_init(rbuf.get(), 1, t, left, 9, cart, &reqs[1]),
              MPI_SUCCESS);
    for (int it = 0; it < 4; ++it) {
      if (it == 2) {
        // Change the plan and bump the model generation mid-stream: the
        // next Start must re-record each channel onto the 8 KiB chunks.
        MPI_Barrier(cart);
        if (crank == 0) {
          tempi::set_chunk_bytes_override(8192);
          tempi::tune::set_enabled(true);
          tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1,
                               vcuda::us_to_ns(50.0));
          tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1,
                               vcuda::us_to_ns(50.0));
          EXPECT_TRUE(tempi::tune::refresh_now());
          tempi::tune::set_enabled(false);
        }
        MPI_Barrier(cart);
      }
      const auto seed = [&](int origin) {
        return static_cast<std::uint32_t>(1000 * it + origin);
      };
      fill_pattern(sbuf.get(), sbuf.size(), seed(crank));
      std::memset(rbuf.get(), 0, rbuf.size());
      ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
      ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
      // The payload must be the LEFT Cartesian neighbor's fresh pattern.
      fill_pattern(want.data(), want.size(), seed(left));
      EXPECT_EQ(reference_pack(rbuf.get(), 1, *t),
                reference_pack(want.data(), 1, *t))
          << "cart rank " << crank << " iteration " << it;
    }
    ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
    ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Comm_free(&cart);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.persistent.inits"), 128u); // one pair per rank
  // 4 rounds x 2 channels x 64 ranks, and every channel re-recorded once.
  EXPECT_EQ(counter("tempi.persistent.starts"), 512u);
  EXPECT_EQ(counter("tempi.model.refreezes"), 128u);
  EXPECT_EQ(counter("tempi.topo.remaps"), 64u);
  tempi::set_wire_chunk_limit(tempi::kMaxWireBytes);
  tempi::set_chunk_bytes_override(0);
}

TEST_F(TempiPersistent, TypeFreeWhileChannelLiveKeepsThePackerAlive) {
  // Regression for the MPI_Type_free-while-request-in-flight hazard: the
  // channel co-owns the packer, so a freed datatype's engine (and the
  // graphs recorded against it) must keep replaying until Request_free.
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(64, 8, 24, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 32);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 30, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 30, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    // Free the datatype with the channel live; the raw-byte cross-check
    // still needs the shape, so keep an oracle duplicate alive.
    MPI_Datatype oracle = nullptr;
    ASSERT_EQ(MPI_Type_dup(t, &oracle), MPI_SUCCESS);
    MPI_Type_free(&t);
    ASSERT_EQ(t, MPI_DATATYPE_NULL);
    for (int it = 0; it < 3; ++it) {
      if (rank == 0) {
        fill_pattern(buf.get(), buf.size(), 200 + it);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 31,
                 MPI_COMM_WORLD);
      } else {
        std::memset(buf.get(), 0, buf.size());
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        std::vector<std::byte> raw(buf.size());
        MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 31,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(reference_pack(buf.get(), 1, *oracle),
                  reference_pack(raw.data(), 1, *oracle))
            << "iteration " << it;
      }
    }
    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    MPI_Type_free(&oracle);
    MPI_Finalize();
  });
}

// TEMPI_METHOD=system forwards Send_init/Recv_init through the same gate
// as every other point-to-point call.
TEST_F(TempiPersistent, KillSwitchForwardsToTheSystemPath) {
  tempi::set_send_mode(tempi::SendMode::System);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 8, 24, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 11);
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 40, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      EXPECT_FALSE(tempi::async::owns(req)); // a system request, not a channel
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 41,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 40, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 41,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.persistent.inits"), 0u);
  EXPECT_GE(counter("tempi.persistent.forwarded"), 2u);
}

TEST_F(TempiPersistent, ChannelLeasesArePinnedUntilRequestFree) {
  sysmpi::ensure_self_context();
  tempi::reset_buffer_cache_stats();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(64, 8, 24, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer buf(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
  const std::size_t before = tempi::buffer_cache_stats().leased_now;
  MPI_Request req = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 0, 2, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  // The channel pre-acquired its wire lease at init and keeps it pinned.
  EXPECT_GT(tempi::buffer_cache_stats().leased_now, before);
  ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
  // ... and releases every lease at free: the leak-check invariant the
  // uninstall drain enforces for un-freed channels.
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, before);
  MPI_Type_free(&t);
}

TEST_F(TempiPersistent, UninstallDrainsUnfreedChannelsLoudly) {
  sysmpi::ensure_self_context();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(32, 8, 24, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer buf(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
  MPI_Request req = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 0, 2, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  EXPECT_EQ(tempi::async::persistent_open(), 1u);
  tempi::uninstall(); // contract: drops the channel, releasing its leases
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, 0u);
  // `req` now dangles, per the uninstall contract; reinstall for TearDown.
  tempi::install();
  MPI_Type_free(&t);
}

TEST_F(TempiPersistent, RequestFreeReleasesAPlainIsendTicket) {
  // MPI_Request_free on a non-persistent TEMPI request is legal MPI
  // (fire-and-forget): the op must complete (the send is buffered) and
  // retire, not error out of the pool.
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 8, 24, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 13);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 85, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_TRUE(tempi::async::owns(req));
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(tempi::async::in_flight(), 0u);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 86,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Recv(buf.get(), 1, t, 0, 85, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 86,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPersistent, RequestFreeNeverBlocksOnUnmatchedReceives) {
  // Freeing a receive nobody will ever match must return immediately
  // (matching sys_Request_free), both for a plain Irecv ticket and for an
  // armed receive channel — the lazy match is simply discarded.
  sysmpi::ensure_self_context();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(16, 4, 12, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer buf(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
  MPI_Request req = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 95, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  ASSERT_TRUE(tempi::async::owns(req));
  ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
  EXPECT_EQ(req, MPI_REQUEST_NULL);
  EXPECT_EQ(tempi::async::in_flight(), 0u);

  ASSERT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 96, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS); // armed, never matched
  ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
  EXPECT_EQ(req, MPI_REQUEST_NULL);
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
  MPI_Type_free(&t);
}

/// Request_free on a pipelined receive that already consumed a leg must
/// finish the message rather than discard it: discarding would strand its
/// remaining ordered legs for the next receive on the same (source, tag).
/// The parameter picks the request form: an Irecv ticket (false) or an
/// armed persistent receive (true).
class TempiRequestFreeMidMessage : public TempiPersistent,
                                   public ::testing::WithParamInterface<bool> {
};

TEST_P(TempiRequestFreeMidMessage, NextRecvGetsItsOwnMessage) {
  constexpr int kLeg = 16 * 1024;
  const bool persistent = GetParam();
  // Forced Device upgrades to Pipelined above the lowered wire limit.
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  tempi::set_wire_chunk_limit(kLeg);
  std::atomic<bool> first_leg_sent{false};
  std::atomic<bool> first_leg_consumed{false};
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(2048, 16, 48, MPI_BYTE, &t); // 32 KiB packed: 2 legs
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const auto bytes = static_cast<std::size_t>(extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device, bytes);
    if (rank == 0) {
      // The first message goes out as raw legs in the pipelined framing
      // (full legs sized by the first, then a short terminator), so the
      // receiver can consume leg 1 before the others exist.
      std::vector<std::byte> host(bytes);
      fill_pattern(host.data(), bytes, 41);
      const std::vector<std::byte> packed = reference_pack(host.data(), 1, *t);
      EXPECT_EQ(packed.size(), std::size_t{2} * kLeg);
      MPI_Send(packed.data(), kLeg, MPI_BYTE, 1, 50, MPI_COMM_WORLD);
      first_leg_sent = true;
      while (!first_leg_consumed) {
        std::this_thread::yield();
      }
      MPI_Send(packed.data() + kLeg, kLeg, MPI_BYTE, 1, 50, MPI_COMM_WORLD);
      MPI_Send(packed.data(), 0, MPI_BYTE, 1, 50, MPI_COMM_WORLD);
      // The second message: a real pipelined send of a fresh pattern.
      fill_pattern(buf.get(), bytes, 42);
      EXPECT_EQ(MPI_Send(buf.get(), 1, t, 1, 50, MPI_COMM_WORLD),
                MPI_SUCCESS);
    } else {
      MPI_Request req = MPI_REQUEST_NULL;
      if (persistent) {
        EXPECT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 50, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        EXPECT_EQ(MPI_Start(&req), MPI_SUCCESS);
      } else {
        EXPECT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 50, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
      }
      EXPECT_TRUE(tempi::async::owns(req));
      while (!first_leg_sent) {
        std::this_thread::yield();
      }
      int flag = 1;
      EXPECT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(flag, 0); // leg 1 landed; the rest is not sent yet
      first_leg_consumed = true;
      EXPECT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(tempi::async::in_flight(), 0u);
      EXPECT_EQ(tempi::async::persistent_open(), 0u);

      SpaceBuffer second(vcuda::MemorySpace::Device, bytes);
      std::memset(second.get(), 0, bytes);
      EXPECT_EQ(MPI_Recv(second.get(), 1, t, 0, 50, MPI_COMM_WORLD,
                         MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      std::vector<std::byte> expected(bytes);
      fill_pattern(expected.data(), bytes, 42);
      EXPECT_EQ(reference_pack(second.get(), 1, *t),
                reference_pack(expected.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RequestForms, TempiRequestFreeMidMessage,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                           return info.param ? "Persistent" : "Irecv";
                         });

TEST_F(TempiPersistent, TestallPreservesStatusesAcrossPartialPolls) {
  // Regression: an entry completed by an earlier flag=0 Testall poll must
  // keep the status that completion wrote — later polls count the
  // disarmed ticket complete without clobbering the slot.
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(24, 4, 12, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer a(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
    SpaceBuffer b(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
    if (rank == 0) {
      fill_pattern(a.get(), a.size(), 1);
      fill_pattern(b.get(), b.size(), 2);
      MPI_Send(a.get(), 1, t, 1, 64, MPI_COMM_WORLD);
      int seen = 0; // B departs only after the partial poll completed A
      MPI_Recv(&seen, 1, MPI_INT, 1, 65, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(b.get(), 1, t, 1, 66, MPI_COMM_WORLD);
    } else {
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Recv_init(a.get(), 1, t, 0, 64, MPI_COMM_WORLD,
                              &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Recv_init(b.get(), 1, t, 0, 66, MPI_COMM_WORLD,
                              &reqs[1]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
      int flag = 1;
      MPI_Status statuses[2];
      statuses[0].MPI_TAG = statuses[1].MPI_TAG = -7;
      // Poll until the partial sweep consumes A (B has not been sent).
      while (statuses[0].MPI_TAG != 64) {
        ASSERT_EQ(MPI_Testall(2, reqs, &flag, statuses), MPI_SUCCESS);
        ASSERT_EQ(flag, 0);
      }
      const int seen = 1;
      MPI_Send(&seen, 1, MPI_INT, 0, 65, MPI_COMM_WORLD);
      while (flag == 0) {
        ASSERT_EQ(MPI_Testall(2, reqs, &flag, statuses), MPI_SUCCESS);
      }
      EXPECT_EQ(statuses[0].MPI_TAG, 64); // survived the later polls
      EXPECT_EQ(statuses[1].MPI_TAG, 66);
      ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiPersistent, HostBufferChannelsForwardAndStillWork) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 8, 24, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    // Pageable host buffers: TEMPI has nothing to accelerate, the system
    // persistent path must carry the traffic end to end.
    std::vector<std::byte> host(static_cast<std::size_t>(extent) + 8);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      fill_pattern(host.data(), host.size(), 77);
      ASSERT_EQ(MPI_Send_init(host.data(), 1, t, 1, 50, MPI_COMM_WORLD,
                              &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      MPI_Send(host.data(), static_cast<int>(host.size()), MPI_BYTE, 1, 51,
               MPI_COMM_WORLD);
    } else {
      ASSERT_EQ(MPI_Recv_init(host.data(), 1, t, 0, 50, MPI_COMM_WORLD,
                              &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      std::vector<std::byte> raw(host.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 51,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(host.data(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_GE(counter("tempi.persistent.forwarded"), 2u);
}

TEST_F(TempiPersistent, ReplaySkipsPerKernelLaunches) {
  // The cost-model accounting claim: a frozen device-method send replays
  // its pack as ONE graph launch — zero cudaLaunchKernel calls after init.
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(64, 8, 24, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    if (rank == 0) {
      tempi::set_send_mode(tempi::SendMode::ForceDevice);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 80, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // The counters are process-wide, so measure while the receiver is
      // still parked behind the handshake below (the sends are buffered:
      // no recv needs to be posted for the arms to complete).
      const vcuda::Counters before = vcuda::counters();
      for (int it = 0; it < 4; ++it) {
        fill_pattern(buf.get(), buf.size(), it);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      }
      const vcuda::Counters after = vcuda::counters();
      EXPECT_EQ(after.kernel_launches, before.kernel_launches);
      EXPECT_EQ(after.graph_launches, before.graph_launches + 4);
      EXPECT_EQ(after.graph_nodes_replayed, before.graph_nodes_replayed + 4);
      ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
      tempi::set_send_mode(tempi::SendMode::Auto);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 1, 81, MPI_COMM_WORLD);
    } else {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 0, 81, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      for (int it = 0; it < 4; ++it) {
        MPI_Recv(buf.get(), 1, t, 0, 80, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      }
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

/// The replay counters of one API call, for the borrow tests below.
struct ProgramUse {
  std::uint64_t replays, captures, busy;
};

ProgramUse program_use(const char *api) {
  const std::string prefix = std::string("tempi.") + api;
  return {counter(prefix + ".replays"), counter(prefix + ".captures"),
          counter(prefix + ".busy")};
}

/// A device vector type, a buffer for one object of it, and the raw-byte
/// cross-check: `check(tag)` has rank 0 send the buffer's raw bytes and
/// rank 1 compare them with what its typed receive delivered.
struct BorrowFixture {
  MPI_Datatype t = nullptr;
  std::optional<SpaceBuffer> buf;
  BorrowFixture() {
    MPI_Type_vector(64, 8, 24, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    buf.emplace(vcuda::MemorySpace::Device,
                static_cast<std::size_t>(extent) + 64);
  }
  ~BorrowFixture() { MPI_Type_free(&t); }
  BorrowFixture(const BorrowFixture &) = delete;
  BorrowFixture &operator=(const BorrowFixture &) = delete;

  void check(int rank, int tag, const std::string &what) const {
    if (rank == 0) {
      MPI_Send(buf->get(), static_cast<int>(buf->size()), MPI_BYTE, 1, tag,
               MPI_COMM_WORLD);
      return;
    }
    std::vector<std::byte> raw(buf->size());
    MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, tag,
             MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(reference_pack(buf->get(), 1, *t),
              reference_pack(raw.data(), 1, *t))
        << what;
  }
};

TEST_F(TempiPersistent, RestingChannelServesSendIsendAndRecvWithoutCapture) {
  // While a persistent request rests, a blocking Send, an Isend and a
  // blocking Recv of its key (buffer, count, type, method) borrow its
  // frozen program from the first call on: no second program is recorded.
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    BorrowFixture f;
    MPI_Request ch = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(f.buf->get(), 1, f.t, 1, 7, MPI_COMM_WORLD,
                              &ch),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(f.buf->get(), 1, f.t, 0, 7, MPI_COMM_WORLD,
                              &ch),
                MPI_SUCCESS);
    }
    for (int it = 0; it < 3; ++it) {
      if (rank == 0) {
        fill_pattern(f.buf->get(), f.buf->size(), 10 + it);
        if (it == 0) {
          ASSERT_EQ(MPI_Send(f.buf->get(), 1, f.t, 1, 20, MPI_COMM_WORLD),
                    MPI_SUCCESS);
        } else if (it == 1) {
          MPI_Request req = MPI_REQUEST_NULL;
          ASSERT_EQ(MPI_Isend(f.buf->get(), 1, f.t, 1, 20, MPI_COMM_WORLD,
                              &req),
                    MPI_SUCCESS);
          ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        } else {
          ASSERT_EQ(MPI_Start(&ch), MPI_SUCCESS);
          ASSERT_EQ(MPI_Wait(&ch, MPI_STATUS_IGNORE), MPI_SUCCESS);
        }
      } else {
        std::memset(f.buf->get(), 0, f.buf->size());
        MPI_Status status{};
        if (it < 2) {
          ASSERT_EQ(MPI_Recv(f.buf->get(), 1, f.t, 0, 20, MPI_COMM_WORLD,
                             &status),
                    MPI_SUCCESS);
        } else {
          ASSERT_EQ(MPI_Start(&ch), MPI_SUCCESS);
          ASSERT_EQ(MPI_Wait(&ch, &status), MPI_SUCCESS);
        }
        int got = 0;
        MPI_Get_count(&status, f.t, &got);
        EXPECT_EQ(got, 1);
      }
      f.check(rank, 30 + it, "iteration " + std::to_string(it));
    }
    ASSERT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
    MPI_Finalize();
  });
  for (const char *api : {"send", "isend", "recv"}) {
    const ProgramUse use = program_use(api);
    EXPECT_EQ(use.captures, 0u) << api;
    EXPECT_EQ(use.busy, 0u) << api;
    EXPECT_EQ(use.replays, std::string(api) == "recv" ? 2u : 1u) << api;
  }
  // Only the Starts count as persistent replays: the sender's arming and
  // the receiver's unpack.
  EXPECT_EQ(counter("tempi.persistent.replays"), 2u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 2u);
}

TEST_F(TempiPersistent, ActiveChannelSendsSameKeyCallsLive) {
  // An armed persistent request holds its program: a Send, an Isend or a
  // Recv of the same key runs live meanwhile, and every message (theirs
  // and the channel's) arrives intact.
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    BorrowFixture f;
    MPI_Request ch = MPI_REQUEST_NULL;
    if (rank == 0) {
      fill_pattern(f.buf->get(), f.buf->size(), 40);
      ASSERT_EQ(MPI_Send_init(f.buf->get(), 1, f.t, 1, 7, MPI_COMM_WORLD,
                              &ch),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&ch), MPI_SUCCESS);
      ASSERT_EQ(MPI_Send(f.buf->get(), 1, f.t, 1, 8, MPI_COMM_WORLD),
                MPI_SUCCESS);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(f.buf->get(), 1, f.t, 1, 9, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&ch, MPI_STATUS_IGNORE), MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv_init(f.buf->get(), 1, f.t, 0, 7, MPI_COMM_WORLD,
                              &ch),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&ch), MPI_SUCCESS);
      std::vector<std::vector<std::byte>> got;
      for (const int tag : {8, 9}) {
        std::memset(f.buf->get(), 0, f.buf->size());
        ASSERT_EQ(MPI_Recv(f.buf->get(), 1, f.t, 0, tag, MPI_COMM_WORLD,
                           MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
        got.push_back(reference_pack(f.buf->get(), 1, *f.t));
      }
      std::memset(f.buf->get(), 0, f.buf->size());
      ASSERT_EQ(MPI_Wait(&ch, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(got[0], reference_pack(f.buf->get(), 1, *f.t));
      EXPECT_EQ(got[1], reference_pack(f.buf->get(), 1, *f.t));
    }
    f.check(rank, 10, "the channel's message");
    ASSERT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
    MPI_Finalize();
  });
  const ProgramUse send = program_use("send");
  const ProgramUse isend = program_use("isend");
  const ProgramUse recv = program_use("recv");
  EXPECT_EQ(send.busy, 1u);
  EXPECT_EQ(isend.busy, 1u);
  EXPECT_EQ(recv.busy, 2u);
  EXPECT_EQ(send.replays + isend.replays + recv.replays, 0u);
  EXPECT_EQ(send.captures + isend.captures + recv.captures, 0u);
  EXPECT_EQ(counter("tempi.persistent.replays"), 2u);
}

TEST_F(TempiPersistent, StartWhileAnIsendBorrowsTheProgramArmsLive) {
  // An Isend borrowed the resting channel's program and is still in
  // flight when the channel is started: the arming packs live into leases
  // of its own (returned at Wait), and both messages arrive intact.
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  const std::size_t leased0 = tempi::buffer_cache_stats().leased_now;
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    BorrowFixture f;
    if (rank == 0) {
      fill_pattern(f.buf->get(), f.buf->size(), 70);
      MPI_Request ch = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Send_init(f.buf->get(), 1, f.t, 1, 7, MPI_COMM_WORLD,
                              &ch),
                MPI_SUCCESS);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(f.buf->get(), 1, f.t, 1, 8, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Start(&ch), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&ch, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      ASSERT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
    } else {
      std::vector<std::byte> got;
      for (const int tag : {7, 8}) {
        std::memset(f.buf->get(), 0, f.buf->size());
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Irecv(f.buf->get(), 1, f.t, 0, tag, MPI_COMM_WORLD,
                            &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        const std::vector<std::byte> packed =
            reference_pack(f.buf->get(), 1, *f.t);
        if (!got.empty()) {
          EXPECT_EQ(packed, got);
        }
        got = packed;
      }
    }
    f.check(rank, 10, "both messages");
    MPI_Finalize();
  });
  EXPECT_EQ(program_use("isend").replays, 1u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 1u);
  EXPECT_EQ(counter("tempi.persistent.replays"), 0u); // the arming ran live
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0);
}

TEST_F(TempiPersistent, ChannelFreedOnAnotherThreadLeavesNoEntry) {
  // A channel freed on a thread other than the one that created it
  // releases its program and leases at once; the creating thread's next
  // call of the same key is a first sighting, never a replay of the freed
  // program (ASan would flag one).
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  const std::size_t leased0 = tempi::buffer_cache_stats().leased_now;
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    BorrowFixture f;
    MPI_Request ch = MPI_REQUEST_NULL;
    ASSERT_EQ(rank == 0 ? MPI_Send_init(f.buf->get(), 1, f.t, 1, 7,
                                        MPI_COMM_WORLD, &ch)
                        : MPI_Recv_init(f.buf->get(), 1, f.t, 0, 7,
                                        MPI_COMM_WORLD, &ch),
              MPI_SUCCESS);
    std::thread([&ch] {
      EXPECT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
    }).join();
    EXPECT_EQ(ch, MPI_REQUEST_NULL);
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0);
    MPI_Barrier(MPI_COMM_WORLD);
    for (int it = 0; it < 3; ++it) {
      if (rank == 0) {
        fill_pattern(f.buf->get(), f.buf->size(), 60 + it);
        ASSERT_EQ(MPI_Send(f.buf->get(), 1, f.t, 1, 20, MPI_COMM_WORLD),
                  MPI_SUCCESS);
      } else {
        std::memset(f.buf->get(), 0, f.buf->size());
        ASSERT_EQ(MPI_Recv(f.buf->get(), 1, f.t, 0, 20, MPI_COMM_WORLD,
                           MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
      }
      f.check(rank, 30 + it, "iteration " + std::to_string(it));
    }
    MPI_Finalize();
  });
  // Live, recorded, replayed: as if the channel had never existed.
  for (const char *api : {"send", "recv"}) {
    const ProgramUse use = program_use(api);
    EXPECT_EQ(use.captures, 1u) << api;
    EXPECT_EQ(use.replays, 2u) << api;
    EXPECT_EQ(use.busy, 0u) << api;
  }
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
}

TEST_F(TempiPersistent, WaitsomeAndTestallHandlePersistentTickets) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(24, 4, 12, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer a(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
    SpaceBuffer b(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    if (rank == 0) {
      fill_pattern(a.get(), a.size(), 1);
      fill_pattern(b.get(), b.size(), 2);
      ASSERT_EQ(MPI_Send_init(a.get(), 1, t, 1, 70, MPI_COMM_WORLD,
                              &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Send_init(b.get(), 1, t, 1, 71, MPI_COMM_WORLD,
                              &reqs[1]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
      int outcount = 0;
      int indices[2] = {-1, -1};
      ASSERT_EQ(MPI_Waitsome(2, reqs, &outcount, indices,
                             MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(outcount, 2); // armed sends are buffered: both complete
      // Regression: a completed channel is INACTIVE, and Waitsome must
      // ignore inactive persistent tickets like null slots — reporting
      // them again would livelock the standard drain loop. Waitany
      // likewise reports no active entry instead of "winning" a disarmed
      // channel forever.
      ASSERT_EQ(MPI_Waitsome(2, reqs, &outcount, indices,
                             MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(outcount, MPI_UNDEFINED);
      int index = 0;
      ASSERT_EQ(MPI_Waitany(2, reqs, &index, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(index, MPI_UNDEFINED);
      int flag = 0;
      ASSERT_EQ(MPI_Testany(2, reqs, &index, &flag, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 1);
      EXPECT_EQ(index, MPI_UNDEFINED);
    } else {
      ASSERT_EQ(MPI_Recv_init(a.get(), 1, t, 0, 70, MPI_COMM_WORLD,
                              &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Recv_init(b.get(), 1, t, 0, 71, MPI_COMM_WORLD,
                              &reqs[1]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
      // Statuses across partially-complete Testall sweeps are undefined
      // (entries completed in earlier sweeps re-test as inactive/empty),
      // so assert completion and handle survival only.
      int flag = 0;
      while (flag == 0) {
        ASSERT_EQ(MPI_Testall(2, reqs, &flag, MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
      }
      for (MPI_Request r : reqs) {
        EXPECT_NE(r, MPI_REQUEST_NULL);
      }
    }
    ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
    ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

// --- arming matrix ----------------------------------------------------------
//
// MPI_Send/MPI_Recv, MPI_Isend/MPI_Irecv + Waitall and MPI_Send_init/
// MPI_Recv_init + Startall + Waitall arm alike. For every method (forced
// Device, OneShot and Staged, and Pipelined under an injected wire limit),
// to another rank and to the caller's own, over enough rounds to run live,
// record and replay, every receive ends exactly as on the system path, and
// the program traffic counts under the API that made it.

enum class Api { Blocking, Nonblocking, Persistent };
enum class Target { Remote, Self };

constexpr unsigned kArmRounds = 4;
constexpr int kArmTag = 80;

/// What one rank observed: every return code, and after each round its
/// receive's status and destination bytes.
struct Observed {
  std::vector<int> codes;
  std::vector<std::array<long long, 4>> statuses;
  std::vector<std::vector<std::byte>> buffers;
};

/// Rank 0 sends one 4 KiB-packed device object per round, to rank 1
/// (Remote) or to itself (Self), through `api`.
std::array<Observed, 2> arm_rounds(Api api, Target target) {
  std::array<Observed, 2> seen;
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(256, 16, 48, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    SpaceBuffer src(vcuda::MemorySpace::Device, 256 * 48);
    SpaceBuffer dst(vcuda::MemorySpace::Device, 256 * 48);
    const int dest = target == Target::Self ? 0 : 1;
    const bool sends = rank == 0;
    const bool receives = rank == dest;
    Observed &obs = seen[static_cast<std::size_t>(rank)];
    // Receive first, so a self-addressed send finds it posted.
    std::vector<MPI_Request> reqs;
    reqs.reserve(2);
    const auto post = [&](auto &&call) {
      reqs.push_back(MPI_REQUEST_NULL);
      obs.codes.push_back(call(&reqs.back()));
    };
    if (api == Api::Persistent) {
      if (receives) {
        post([&](MPI_Request *r) {
          return MPI_Recv_init(dst.get(), 1, t, 0, kArmTag, MPI_COMM_WORLD, r);
        });
      }
      if (sends) {
        post([&](MPI_Request *r) {
          return MPI_Send_init(src.get(), 1, t, dest, kArmTag, MPI_COMM_WORLD,
                               r);
        });
      }
    }
    for (unsigned round = 0; round < kArmRounds; ++round) {
      if (sends) {
        fill_pattern(src.get(), src.size(), 100 + round);
      }
      if (receives) {
        fill_pattern(dst.get(), dst.size(), 200 + round);
      }
      std::array<MPI_Status, 2> st{};
      if (api == Api::Blocking) {
        if (sends) {
          obs.codes.push_back(
              MPI_Send(src.get(), 1, t, dest, kArmTag, MPI_COMM_WORLD));
        }
        if (receives) {
          obs.codes.push_back(MPI_Recv(dst.get(), 1, t, 0, kArmTag,
                                       MPI_COMM_WORLD, st.data()));
        }
      } else {
        if (api == Api::Nonblocking) {
          reqs.clear();
          if (receives) {
            post([&](MPI_Request *r) {
              return MPI_Irecv(dst.get(), 1, t, 0, kArmTag, MPI_COMM_WORLD,
                               r);
            });
          }
          if (sends) {
            post([&](MPI_Request *r) {
              return MPI_Isend(src.get(), 1, t, dest, kArmTag,
                               MPI_COMM_WORLD, r);
            });
          }
        } else {
          obs.codes.push_back(
              MPI_Startall(static_cast<int>(reqs.size()), reqs.data()));
        }
        obs.codes.push_back(MPI_Waitall(static_cast<int>(reqs.size()),
                                        reqs.data(), st.data()));
      }
      if (receives) {
        obs.statuses.push_back({st[0].MPI_SOURCE, st[0].MPI_TAG,
                                st[0].MPI_ERROR, st[0].count_bytes});
        obs.buffers.emplace_back(dst.bytes(), dst.bytes() + dst.size());
      }
    }
    if (api == Api::Persistent) {
      for (MPI_Request &r : reqs) {
        obs.codes.push_back(MPI_Request_free(&r));
      }
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  return seen;
}

/// The program traffic of a run, by counter (tempi.<name>), zeros left
/// out: replays, captures and busy calls of each API's program table, the
/// persistent counters and the self deliveries.
using Traffic = std::map<std::string, std::uint64_t>;

Traffic program_traffic() {
  Traffic n;
  const auto add = [&](const std::string &name) {
    if (const std::uint64_t v = counter("tempi." + name); v != 0) {
      n[name] = v;
    }
  };
  for (const char *api : {"send", "recv", "isend", "irecv"}) {
    for (const char *what : {"replays", "captures", "busy"}) {
      add(std::string(api) + "." + what);
    }
  }
  for (const char *what : {"inits", "starts", "replays", "graph_launches"}) {
    add(std::string("persistent.") + what);
  }
  add("p2p.self_deliveries");
  return n;
}

/// The traffic of kArmRounds (4) rounds. A monolithic call runs live at
/// its first sighting, records at its second and replays from then on,
/// counting a replay from the second; a self-addressed Isend lands in the
/// posted Irecv from the second round (the pair's transcode replays, no
/// graph of the send's own, no capture). A persistent request replays
/// every Start (a delivered one launches no graph); a pipelined one
/// replays its sender's four leg graphs, and nothing else pipelined
/// records.
Traffic expected_traffic(bool pipelined, Api api, Target target) {
  const bool self = target == Target::Self;
  if (api == Api::Persistent) {
    if (pipelined) {
      return {{"persistent.inits", 2}, {"persistent.starts", 8},
              {"persistent.replays", 4}, {"persistent.graph_launches", 16}};
    }
    Traffic n{{"persistent.inits", 2}, {"persistent.starts", 8},
              {"persistent.replays", 8},
              {"persistent.graph_launches", self ? 2 : 8}};
    if (self) {
      n["p2p.self_deliveries"] = 3;
    }
    return n;
  }
  if (pipelined) {
    return {};
  }
  if (api == Api::Blocking) {
    return {{"send.replays", 3}, {"send.captures", 1},
            {"recv.replays", 3}, {"recv.captures", 1}};
  }
  Traffic n{{"isend.replays", 3}, {"irecv.replays", 3},
            {"irecv.captures", 1}};
  if (self) {
    n["p2p.self_deliveries"] = 3;
  } else {
    n["isend.captures"] = 1;
  }
  return n;
}

TEST_F(TempiPersistent, EveryApiArmsEveryMethodLikeTheSystemPath) {
  struct Mode {
    const char *name;
    tempi::SendMode mode;
    std::size_t wire_limit; ///< below the 4 KiB message: Pipelined
  };
  const Mode modes[] = {
      {"device", tempi::SendMode::ForceDevice, tempi::kMaxWireBytes},
      {"oneshot", tempi::SendMode::ForceOneShot, tempi::kMaxWireBytes},
      {"staged", tempi::SendMode::ForceStaged, tempi::kMaxWireBytes},
      {"pipelined", tempi::SendMode::ForceDevice, 1024}};
  const char *api_names[] = {"Send/Recv", "Isend/Irecv", "Start"};
  for (const Mode &m : modes) {
    tempi::set_wire_chunk_limit(m.wire_limit);
    for (const Api api : {Api::Blocking, Api::Nonblocking, Api::Persistent}) {
      for (const Target target : {Target::Remote, Target::Self}) {
        const std::string what =
            std::string(m.name) + " " + api_names[static_cast<int>(api)] +
            (target == Target::Self ? " self" : " remote");
        tempi::set_send_mode(tempi::SendMode::System);
        const std::array<Observed, 2> reference = arm_rounds(api, target);
        tempi::set_send_mode(m.mode);
        tempi::trace::reset_counters();
        const std::array<Observed, 2> seen = arm_rounds(api, target);
        for (std::size_t rank = 0; rank < 2; ++rank) {
          EXPECT_EQ(seen[rank].codes, reference[rank].codes) << what;
          EXPECT_EQ(seen[rank].statuses, reference[rank].statuses) << what;
          EXPECT_EQ(seen[rank].buffers, reference[rank].buffers) << what;
        }
        EXPECT_EQ(program_traffic(),
                  expected_traffic(m.wire_limit < 4096, api, target))
            << what;
      }
    }
  }
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
}

} // namespace
