// The non-blocking request engine (tempi/async.hpp): correctness of every
// packing method through Isend/Irecv/Wait, edge cases around request
// handles (MPI_REQUEST_NULL, mixed TEMPI/system arrays, polling Test,
// repeated Wait), buffer pinning until completion, the Waitall unpack
// batch (fused launches, the rendezvous flush rule, the error path, and
// no syncs for streams without work), the halo-exchange auto-selection
// criterion, and the uninstall drain contract.
#include "interpose/table.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/netmodel.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "halo/halo.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
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

std::uint64_t fused_launches() {
  return counter("tempi.engine.fused_unpack_launches");
}

std::uint64_t fused_unpacks() {
  return counter("tempi.engine.fused_unpacks");
}

class TempiAsync : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    tempi::trace::reset_counters();
  }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::uninstall();
  }
};

/// Ship a strided device object rank0 -> rank1 through Isend/Irecv/Wait and
/// verify the delivered bytes against a raw-byte cross-check channel.
void isend_exchange_and_check(tempi::SendMode mode, int vcount, int blocklen,
                              int stride_elems) {
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
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 23);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 7, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 8,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 7, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      MPI_Status status;
      ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 7);

      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 8,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t))
          << "mode " << static_cast<int>(mode);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
}

TEST_F(TempiAsync, DeviceMethodDeliversCorrectBytes) {
  isend_exchange_and_check(tempi::SendMode::ForceDevice, 64, 8, 24);
}

TEST_F(TempiAsync, OneShotMethodDeliversCorrectBytes) {
  isend_exchange_and_check(tempi::SendMode::ForceOneShot, 64, 8, 24);
}

TEST_F(TempiAsync, StagedMethodDeliversCorrectBytes) {
  isend_exchange_and_check(tempi::SendMode::ForceStaged, 64, 8, 24);
}

TEST_F(TempiAsync, AutoDeliversCorrectBytesAndCountsNonBlocking) {
  isend_exchange_and_check(tempi::SendMode::Auto, 128, 2, 10);
  EXPECT_EQ(counter("tempi.isend.oneshot") + counter("tempi.isend.device") +
                counter("tempi.isend.staged"),
            1u);
  EXPECT_EQ(counter("tempi.isend.forwarded"), 0u);
  EXPECT_EQ(counter("tempi.irecv.accelerated"), 1u);
  EXPECT_EQ(counter("tempi.irecv.forwarded"), 0u);
}

TEST_F(TempiAsync, WaitOnNullRequestSucceeds) {
  sysmpi::ensure_self_context();
  MPI_Request req = MPI_REQUEST_NULL;
  EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(req, MPI_REQUEST_NULL);
}

TEST_F(TempiAsync, WaitallToleratesNullEntries) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    fill_pattern(buf.get(), buf.size(), rank + 1);

    // Slots 0 and 2 stay MPI_REQUEST_NULL; slot 1 is a live TEMPI request.
    MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                           MPI_REQUEST_NULL};
    MPI_Status statuses[3];
    if (rank == 0) {
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 3, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 3, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
    }
    ASSERT_EQ(MPI_Waitall(3, reqs, statuses), MPI_SUCCESS);
    for (MPI_Request r : reqs) {
      EXPECT_EQ(r, MPI_REQUEST_NULL);
    }
    if (rank == 1) {
      EXPECT_EQ(statuses[1].MPI_SOURCE, 0);
      EXPECT_EQ(statuses[1].MPI_TAG, 3);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, WaitanyOverMixedTempiAndSystemRequests) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 8, 16, MPI_DOUBLE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer dev(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    std::vector<int> host(64, rank);

    if (rank == 0) {
      fill_pattern(dev.get(), dev.size(), 3);
      MPI_Send(dev.get(), 1, t, 1, 10, MPI_COMM_WORLD); // TEMPI-accelerated
      MPI_Send(host.data(), 64, MPI_INT, 1, 11, MPI_COMM_WORLD); // system
    } else {
      // One TEMPI-owned request (device strided recv) and one system
      // request (host contiguous recv) in the same array.
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Irecv(dev.get(), 1, t, 0, 10, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(
          MPI_Irecv(host.data(), 64, MPI_INT, 0, 11, MPI_COMM_WORLD,
                    &reqs[1]),
          MPI_SUCCESS);
      EXPECT_TRUE(tempi::async::owns(reqs[0]));
      EXPECT_FALSE(tempi::async::owns(reqs[1]));

      bool done[2] = {false, false};
      for (int k = 0; k < 2; ++k) {
        int index = -1;
        MPI_Status status;
        ASSERT_EQ(MPI_Waitany(2, reqs, &index, &status), MPI_SUCCESS);
        ASSERT_TRUE(index == 0 || index == 1);
        EXPECT_FALSE(done[index]);
        done[index] = true;
        EXPECT_EQ(reqs[index], MPI_REQUEST_NULL);
      }
      EXPECT_TRUE(done[0] && done[1]);
      EXPECT_EQ(host[0], 0);

      // A third Waitany over the all-null array reports MPI_UNDEFINED.
      int index = 0;
      ASSERT_EQ(MPI_Waitany(2, reqs, &index, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(index, MPI_UNDEFINED);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, TestPolledBeforeCompletion) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 8, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 32);

    if (rank == 1) {
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 5, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // The peer has not sent yet (it blocks on our go-ahead), so Test
      // must report not-done and leave the request live.
      int flag = 1;
      ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      EXPECT_NE(req, MPI_REQUEST_NULL);
      EXPECT_TRUE(tempi::async::owns(req));

      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 6, MPI_COMM_WORLD);
      flag = 0;
      MPI_Status status;
      while (flag == 0) {
        ASSERT_EQ(MPI_Test(&req, &flag, &status), MPI_SUCCESS);
      }
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 5);
    } else {
      fill_pattern(buf.get(), buf.size(), 9);
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(buf.get(), 1, t, 1, 5, MPI_COMM_WORLD);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, RepeatedWaitOnCompletedRequestSucceeds) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(8, 2, 6, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    fill_pattern(buf.get(), buf.size(), rank + 4);

    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 2, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 2, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(req, MPI_REQUEST_NULL);
    // Completion nulled the handle; waiting again is a no-op success.
    EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, IntermediatesStayLeasedUntilCompletion) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(64, 4, 12, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    fill_pattern(buf.get(), buf.size(), 2);

    if (rank == 1) {
      // The peer idles in its Recv until released, so the process-wide
      // lease gauge moves only with this rank's activity here.
      const std::size_t before = tempi::buffer_cache_stats().leased_now;
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 1, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // The wire intermediate is pinned inside the in-flight op, past the
      // lexical scope of the Irecv call.
      EXPECT_GT(tempi::buffer_cache_stats().leased_now, before);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      // The "done" handshake orders the peer's transient send-side leases
      // before this final read of the shared gauge.
      int done = 0;
      MPI_Recv(&done, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(tempi::buffer_cache_stats().leased_now, before);
    } else {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(buf.get(), 1, t, 1, 1, MPI_COMM_WORLD);
      const int done = 1;
      MPI_Send(&done, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, HaloIsendAutoSelectsNonSystemMethods) {
  // The acceptance criterion: the paper's halo exchange issued through
  // Isend/Irecv/Waitall must be accelerated under SendMode::Auto, observed
  // through the tempi.isend.* and tempi.irecv.* counters.
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.vals = 8;
  cfg.radius = 3;
  cfg.px = cfg.py = cfg.pz = 1;
  sysmpi::RunConfig rc;
  rc.ranks = 1;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    void *grid = nullptr;
    vcuda::Malloc(&grid, cfg.grid_bytes());
    std::memset(grid, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      ex.exchange_isend(grid);
    }
    vcuda::Free(grid);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.isend.oneshot") + counter("tempi.isend.device") +
                counter("tempi.isend.staged"),
            26u);
  EXPECT_EQ(counter("tempi.isend.forwarded"), 0u);
  EXPECT_EQ(counter("tempi.irecv.accelerated"), 26u);
  EXPECT_EQ(counter("tempi.irecv.forwarded"), 0u);

  EXPECT_EQ(counter("tempi.engine.isends"), 26u);
  EXPECT_EQ(counter("tempi.engine.irecvs"), 26u);
  EXPECT_EQ(counter("tempi.engine.completions"), 52u);
  // Waitall retired the 26 receives with batched stream syncs.
  EXPECT_GE(counter("tempi.engine.batched_syncs"), 1u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

TEST_F(TempiAsync, HaloIsendMatchesBlockingExchange) {
  // Same traffic, two call patterns: the non-blocking exchange must fill
  // the ghost shells with exactly the bytes the blocking exchange does.
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.vals = 2;
  cfg.radius = 2;
  cfg.px = 2;
  cfg.py = cfg.pz = 1;
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 2;

  // No region of this grid exceeds the eager threshold, so no receive is
  // rendezvous-sized and each rank's Waitall flushes its batch once.
  ASSERT_LE(static_cast<std::size_t>(cfg.nx) * cfg.ny * cfg.radius *
                cfg.vals * sizeof(double),
            sysmpi::net_params().eager_bytes);
  std::uint64_t launches = 0;
  std::uint64_t fused = 0;
  std::vector<std::vector<std::byte>> nb(static_cast<std::size_t>(2));
  std::vector<std::vector<std::byte>> blocking(static_cast<std::size_t>(2));
  for (int use_nb = 0; use_nb < 2; ++use_nb) {
    launches = fused_launches();
    fused = fused_unpacks();
    sysmpi::run_ranks(rc, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      void *grid = nullptr;
      vcuda::Malloc(&grid, cfg.grid_bytes());
      // Position-and-rank dependent fill so every region is distinct.
      fill_pattern(grid, cfg.grid_bytes(), 100 + rank);
      {
        halo::Exchanger ex(cfg, MPI_COMM_WORLD);
        if (use_nb != 0) {
          ex.exchange_isend(grid);
        } else {
          ex.exchange(grid);
        }
      }
      auto &out = (use_nb != 0 ? nb : blocking)[static_cast<std::size_t>(
          rank)];
      out.assign(static_cast<std::byte *>(grid),
                 static_cast<std::byte *>(grid) + cfg.grid_bytes());
      vcuda::Free(grid);
      MPI_Finalize();
    });
  }
  EXPECT_EQ(nb[0], blocking[0]);
  EXPECT_EQ(nb[1], blocking[1]);
  // Every one of the 26 receives per rank unpacked inside a fused launch;
  // launches per rank = rendezvous receives (none here) + 1.
  EXPECT_EQ(fused_unpacks() - fused, 2u * 26u);
  EXPECT_EQ(fused_launches() - launches, 2u * (0u + 1u));
}

TEST_F(TempiAsync, UninstallDrainsInFlightRequests) {
  // An Irecv that never matches: uninstall must drain the pool loudly
  // instead of leaking it (contract in tempi.hpp).
  sysmpi::RunConfig rc;
  rc.ranks = 1;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 8, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 4);
    MPI_Request req = MPI_REQUEST_NULL;
    ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 99, MPI_COMM_WORLD, &req),
              MPI_SUCCESS);
    EXPECT_TRUE(tempi::async::owns(req));
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(tempi::async::in_flight(), 1u);
  tempi::uninstall(); // drains; TearDown's uninstall becomes a no-op
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

TEST_F(TempiAsync, WaitsomeCompletesTempiRequestsInMixedArrays) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer typed(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 16);
    int plain = 0;
    // Slot 0: TEMPI-owned typed op; slot 1: MPI_REQUEST_NULL; slot 2: a
    // plain system request — one Waitsome loop completes the lot.
    MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                           MPI_REQUEST_NULL};
    if (rank == 0) {
      fill_pattern(typed.get(), typed.size(), 4);
      plain = 55;
      ASSERT_EQ(MPI_Isend(typed.get(), 1, t, 1, 1, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Isend(&plain, 1, MPI_INT, 1, 2, MPI_COMM_WORLD,
                          &reqs[2]),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Irecv(typed.get(), 1, t, 0, 1, MPI_COMM_WORLD,
                          &reqs[0]),
                MPI_SUCCESS);
      EXPECT_TRUE(tempi::async::owns(reqs[0]));
      ASSERT_EQ(MPI_Irecv(&plain, 1, MPI_INT, 0, 2, MPI_COMM_WORLD,
                          &reqs[2]),
                MPI_SUCCESS);
    }
    int done = 0;
    while (done < 2) {
      int outcount = 0;
      int indices[3] = {-1, -1, -1};
      ASSERT_EQ(MPI_Waitsome(3, reqs, &outcount, indices,
                             MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      ASSERT_NE(outcount, MPI_UNDEFINED);
      done += outcount;
    }
    for (MPI_Request r : reqs) {
      EXPECT_EQ(r, MPI_REQUEST_NULL);
    }
    if (rank == 1) {
      EXPECT_EQ(plain, 55);
    }
    int outcount = 0;
    int indices[3] = {-1, -1, -1};
    ASSERT_EQ(MPI_Waitsome(3, reqs, &outcount, indices,
                           MPI_STATUSES_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(outcount, MPI_UNDEFINED); // nothing active left
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, TestallAndTestanyDriveTempiReceives) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(24, 8, 20, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    if (rank == 0) {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 60, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      fill_pattern(buf.get(), buf.size(), 6);
      MPI_Send(buf.get(), 1, t, 1, 61, MPI_COMM_WORLD);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 62,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 61, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_TRUE(tempi::async::owns(req));
      // Unmatched yet: Testany and Testall both report no completion
      // without consuming the request.
      int flag = 1, index = 0;
      ASSERT_EQ(MPI_Testany(1, &req, &index, &flag, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      EXPECT_NE(req, MPI_REQUEST_NULL);
      ASSERT_EQ(MPI_Testall(1, &req, &flag, MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 60, MPI_COMM_WORLD);
      while (flag == 0) {
        ASSERT_EQ(MPI_Testall(1, &req, &flag, MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
      }
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 62,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, TestsomeConsumesArrivalsIncrementally) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 12, MPI_BYTE, &t);
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
      // First message, handshake, then the second: the receiver observes a
      // partial completion set in between.
      MPI_Send(a.get(), 1, t, 1, 70, MPI_COMM_WORLD);
      int seen = 0;
      MPI_Recv(&seen, 1, MPI_INT, 1, 71, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(b.get(), 1, t, 1, 72, MPI_COMM_WORLD);
    } else {
      std::memset(a.get(), 0, a.size());
      std::memset(b.get(), 0, b.size());
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Irecv(a.get(), 1, t, 0, 70, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Irecv(b.get(), 1, t, 0, 72, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
      int outcount = 0;
      int indices[2] = {-1, -1};
      while (outcount == 0) {
        ASSERT_EQ(MPI_Testsome(2, reqs, &outcount, indices,
                               MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
      }
      EXPECT_EQ(outcount, 1); // only the first message has arrived
      EXPECT_EQ(indices[0], 0);
      EXPECT_EQ(reqs[0], MPI_REQUEST_NULL);
      EXPECT_NE(reqs[1], MPI_REQUEST_NULL);
      const int seen = 1;
      MPI_Send(&seen, 1, MPI_INT, 0, 71, MPI_COMM_WORLD);
      int more = 0;
      while (more == 0) {
        ASSERT_EQ(MPI_Testsome(2, reqs, &more, indices,
                               MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
        ASSERT_NE(more, MPI_UNDEFINED);
      }
      EXPECT_EQ(indices[0], 1);
      EXPECT_EQ(reqs[1], MPI_REQUEST_NULL);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

/// What rank 1 observed after the mixed Waitall below.
struct MixedResult {
  std::vector<std::vector<std::byte>> buffers;
  std::vector<std::array<int, 3>> statuses; ///< MPI_SOURCE, MPI_TAG, count
};

/// One Waitall on rank 1 over every request kind the engine tells apart:
/// fusable Device and OneShot receives, a Staged receive, a pipelined
/// receive (above an injected wire limit), a blocklist receive, an armed
/// persistent channel and a plain system request. Rank 1 picks each
/// receive's method by switching the send mode while it posts, then
/// releases rank 0, which sends everything under `sender_mode`.
MixedResult mixed_waitall(tempi::SendMode sender_mode) {
  using tempi::SendMode;
  const bool system = sender_mode == SendMode::System;
  const std::size_t old_limit = tempi::set_wire_chunk_limit(4096);
  const bool old_blocklist = tempi::blocklist_fallback();
  tempi::set_blocklist_fallback(true);
  tempi::set_send_mode(sender_mode);
  MixedResult result;
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype small = nullptr, big = nullptr, indexed = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_FLOAT, &small); // 512 B packed
    MPI_Type_vector(1024, 4, 6, MPI_FLOAT, &big);  // 16 KiB: pipelined
    const int blens[4] = {2, 1, 3, 2};
    const int displs[4] = {0, 5, 9, 20};
    MPI_Type_indexed(4, blens, displs, MPI_INT, &indexed);
    for (MPI_Datatype *t : {&small, &big, &indexed}) {
      MPI_Type_commit(t);
    }
    struct Slot {
      MPI_Datatype type;
      SendMode mode; ///< receiver-side method choice
      bool persistent;
    };
    const std::array<Slot, 7> slots = {{
        {small, SendMode::ForceDevice, false},
        {small, SendMode::ForceOneShot, false},
        {small, SendMode::ForceStaged, false},
        {big, SendMode::Auto, false},
        {indexed, SendMode::Auto, false},
        {small, SendMode::Auto, true},
        {small, SendMode::ForceDevice, false},
    }};
    constexpr int kHostInts = 64;
    std::vector<std::unique_ptr<SpaceBuffer>> bufs;
    for (const Slot &s : slots) {
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(s.type, &lb, &extent);
      bufs.push_back(std::make_unique<SpaceBuffer>(
          vcuda::MemorySpace::Device, static_cast<std::size_t>(extent) + 16));
    }
    bufs.push_back(std::make_unique<SpaceBuffer>(vcuda::MemorySpace::Pageable,
                                                 kHostInts * sizeof(int)));
    const int host = static_cast<int>(slots.size());
    if (rank == 0) {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 100, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      for (int k = 0; k < host; ++k) {
        const SpaceBuffer &b = *bufs[static_cast<std::size_t>(k)];
        fill_pattern(b.get(), b.size(), 10 + k);
        ASSERT_EQ(MPI_Send(b.get(), 1, slots[static_cast<std::size_t>(k)].type,
                           1, k, MPI_COMM_WORLD),
                  MPI_SUCCESS);
      }
      fill_pattern(bufs.back()->get(), bufs.back()->size(), 99);
      MPI_Send(bufs.back()->get(), kHostInts, MPI_INT, 1, host,
               MPI_COMM_WORLD);
    } else {
      std::vector<MPI_Request> reqs(bufs.size(), MPI_REQUEST_NULL);
      for (int k = 0; k < host; ++k) {
        const Slot &s = slots[static_cast<std::size_t>(k)];
        void *buf = bufs[static_cast<std::size_t>(k)]->get();
        fill_pattern(buf, bufs[static_cast<std::size_t>(k)]->size(), 50 + k);
        if (!system) {
          tempi::set_send_mode(s.mode);
        }
        MPI_Request *req = &reqs[static_cast<std::size_t>(k)];
        if (s.persistent) {
          ASSERT_EQ(MPI_Recv_init(buf, 1, s.type, 0, k, MPI_COMM_WORLD, req),
                    MPI_SUCCESS);
          ASSERT_EQ(MPI_Start(req), MPI_SUCCESS);
        } else {
          ASSERT_EQ(MPI_Irecv(buf, 1, s.type, 0, k, MPI_COMM_WORLD, req),
                    MPI_SUCCESS);
        }
      }
      std::memset(bufs.back()->get(), 0, bufs.back()->size());
      ASSERT_EQ(MPI_Irecv(bufs.back()->get(), kHostInts, MPI_INT, 0, host,
                          MPI_COMM_WORLD, &reqs.back()),
                MPI_SUCCESS);
      tempi::set_send_mode(sender_mode);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 100, MPI_COMM_WORLD);

      std::vector<MPI_Status> statuses(reqs.size());
      ASSERT_EQ(MPI_Waitall(static_cast<int>(reqs.size()), reqs.data(),
                            statuses.data()),
                MPI_SUCCESS);
      for (std::size_t k = 0; k < bufs.size(); ++k) {
        result.buffers.emplace_back(bufs[k]->bytes(),
                                    bufs[k]->bytes() + bufs[k]->size());
        const MPI_Datatype type =
            k < slots.size() ? slots[k].type : MPI_INT;
        int n = -1;
        MPI_Get_count(&statuses[k], type, &n);
        result.statuses.push_back(
            {statuses[k].MPI_SOURCE, statuses[k].MPI_TAG, n});
      }
      ASSERT_EQ(MPI_Request_free(&reqs[5]), MPI_SUCCESS);
    }
    for (MPI_Datatype *t : {&small, &big, &indexed}) {
      MPI_Type_free(t);
    }
    MPI_Finalize();
  });
  tempi::set_send_mode(SendMode::Auto);
  tempi::set_blocklist_fallback(old_blocklist);
  tempi::set_wire_chunk_limit(old_limit);
  return result;
}

TEST_F(TempiAsync, MixedWaitallMatchesSystemPath) {
  const MixedResult reference = mixed_waitall(tempi::SendMode::System);
  ASSERT_EQ(counter("tempi.engine.irecvs"), 0u);
  const std::uint64_t launches = fused_launches();
  const std::uint64_t fused = fused_unpacks();
  const MixedResult tempi_run = mixed_waitall(tempi::SendMode::Auto);
  // Six engine ops (the channel and the host receive are not ops); only
  // the three Device/OneShot receives fuse, into one launch.
  EXPECT_EQ(counter("tempi.engine.irecvs"), 6u);
  EXPECT_EQ(fused_unpacks() - fused, 3u);
  EXPECT_EQ(fused_launches() - launches, 1u);
  ASSERT_EQ(tempi_run.buffers.size(), reference.buffers.size());
  for (std::size_t k = 0; k < reference.buffers.size(); ++k) {
    EXPECT_EQ(tempi_run.buffers[k], reference.buffers[k]) << "slot " << k;
    EXPECT_EQ(tempi_run.statuses[k], reference.statuses[k]) << "slot " << k;
  }
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

/// What rank 1 of rendezvous_waitall saw: its Waitall's Irecv spans, the
/// packed size of the rendezvous message, and whether each buffer holds
/// the bytes its sender filled it with.
struct RendezvousRun {
  std::vector<tempi::trace::SpanRecord> spans;
  std::size_t huge_bytes = 0;
  std::array<bool, 3> intact{};
};

/// Rank 0 sends an eager message on tag 1, a rendezvous one on tag
/// `huge_tag` and an eager one on tag 3; rank 1 posts their three
/// receives in that order and completes them in one traced Waitall. With
/// `huge_tag` 1 the rendezvous message follows the first one on its tag.
RendezvousRun rendezvous_waitall(int huge_tag) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  RendezvousRun out;
  tempi::trace::reset();
  tempi::trace::set_enabled(true);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype small = nullptr, huge = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_FLOAT, &small);
    MPI_Type_vector(8192, 4, 6, MPI_FLOAT, &huge); // 128 KiB packed
    MPI_Type_commit(&small);
    MPI_Type_commit(&huge);
    MPI_Aint lb = 0, small_ext = 0, huge_ext = 0;
    MPI_Type_get_extent(small, &lb, &small_ext);
    MPI_Type_get_extent(huge, &lb, &huge_ext);
    SpaceBuffer a(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(small_ext));
    SpaceBuffer r(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(huge_ext));
    SpaceBuffer b(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(small_ext));
    const std::array<std::pair<SpaceBuffer *, MPI_Datatype>, 3> slots = {
        {{&a, small}, {&r, huge}, {&b, small}}};
    const std::array<int, 3> tags = {1, huge_tag, 3};
    if (rank == 0) {
      for (std::size_t k = 0; k < slots.size(); ++k) {
        fill_pattern(slots[k].first->get(), slots[k].first->size(),
                     static_cast<unsigned>(k + 1));
        MPI_Send(slots[k].first->get(), 1, slots[k].second, 1, tags[k],
                 MPI_COMM_WORLD);
      }
    } else {
      out.huge_bytes = static_cast<std::size_t>(huge->size);
      MPI_Request reqs[3];
      for (std::size_t k = 0; k < slots.size(); ++k) {
        MPI_Irecv(slots[k].first->get(), 1, slots[k].second, 0, tags[k],
                  MPI_COMM_WORLD, &reqs[k]);
      }
      ASSERT_EQ(MPI_Waitall(3, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
      for (std::size_t k = 0; k < slots.size(); ++k) {
        std::vector<std::byte> expect(slots[k].first->size());
        fill_pattern(expect.data(), expect.size(),
                     static_cast<unsigned>(k + 1));
        out.intact[k] = reference_pack(slots[k].first->get(), 1,
                                       *slots[k].second) ==
                        reference_pack(expect.data(), 1, *slots[k].second);
      }
    }
    MPI_Type_free(&small);
    MPI_Type_free(&huge);
    MPI_Finalize();
  });
  for (const tempi::trace::SpanRecord &s : tempi::trace_snapshot().spans) {
    if (s.kind == tempi::trace::OpKind::Irecv) {
      out.spans.push_back(s);
    }
  }
  tempi::trace::set_enabled(false);
  tempi::trace::reset();
  return out;
}

TEST_F(TempiAsync, RendezvousReceiveSplitsTheFusedBatch) {
  // Eager, rendezvous, eager on three tags: the rendezvous receive is
  // matched first, so its wire is not kept waiting behind eager messages
  // that already arrived, and with nothing pending before it the batch
  // is not split: all three unpacks go out in one flush, after its wire.
  std::uint64_t launches = fused_launches();
  std::uint64_t fused = fused_unpacks();
  RendezvousRun run = rendezvous_waitall(2);
  ASSERT_GT(run.huge_bytes, sysmpi::net_params().eager_bytes);
  EXPECT_EQ(run.intact, (std::array<bool, 3>{true, true, true}));
  EXPECT_EQ(fused_unpacks() - fused, 3u);
  EXPECT_EQ(fused_launches() - launches, 1u);
  std::vector<tempi::trace::SpanRecord> wires, unpacks;
  for (const tempi::trace::SpanRecord &s : run.spans) {
    if (s.phase == tempi::trace::Phase::Wire) {
      wires.push_back(s);
    } else if (s.phase == tempi::trace::Phase::Unpack) {
      unpacks.push_back(s);
    }
  }
  ASSERT_EQ(wires.size(), 3u);
  const auto first_wire = std::min_element(
      wires.begin(), wires.end(),
      [](const auto &x, const auto &y) { return x.t0 < y.t0; });
  EXPECT_EQ(first_wire->bytes, run.huge_bytes);
  for (auto w = wires.begin(); w != wires.end(); ++w) {
    if (w != first_wire) {
      EXPECT_LE(first_wire->t1, w->t0); // the eager wires wait behind it
    }
  }
  ASSERT_EQ(unpacks.size(), 1u);
  EXPECT_GE(unpacks.front().t0, first_wire->t1);
  EXPECT_EQ(unpacks.front().bytes, 2 * 512u + run.huge_bytes);

  // The rendezvous message on the first receive's tag: that receive may
  // take it, so the rendezvous receive keeps its place and splits the
  // batch as before. The first eager unpack launches before its wire
  // wait (so it runs under it), the rest at the end.
  launches = fused_launches();
  fused = fused_unpacks();
  run = rendezvous_waitall(1);
  EXPECT_EQ(run.intact, (std::array<bool, 3>{true, true, true}));
  EXPECT_EQ(fused_unpacks() - fused, 3u);
  EXPECT_EQ(fused_launches() - launches, 2u);
  unpacks.clear();
  const tempi::trace::SpanRecord *huge_wire = nullptr;
  for (const tempi::trace::SpanRecord &s : run.spans) {
    if (s.phase == tempi::trace::Phase::Unpack) {
      unpacks.push_back(s);
    } else if (s.phase == tempi::trace::Phase::Wire &&
               s.bytes == run.huge_bytes) {
      huge_wire = &s;
    }
  }
  ASSERT_EQ(unpacks.size(), 2u);
  ASSERT_NE(huge_wire, nullptr);
  const auto first = std::min_element(
      unpacks.begin(), unpacks.end(),
      [](const auto &x, const auto &y) { return x.t0 < y.t0; });
  EXPECT_LE(first->t1, huge_wire->t0);
  EXPECT_EQ(first->bytes, 512u); // only the first eager receive
}

/// The entry posted ahead of the rendezvous receive in
/// blocked_rendezvous_waitall, one that could take its message first.
enum class Earlier { SameTag, AnySource, AnyTag, Forwarded };

struct BlockedRun {
  std::vector<std::vector<std::byte>> buffers;
  std::vector<std::array<long long, 4>> statuses;
  int code = MPI_SUCCESS;
  std::uint64_t launches = 0;
};

/// Rank 0 sends an eager message on tag 1, two messages on tag 2 (the
/// first eager for SameTag, else rendezvous-sized, the second rendezvous-
/// sized) and an eager one on tag 3. Rank 1 posts, in order, an eager
/// receive on tag 1, the `earlier` receive that could match the first tag-2
/// message, a rendezvous receive on tag 2 and an eager one on tag 3, and
/// completes them in one Waitall. If the rendezvous receive went first it
/// would take the first tag-2 message.
BlockedRun blocked_rendezvous_waitall(tempi::SendMode mode, Earlier earlier) {
  tempi::set_send_mode(mode);
  BlockedRun out;
  const std::uint64_t launches = fused_launches();
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype small = nullptr, huge = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_FLOAT, &small);
    MPI_Type_vector(8192, 4, 6, MPI_FLOAT, &huge); // 128 KiB packed
    MPI_Type_commit(&small);
    MPI_Type_commit(&huge);
    MPI_Aint lb = 0, small_ext = 0, huge_ext = 0;
    MPI_Type_get_extent(small, &lb, &small_ext);
    MPI_Type_get_extent(huge, &lb, &huge_ext);
    const MPI_Datatype first = earlier == Earlier::SameTag ? small : huge;
    const std::array<MPI_Datatype, 4> types = {small, first, huge, small};
    const std::array<int, 4> tags = {1, 2, 2, 3};
    std::vector<std::unique_ptr<SpaceBuffer>> bufs;
    for (std::size_t k = 0; k < types.size(); ++k) {
      const vcuda::MemorySpace space =
          k == 1 && earlier == Earlier::Forwarded
              ? vcuda::MemorySpace::Pageable
              : vcuda::MemorySpace::Device;
      bufs.push_back(std::make_unique<SpaceBuffer>(
          space,
          static_cast<std::size_t>(types[k] == small ? small_ext : huge_ext)));
      fill_pattern(bufs[k]->get(), bufs[k]->size(),
                   static_cast<unsigned>(10 * rank + k + 1));
    }
    if (rank == 0) {
      for (std::size_t k = 0; k < types.size(); ++k) {
        MPI_Send(bufs[k]->get(), 1, types[k], 1, tags[k], MPI_COMM_WORLD);
      }
    } else {
      std::array<int, 4> sources = {0, 0, 0, 0};
      std::array<int, 4> recv_tags = tags;
      if (earlier == Earlier::AnySource) {
        sources[1] = MPI_ANY_SOURCE;
      } else if (earlier == Earlier::AnyTag) {
        recv_tags[1] = MPI_ANY_TAG;
      }
      std::array<MPI_Request, 4> reqs{};
      for (std::size_t k = 0; k < types.size(); ++k) {
        EXPECT_EQ(MPI_Irecv(bufs[k]->get(), 1, types[k], sources[k],
                            recv_tags[k], MPI_COMM_WORLD, &reqs[k]),
                  MPI_SUCCESS);
      }
      std::array<MPI_Status, 4> st{};
      out.code = MPI_Waitall(4, reqs.data(), st.data());
      for (std::size_t k = 0; k < types.size(); ++k) {
        out.buffers.emplace_back(bufs[k]->bytes(),
                                 bufs[k]->bytes() + bufs[k]->size());
        out.statuses.push_back({st[k].MPI_SOURCE, st[k].MPI_TAG,
                                st[k].MPI_ERROR, st[k].count_bytes});
      }
    }
    MPI_Type_free(&small);
    MPI_Type_free(&huge);
    MPI_Finalize();
  });
  out.launches = fused_launches() - launches;
  tempi::set_send_mode(tempi::SendMode::Auto);
  return out;
}

// A rendezvous receive is never handled ahead of an earlier entry that
// could take its message: a receive of the same (source, tag), a wildcard
// receive, or a receive forwarded to the system MPI. Each ends exactly as
// on the system path, and the batch splits where it did before hoisting.
TEST_F(TempiAsync, RendezvousReceiveNeverPassesAnEarlierMatch) {
  const struct {
    Earlier earlier;
    const char *name;
    std::uint64_t launches;
  } cases[] = {
      // A flush before the rendezvous wire wait, one at the end.
      {Earlier::SameTag, "same tag", 2},
      // The wildcard receive's own rendezvous wait flushes first.
      {Earlier::AnySource, "MPI_ANY_SOURCE", 3},
      {Earlier::AnyTag, "MPI_ANY_TAG", 3},
      // The forwarded receive unpacks nothing of the batch's.
      {Earlier::Forwarded, "forwarded host receive", 2},
  };
  for (const auto &c : cases) {
    const BlockedRun reference =
        blocked_rendezvous_waitall(tempi::SendMode::System, c.earlier);
    const BlockedRun seen =
        blocked_rendezvous_waitall(tempi::SendMode::ForceDevice, c.earlier);
    EXPECT_EQ(seen.code, reference.code) << c.name;
    EXPECT_EQ(seen.code, MPI_SUCCESS) << c.name;
    EXPECT_EQ(seen.statuses, reference.statuses) << c.name;
    EXPECT_EQ(seen.buffers, reference.buffers) << c.name;
    EXPECT_EQ(seen.launches, c.launches) << c.name;
  }
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

TEST_F(TempiAsync, FailedReceiveMidBatchStillUnpacksLandedWires) {
  // The second receive's message is larger than its buffer: Waitall
  // returns MPI_ERR_TRUNCATE, yet the first receive, whose wire already
  // landed in a pending fused batch, must still hold its data.
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  const std::size_t leased_before = tempi::buffer_cache_stats().leased_now;
  const std::uint64_t launches = fused_launches();
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer a(vcuda::MemorySpace::Device, static_cast<std::size_t>(extent));
    SpaceBuffer b(vcuda::MemorySpace::Device, static_cast<std::size_t>(extent));
    if (rank == 0) {
      fill_pattern(a.get(), a.size(), 4);
      MPI_Send(a.get(), 1, t, 1, 1, MPI_COMM_WORLD);
      std::vector<std::byte> oversized(4 * static_cast<std::size_t>(t->size));
      MPI_Send(oversized.data(), static_cast<int>(oversized.size()), MPI_BYTE,
               1, 2, MPI_COMM_WORLD);
    } else {
      std::memset(a.get(), 0, a.size());
      MPI_Request reqs[2];
      MPI_Irecv(a.get(), 1, t, 0, 1, MPI_COMM_WORLD, &reqs[0]);
      MPI_Irecv(b.get(), 1, t, 0, 2, MPI_COMM_WORLD, &reqs[1]);
      EXPECT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_ERR_TRUNCATE);
      EXPECT_EQ(reqs[0], MPI_REQUEST_NULL);
      EXPECT_EQ(reqs[1], MPI_REQUEST_NULL);
      EXPECT_EQ(tempi::async::in_flight(), 0u);
      std::vector<std::byte> expect(a.size());
      fill_pattern(expect.data(), expect.size(), 4);
      EXPECT_EQ(reference_pack(a.get(), 1, *t),
                reference_pack(expect.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(fused_launches() - launches, 1u);
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased_before);
}

TEST_F(TempiAsync, WaitallOverPrePackedDeviceLegsMakesNoStreamSyncs) {
  // Pre-packed Device legs (the collectives engine's) land in place and
  // enqueue nothing, so Waitall has no stream to synchronize.
  sysmpi::RunConfig rc;
  rc.ranks = 1;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    constexpr int kLeg = 2048;
    SpaceBuffer src(vcuda::MemorySpace::Device, 2 * kLeg);
    SpaceBuffer dst(vcuda::MemorySpace::Device, 2 * kLeg);
    fill_pattern(src.get(), src.size(), 8);
    MPI_Request reqs[2];
    for (int leg = 0; leg < 2; ++leg) {
      MPI_Send(src.bytes() + leg * kLeg, kLeg, MPI_BYTE, 0, leg,
               MPI_COMM_WORLD);
      ASSERT_EQ(tempi::async::start_irecv_packed(
                    dst.bytes() + leg * kLeg, kLeg, tempi::Method::Device, 0,
                    leg, MPI_COMM_WORLD, interpose::system_table(),
                    &reqs[leg]),
                MPI_SUCCESS);
    }
    const std::uint64_t syncs = vcuda::counters().stream_syncs;
    ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(vcuda::counters().stream_syncs - syncs, 0u);
    EXPECT_EQ(std::memcmp(src.get(), dst.get(), src.size()), 0);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.engine.batched_syncs"), 0u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

} // namespace
