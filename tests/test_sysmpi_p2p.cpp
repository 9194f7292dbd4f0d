// Point-to-point semantics on the thread-rank runtime: matching, wildcards,
// statuses, nonblocking ops, datatype sends, and the virtual-time floors of
// the CPU and CUDA-aware GPU paths.
#include "sysmpi/mpi.hpp"
#include "sysmpi/netmodel.hpp"
#include "sysmpi/world.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace {

using testing_helpers::fill_pattern;
using testing_helpers::SpaceBuffer;

void run2(const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1; // two virtual nodes
  sysmpi::run_ranks(cfg, body);
}

TEST(P2P, BlockingSendRecvMovesData) {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    std::vector<int> buf(1024);
    if (rank == 0) {
      std::iota(buf.begin(), buf.end(), 7);
      ASSERT_EQ(MPI_Send(buf.data(), 1024, MPI_INT, 1, 5, MPI_COMM_WORLD),
                MPI_SUCCESS);
    } else {
      MPI_Status status;
      ASSERT_EQ(MPI_Recv(buf.data(), 1024, MPI_INT, 0, 5, MPI_COMM_WORLD,
                         &status),
                MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 5);
      EXPECT_EQ(buf[0], 7);
      EXPECT_EQ(buf[1023], 7 + 1023);
    }
    MPI_Finalize();
  });
}

TEST(P2P, TagsMatchSelectively) {
  run2([](int rank) {
    if (rank == 0) {
      const int a = 100, b = 200;
      MPI_Send(&a, 1, MPI_INT, 1, 1, MPI_COMM_WORLD);
      MPI_Send(&b, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
    } else {
      int x = 0;
      // Receive the tag-2 message first even though tag-1 arrived first.
      MPI_Recv(&x, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(x, 200);
      MPI_Recv(&x, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(x, 100);
    }
  });
}

TEST(P2P, AnySourceAndAnyTag) {
  run2([](int rank) {
    if (rank == 0) {
      const int v = 42;
      MPI_Send(&v, 1, MPI_INT, 1, 17, MPI_COMM_WORLD);
    } else {
      int x = 0;
      MPI_Status status;
      MPI_Recv(&x, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD,
               &status);
      EXPECT_EQ(x, 42);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 17);
    }
  });
}

TEST(P2P, FifoOrderPreservedPerPeer) {
  run2([](int rank) {
    constexpr int kN = 50;
    if (rank == 0) {
      for (int i = 0; i < kN; ++i) {
        MPI_Send(&i, 1, MPI_INT, 1, 3, MPI_COMM_WORLD);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        int x = -1;
        MPI_Recv(&x, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(x, i);
      }
    }
  });
}

TEST(P2P, TruncationIsAnError) {
  run2([](int rank) {
    if (rank == 0) {
      const int v[4] = {1, 2, 3, 4};
      MPI_Send(v, 4, MPI_INT, 1, 0, MPI_COMM_WORLD);
    } else {
      int x[2];
      EXPECT_EQ(MPI_Recv(x, 2, MPI_INT, 0, 0, MPI_COMM_WORLD,
                         MPI_STATUS_IGNORE),
                MPI_ERR_TRUNCATE);
    }
  });
}

TEST(P2P, ShorterMessageThanBufferIsFine) {
  run2([](int rank) {
    if (rank == 0) {
      const int v[2] = {5, 6};
      MPI_Send(v, 2, MPI_INT, 1, 0, MPI_COMM_WORLD);
    } else {
      int x[8] = {};
      MPI_Status status;
      ASSERT_EQ(MPI_Recv(x, 8, MPI_INT, 0, 0, MPI_COMM_WORLD, &status),
                MPI_SUCCESS);
      int count = -1;
      MPI_Get_count(&status, MPI_INT, &count);
      EXPECT_EQ(count, 2);
      EXPECT_EQ(x[1], 6);
      EXPECT_EQ(x[2], 0);
    }
  });
}

TEST(P2P, ProcNullIsNoop) {
  run2([](int rank) {
    int x = 3;
    EXPECT_EQ(MPI_Send(&x, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD),
              MPI_SUCCESS);
    MPI_Status status;
    EXPECT_EQ(MPI_Recv(&x, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD,
                       &status),
              MPI_SUCCESS);
    EXPECT_EQ(status.MPI_SOURCE, MPI_PROC_NULL);
    EXPECT_EQ(x, 3);
    (void)rank;
  });
}

TEST(P2P, SendrecvExchanges) {
  run2([](int rank) {
    const int mine = rank * 10 + 1;
    int theirs = -1;
    const int peer = 1 - rank;
    ASSERT_EQ(MPI_Sendrecv(&mine, 1, MPI_INT, peer, 8, &theirs, 1, MPI_INT,
                           peer, 8, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(theirs, peer * 10 + 1);
  });
}

TEST(P2P, IsendIrecvWaitall) {
  run2([](int rank) {
    std::vector<double> out(256, rank + 1.5), in(256, 0.0);
    const int peer = 1 - rank;
    MPI_Request reqs[2];
    ASSERT_EQ(MPI_Irecv(in.data(), 256, MPI_DOUBLE, peer, 9, MPI_COMM_WORLD,
                        &reqs[0]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Isend(out.data(), 256, MPI_DOUBLE, peer, 9, MPI_COMM_WORLD,
                        &reqs[1]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(reqs[0], MPI_REQUEST_NULL);
    EXPECT_DOUBLE_EQ(in[0], peer + 1.5);
  });
}

TEST(P2P, TestPollsWithoutBlocking) {
  run2([](int rank) {
    if (rank == 0) {
      // Wait for a go-signal so the Test-before-message case is exercised.
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      const int v = 11;
      MPI_Send(&v, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
    } else {
      int x = 0;
      MPI_Request req;
      MPI_Irecv(&x, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, &req);
      int flag = -1;
      ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(flag, 0); // nothing sent yet
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 1, MPI_COMM_WORLD);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(x, 11);
    }
  });
}

TEST(P2P, DerivedTypeSendRecvScattersCorrectly) {
  run2([](int rank) {
    MPI_Datatype t = nullptr;
    ASSERT_EQ(MPI_Type_vector(16, 4, 12, MPI_BYTE, &t), MPI_SUCCESS);
    ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);

    std::vector<std::byte> buf(static_cast<std::size_t>(extent));
    if (rank == 0) {
      fill_pattern(buf.data(), buf.size(), 3);
      MPI_Send(buf.data(), 1, t, 1, 0, MPI_COMM_WORLD);
      // Also ship the raw buffer so the receiver can cross-check.
      MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 1, 1,
               MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.data(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 1,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(testing_helpers::reference_pack(buf.data(), 1, *t),
                testing_helpers::reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
  });
}

TEST(P2P, GpuFloorExceedsCpuFloor) {
  // Paper Fig. 9a: ~6 us CUDA-aware floor vs ~1.3 us pinned-host floor.
  run2([](int rank) {
    SpaceBuffer host(vcuda::MemorySpace::Pinned, 8);
    SpaceBuffer dev(vcuda::MemorySpace::Device, 8);
    const int peer = 1 - rank;

    auto half_pingpong = [&](void *buf) {
      const vcuda::VirtualNs t0 = vcuda::virtual_now();
      if (rank == 0) {
        MPI_Send(buf, 8, MPI_BYTE, peer, 0, MPI_COMM_WORLD);
        MPI_Recv(buf, 8, MPI_BYTE, peer, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
      } else {
        MPI_Recv(buf, 8, MPI_BYTE, peer, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
        MPI_Send(buf, 8, MPI_BYTE, peer, 0, MPI_COMM_WORLD);
      }
      return vcuda::ns_to_us(vcuda::virtual_now() - t0) / 2.0;
    };

    const double cpu_us = half_pingpong(host.get());
    const double gpu_us = half_pingpong(dev.get());
    if (rank == 0) {
      EXPECT_LT(cpu_us, 3.0);
      EXPECT_GT(gpu_us, 5.0);
      EXPECT_LT(gpu_us, 12.0);
    }
  });
}

TEST(P2P, IntraNodeFasterThanInterNode) {
  std::array<double, 2> half{0.0, 0.0};
  for (const int rpn : {1, 2}) {
    sysmpi::RunConfig cfg;
    cfg.ranks = 2;
    cfg.ranks_per_node = rpn;
    sysmpi::run_ranks(cfg, [&, rpn](int rank) {
      std::vector<std::byte> buf(1 << 16);
      const vcuda::VirtualNs t0 = vcuda::virtual_now();
      if (rank == 0) {
        MPI_Send(buf.data(), 1 << 16, MPI_BYTE, 1, 0, MPI_COMM_WORLD);
        MPI_Recv(buf.data(), 1 << 16, MPI_BYTE, 1, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
        half[rpn - 1] = vcuda::ns_to_us(vcuda::virtual_now() - t0) / 2.0;
      } else {
        MPI_Recv(buf.data(), 1 << 16, MPI_BYTE, 0, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
        MPI_Send(buf.data(), 1 << 16, MPI_BYTE, 0, 0, MPI_COMM_WORLD);
      }
    });
  }
  EXPECT_LT(half[1], half[0]); // same node beats cross node
}

TEST(P2P, ManyRanksRing) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 8;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [](int rank) {
    int size = 0;
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    int me = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &me);
    EXPECT_EQ(me, rank);
    const int next = (rank + 1) % size;
    const int prev = (rank + size - 1) % size;
    int token = rank;
    int got = -1;
    MPI_Sendrecv(&token, 1, MPI_INT, next, 0, &got, 1, MPI_INT, prev, 0,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(got, prev);
  });
}

TEST(P2P, PersistentSendRecvReArmAcrossIterations) {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    std::vector<int> buf(256);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Send_init(buf.data(), 256, MPI_INT, 1, 9, MPI_COMM_WORLD,
                              &req),
                MPI_SUCCESS);
      for (int it = 0; it < 3; ++it) {
        std::iota(buf.begin(), buf.end(), it * 1000);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_NE(req, MPI_REQUEST_NULL); // persistent handles survive
      }
    } else {
      ASSERT_EQ(MPI_Recv_init(buf.data(), 256, MPI_INT, 0, 9, MPI_COMM_WORLD,
                              &req),
                MPI_SUCCESS);
      for (int it = 0; it < 3; ++it) {
        std::fill(buf.begin(), buf.end(), -1);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        MPI_Status status;
        ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
        EXPECT_EQ(status.MPI_SOURCE, 0);
        EXPECT_EQ(status.MPI_TAG, 9);
        EXPECT_EQ(buf[0], it * 1000);
        EXPECT_EQ(buf[255], it * 1000 + 255);
      }
    }
    ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    EXPECT_EQ(req, MPI_REQUEST_NULL);
    MPI_Finalize();
  });
}

TEST(P2P, PersistentStartValidation) {
  sysmpi::ensure_self_context();
  int x = 0;
  MPI_Request req = MPI_REQUEST_NULL;
  // Start on a non-persistent request (a plain Isend's) is erroneous.
  ASSERT_EQ(MPI_Isend(&x, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  EXPECT_EQ(MPI_Start(&req), MPI_ERR_ARG);
  // Drain the self-send so the mailbox stays clean.
  int y = 0;
  MPI_Recv(&y, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  // Start on an armed persistent request is erroneous too.
  ASSERT_EQ(MPI_Send_init(&x, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
  EXPECT_EQ(MPI_Start(&req), MPI_ERR_ARG);
  ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  // Inactive again: Wait completes immediately with an empty status...
  MPI_Status status;
  status.MPI_SOURCE = 123;
  ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
  EXPECT_EQ(status.MPI_SOURCE, -1);
  // ... while the *any/*some sweeps IGNORE inactive persistent requests
  // like null slots (a drain loop must not rediscover them forever).
  int flag = 0, index = 0;
  ASSERT_EQ(MPI_Testany(1, &req, &index, &flag, MPI_STATUS_IGNORE),
            MPI_SUCCESS);
  EXPECT_EQ(flag, 1);
  EXPECT_EQ(index, MPI_UNDEFINED);
  int outcount = 0, indices[1] = {-1};
  ASSERT_EQ(MPI_Testsome(1, &req, &outcount, indices, MPI_STATUSES_IGNORE),
            MPI_SUCCESS);
  EXPECT_EQ(outcount, MPI_UNDEFINED);
  ASSERT_EQ(MPI_Waitany(1, &req, &index, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(index, MPI_UNDEFINED);
  ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
  MPI_Recv(&y, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
}

TEST(P2P, WaitsomeReturnsEveryCompletionOfTheSweep) {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    if (rank == 0) {
      int a = 11, b = 22;
      MPI_Send(&a, 1, MPI_INT, 1, 1, MPI_COMM_WORLD);
      MPI_Send(&b, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
    } else {
      int a = 0, b = 0;
      MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                             MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Irecv(&a, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Irecv(&b, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, &reqs[2]),
                MPI_SUCCESS);
      int outcount = 0;
      int indices[3] = {-1, -1, -1};
      MPI_Status statuses[3];
      int got = 0;
      while (got < 2) {
        ASSERT_EQ(MPI_Waitsome(3, reqs, &outcount, indices, statuses),
                  MPI_SUCCESS);
        ASSERT_NE(outcount, MPI_UNDEFINED);
        ASSERT_GT(outcount, 0);
        got += outcount;
      }
      EXPECT_EQ(a, 11);
      EXPECT_EQ(b, 22);
      for (MPI_Request r : reqs) {
        EXPECT_EQ(r, MPI_REQUEST_NULL);
      }
      // Nothing active left: MPI_UNDEFINED.
      ASSERT_EQ(MPI_Waitsome(3, reqs, &outcount, indices, statuses),
                MPI_SUCCESS);
      EXPECT_EQ(outcount, MPI_UNDEFINED);
    }
    MPI_Finalize();
  });
}

TEST(P2P, TestallTestanyTestsomeProgressMixedArrays) {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    if (rank == 0) {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 50, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      int v = 33;
      MPI_Send(&v, 1, MPI_INT, 1, 51, MPI_COMM_WORLD);
    } else {
      int v = 0;
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(&v, 1, MPI_INT, 0, 51, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // Nothing sent yet: Testany reports no completion; Testall stays 0;
      // Testsome returns an empty completion set.
      int flag = 1, index = 0;
      ASSERT_EQ(MPI_Testany(1, &req, &index, &flag, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      ASSERT_EQ(MPI_Testall(1, &req, &flag, MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      int outcount = -1, indices[1] = {-1};
      ASSERT_EQ(MPI_Testsome(1, &req, &outcount, indices,
                             MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(outcount, 0);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 50, MPI_COMM_WORLD);
      while (flag == 0) {
        ASSERT_EQ(MPI_Testany(1, &req, &index, &flag, MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
      }
      EXPECT_EQ(index, 0);
      EXPECT_EQ(v, 33);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      // All-null array: Testany flags complete with MPI_UNDEFINED, and
      // Testsome reports MPI_UNDEFINED, per MPI.
      ASSERT_EQ(MPI_Testany(1, &req, &index, &flag, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 1);
      EXPECT_EQ(index, MPI_UNDEFINED);
      ASSERT_EQ(MPI_Testsome(1, &req, &outcount, indices,
                             MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(outcount, MPI_UNDEFINED);
    }
    MPI_Finalize();
  });
}

// A helper thread attached to rank 0 sends as rank 0 and is not the rank's
// main thread; once the attachment ends the thread is attached to no rank.
TEST(RankAttachment, HelperThreadActsAsItsRank) {
  run2([](int rank) {
    int provided = 0;
    MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
    if (rank == 0) {
      const sysmpi::RankCtx ctx = sysmpi::this_rank();
      std::thread([&ctx] {
        {
          const sysmpi::RankAttachment attach(ctx);
          int me = -1;
          int level = -1;
          int is_main = 1;
          EXPECT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &me), MPI_SUCCESS);
          EXPECT_EQ(me, 0);
          EXPECT_EQ(MPI_Query_thread(&level), MPI_SUCCESS);
          EXPECT_EQ(level, MPI_THREAD_MULTIPLE);
          EXPECT_EQ(MPI_Is_thread_main(&is_main), MPI_SUCCESS);
          EXPECT_EQ(is_main, 0);
          const int value = 42;
          EXPECT_EQ(MPI_Send(&value, 1, MPI_INT, 1, 3, MPI_COMM_WORLD),
                    MPI_SUCCESS);
        }
        EXPECT_EQ(sysmpi::this_rank().world_comm, nullptr);
      }).join();
      int is_main = 0;
      MPI_Is_thread_main(&is_main);
      EXPECT_EQ(is_main, 1);
    } else {
      int value = 0;
      MPI_Status status;
      ASSERT_EQ(MPI_Recv(&value, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, &status),
                MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(value, 42);
    }
    MPI_Finalize();
  });
}

// MPI_COMM_WORLD on a thread attached to no rank is an error: Debug builds
// assert, Release builds name it on stderr (once per thread) instead of
// letting the call fail silently.
TEST(RankAttachment, UnattachedThreadReportsWorldUse) {
#ifdef NDEBUG
  std::thread([] {
    ::testing::internal::CaptureStderr();
    const MPI_Comm first = MPI_COMM_WORLD;
    const MPI_Comm second = MPI_COMM_WORLD;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(first, nullptr);
    EXPECT_EQ(second, nullptr);
    EXPECT_NE(err.find("MPI_COMM_WORLD on a thread attached to no rank"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("attached to no rank"),
              err.rfind("attached to no rank")); // reported once
  }).join();
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(std::thread([] { (void)MPI_COMM_WORLD; }).join(),
               "outside run_ranks");
#endif
}

} // namespace
