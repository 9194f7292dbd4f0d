// End-to-end datatype-accelerated MPI_Send/MPI_Recv between two ranks:
// correctness for every packing method, model-based auto selection, the
// baseline comparison (Fig. 11), and the latency floor structure.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <string>
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

/// One send/recv of a strided device object rank0 -> rank1; returns the
/// receiver-observed latency and verifies bytes, for a given send mode.
void exchange_and_check(tempi::SendMode mode, int vcount, int blocklen,
                        int stride_elems, double *latency_us = nullptr) {
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
      fill_pattern(buf.get(), buf.size(), 11);
      // Warm-up round: populates TEMPI's intermediate-buffer caches so the
      // measured round reflects steady-state latency, as in the paper's
      // iterated ping-pongs.
      MPI_Send(buf.get(), 1, t, 1, 41, MPI_COMM_WORLD);
      int ack = 0;
      MPI_Recv(&ack, 1, MPI_INT, 1, 44, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(buf.get(), 1, t, 1, 42, MPI_COMM_WORLD);
      // Cross-check channel: the raw allocation as plain bytes.
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 43,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Status status;
      MPI_Recv(buf.get(), 1, t, 0, 41, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      const int ack = 1;
      MPI_Send(&ack, 1, MPI_INT, 0, 44, MPI_COMM_WORLD);
      const vcuda::VirtualNs t0 = vcuda::virtual_now();
      ASSERT_EQ(MPI_Recv(buf.get(), 1, t, 0, 42, MPI_COMM_WORLD, &status),
                MPI_SUCCESS);
      const vcuda::VirtualNs t1 = vcuda::virtual_now();
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 42);

      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 43,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t))
          << "mode " << static_cast<int>(mode);
      if (latency_us != nullptr) {
        *latency_us = vcuda::ns_to_us(t1 - t0);
      }
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
}

class TempiSend : public ::testing::Test {
protected:
  void SetUp() override { tempi::install(); }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::uninstall();
  }
};

TEST_F(TempiSend, DeviceMethodDeliversCorrectBytes) {
  exchange_and_check(tempi::SendMode::ForceDevice, 64, 8, 24);
}

TEST_F(TempiSend, OneShotMethodDeliversCorrectBytes) {
  exchange_and_check(tempi::SendMode::ForceOneShot, 64, 8, 24);
}

TEST_F(TempiSend, StagedMethodDeliversCorrectBytes) {
  exchange_and_check(tempi::SendMode::ForceStaged, 64, 8, 24);
}

TEST_F(TempiSend, AutoDeliversCorrectBytes) {
  exchange_and_check(tempi::SendMode::Auto, 128, 2, 10);
}

TEST_F(TempiSend, SystemModeStillCorrectJustSlow) {
  exchange_and_check(tempi::SendMode::System, 32, 4, 12);
}

TEST_F(TempiSend, AutoPicksOneShotForSmallObjects) {
  tempi::trace::reset_counters();
  // ~1 KiB object with 64 B blocks: the small-object regime.
  exchange_and_check(tempi::SendMode::Auto, 16, 16, 32);
  EXPECT_EQ(counter("tempi.send.oneshot"), 2u); // warm-up + measured round
  EXPECT_EQ(counter("tempi.send.device"), 0u);
}

TEST_F(TempiSend, AutoPicksDeviceForLargeSmallBlockObjects) {
  tempi::trace::reset_counters();
  // 4 MiB object of 4 B blocks: the large/fragmented regime.
  exchange_and_check(tempi::SendMode::Auto, 1 << 20, 1, 4);
  EXPECT_EQ(counter("tempi.send.device"), 2u); // warm-up + measured round
  EXPECT_EQ(counter("tempi.send.oneshot"), 0u);
}

TEST_F(TempiSend, AutoTracksTheFasterForcedMethod) {
  // Fig. 11b: auto should be within a whisker of min(one-shot, device).
  for (const auto &[vcount, blocklen] :
       {std::pair{512, 8}, std::pair{2048, 64}, std::pair{64, 4}}) {
    double oneshot = 0.0, device = 0.0, autosel = 0.0;
    exchange_and_check(tempi::SendMode::ForceOneShot, vcount, blocklen,
                       blocklen * 2, &oneshot);
    exchange_and_check(tempi::SendMode::ForceDevice, vcount, blocklen,
                       blocklen * 2, &device);
    exchange_and_check(tempi::SendMode::Auto, vcount, blocklen, blocklen * 2,
                       &autosel);
    const double best = std::min(oneshot, device);
    EXPECT_LE(autosel, best * 1.10 + 3.0)
        << "vcount " << vcount << " blocklen " << blocklen << ": auto "
        << autosel << " vs best " << best;
  }
}

TEST_F(TempiSend, MassiveSpeedupOverBaselineForFragmentedObjects) {
  // The Fig. 11a headline: fragmented device objects are catastrophically
  // slow through the baseline and fast through TEMPI.
  double baseline = 0.0, accelerated = 0.0;
  exchange_and_check(tempi::SendMode::System, 8192, 1, 4, &baseline);
  exchange_and_check(tempi::SendMode::Auto, 8192, 1, 4, &accelerated);
  EXPECT_GT(baseline / accelerated, 100.0)
      << "baseline " << baseline << " us vs tempi " << accelerated << " us";
}

TEST_F(TempiSend, LatencyFloorIsTensOfMicroseconds) {
  // Sec. 6.3: ~30 us floor, mostly the two pack/unpack kernels.
  double us = 0.0;
  exchange_and_check(tempi::SendMode::ForceDevice, 8, 4, 8, &us);
  EXPECT_GT(us, 15.0);
  EXPECT_LT(us, 80.0);
}

TEST_F(TempiSend, ContiguousTypesForwardToSystem) {
  tempi::trace::reset_counters();
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_contiguous(1024, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    SpaceBuffer buf(vcuda::MemorySpace::Device, 4096);
    if (rank == 0) {
      fill_pattern(buf.get(), 4096);
      MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.send.forwarded"), 1u);
  EXPECT_EQ(counter("tempi.send.oneshot") + counter("tempi.send.device") +
                counter("tempi.send.staged"),
            0u);
}

TEST_F(TempiSend, HostBuffersForwardToSystem) {
  tempi::trace::reset_counters();
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 2, 4, MPI_INT, &t);
    MPI_Type_commit(&t);
    std::vector<int> buf(16 * 4, rank);
    if (rank == 0) {
      MPI_Send(buf.data(), 1, t, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.data(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(buf[0], 0);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.send.forwarded"), 1u);
}

std::uint64_t blocking_send_decisions() {
  return counter("tempi.send.oneshot") + counter("tempi.send.device") +
         counter("tempi.send.staged") + counter("tempi.send.pipelined") +
         counter("tempi.send.forwarded");
}

TEST_F(TempiSend, ProcNullPeersAreNoOps) {
  // Blocking Send/Recv with an MPI_PROC_NULL peer complete at once and
  // move nothing, as MPI_Isend/MPI_Irecv already do: the receive leaves
  // its buffer bitwise unchanged and reports MPI_PROC_NULL with count 0,
  // and the send makes no TEMPI method decision.
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(64, 4, 16, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent));
    // One real exchange first, so the intermediate-buffer cache holds
    // bytes that a spurious unpack would copy out.
    fill_pattern(buf.get(), buf.size(), 5);
    if (rank == 0) {
      ASSERT_EQ(MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD,
                         MPI_STATUS_IGNORE),
                MPI_SUCCESS);
    }
    MPI_Barrier(MPI_COMM_WORLD);
    if (rank == 0) {
      const std::uint64_t decisions = blocking_send_decisions();
      ASSERT_EQ(MPI_Send(buf.get(), 1, t, MPI_PROC_NULL, 1, MPI_COMM_WORLD),
                MPI_SUCCESS);
      EXPECT_EQ(blocking_send_decisions(), decisions);
    } else {
      fill_pattern(buf.get(), buf.size(), 9);
      const std::vector<std::byte> before(buf.bytes(),
                                          buf.bytes() + buf.size());
      MPI_Status status{};
      ASSERT_EQ(MPI_Recv(buf.get(), 1, t, MPI_PROC_NULL, 1, MPI_COMM_WORLD,
                         &status),
                MPI_SUCCESS);
      EXPECT_EQ(std::memcmp(buf.get(), before.data(), before.size()), 0);
      EXPECT_EQ(status.MPI_SOURCE, MPI_PROC_NULL);
      int count = -1;
      ASSERT_EQ(MPI_Get_count(&status, t, &count), MPI_SUCCESS);
      EXPECT_EQ(count, 0);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiSend, MultiCountObjectsArriveIntact) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(8, 4, 12, MPI_DOUBLE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    constexpr int kCount = 3;
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) * kCount + 128);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 5);
      MPI_Send(buf.get(), kCount, t, 1, 0, MPI_COMM_WORLD);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 1,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Recv(buf.get(), kCount, t, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 1,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), kCount, *t),
                reference_pack(raw.data(), kCount, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

/// The receive calls a short message can land through.
enum class RecvPath { Recv, IrecvWait, IrecvWaitall, Persistent };

/// Rank 0 sends messages of 4, 2, 0, 4, 2, 4 and 1.5 vector objects (the
/// last as plain bytes); rank 1 receives each through `path`, posted for
/// 4 objects into one poisoned device buffer (a persistent path re-arms
/// one channel). Every round repeats one receive key, so from the second
/// round on each path runs from a recorded or frozen program, and full
/// and short messages alternate on it. Returns, per message, the whole
/// receive buffer followed by MPI_SOURCE, MPI_TAG, MPI_Get_count and the
/// byte count, for comparison against the system path.
std::vector<std::byte> short_receive_rounds(tempi::SendMode mode,
                                            RecvPath path) {
  constexpr int kPosted = 4;
  constexpr int kTag = 3;
  constexpr std::array<int, 6> kSent = {4, 2, 0, 4, 2, 4};
  tempi::set_send_mode(mode);
  std::vector<std::byte> seen;
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 12, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    int size = 0;
    MPI_Type_size(t, &size);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) * kPosted);
    const int rounds = static_cast<int>(kSent.size()) + 1;
    if (rank == 0) {
      for (int r = 0; r < rounds; ++r) {
        fill_pattern(buf.get(), buf.size(), 50 + r);
        if (r < static_cast<int>(kSent.size())) {
          ASSERT_EQ(MPI_Send(buf.get(), kSent[static_cast<std::size_t>(r)],
                             t, 1, kTag, MPI_COMM_WORLD),
                    MPI_SUCCESS);
        } else {
          std::vector<std::byte> partial(static_cast<std::size_t>(size) +
                                         size / 2);
          fill_pattern(partial.data(), partial.size(), 50 + r);
          ASSERT_EQ(MPI_Send(partial.data(), static_cast<int>(partial.size()),
                             MPI_BYTE, 1, kTag, MPI_COMM_WORLD),
                    MPI_SUCCESS);
        }
      }
    } else {
      MPI_Request channel = MPI_REQUEST_NULL;
      if (path == RecvPath::Persistent) {
        ASSERT_EQ(MPI_Recv_init(buf.get(), kPosted, t, 0, kTag,
                                MPI_COMM_WORLD, &channel),
                  MPI_SUCCESS);
      }
      for (int r = 0; r < rounds; ++r) {
        fill_pattern(buf.get(), buf.size(), 90 + r);
        MPI_Status status{};
        MPI_Request req = MPI_REQUEST_NULL;
        switch (path) {
        case RecvPath::Recv:
          ASSERT_EQ(MPI_Recv(buf.get(), kPosted, t, 0, kTag, MPI_COMM_WORLD,
                             &status),
                    MPI_SUCCESS);
          break;
        case RecvPath::IrecvWait:
        case RecvPath::IrecvWaitall:
          ASSERT_EQ(MPI_Irecv(buf.get(), kPosted, t, 0, kTag,
                              MPI_COMM_WORLD, &req),
                    MPI_SUCCESS);
          ASSERT_EQ(path == RecvPath::IrecvWait
                        ? MPI_Wait(&req, &status)
                        : MPI_Waitall(1, &req, &status),
                    MPI_SUCCESS);
          break;
        case RecvPath::Persistent:
          ASSERT_EQ(MPI_Start(&channel), MPI_SUCCESS);
          ASSERT_EQ(MPI_Wait(&channel, &status), MPI_SUCCESS);
          break;
        }
        int got = -1;
        ASSERT_EQ(MPI_Get_count(&status, t, &got), MPI_SUCCESS);
        seen.insert(seen.end(), buf.bytes(), buf.bytes() + buf.size());
        for (const long long v :
             {static_cast<long long>(status.MPI_SOURCE),
              static_cast<long long>(status.MPI_TAG),
              static_cast<long long>(got), status.count_bytes}) {
          const auto *p = reinterpret_cast<const std::byte *>(&v);
          seen.insert(seen.end(), p, p + sizeof(v));
        }
      }
      if (channel != MPI_REQUEST_NULL) {
        ASSERT_EQ(MPI_Request_free(&channel), MPI_SUCCESS);
      }
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  return seen;
}

TEST_F(TempiSend, ShortMessagesMatchTheSystemPathOnEveryReceivePath) {
  // A receive posted for more objects than arrive unpacks only the whole
  // objects that arrived, leaves the rest of the buffer untouched and
  // reports the message's own length, on every accelerated receive path,
  // replayed programs included.
  for (const RecvPath path : {RecvPath::Recv, RecvPath::IrecvWait,
                              RecvPath::IrecvWaitall, RecvPath::Persistent}) {
    const std::vector<std::byte> system =
        short_receive_rounds(tempi::SendMode::System, path);
    ASSERT_FALSE(system.empty());
    for (const tempi::SendMode mode :
         {tempi::SendMode::ForceOneShot, tempi::SendMode::ForceDevice,
          tempi::SendMode::ForceStaged, tempi::SendMode::Auto}) {
      EXPECT_TRUE(short_receive_rounds(mode, path) == system)
          << "path " << static_cast<int>(path) << " mode "
          << static_cast<int>(mode);
    }
  }
}

/// `rank`'s spans of one phase carrying one API label.
std::size_t spans_of(const tempi::trace::Snapshot &snap, int rank,
                     tempi::trace::Phase phase, tempi::trace::OpKind kind) {
  std::size_t n = 0;
  for (const tempi::trace::SpanRecord &rec : snap.spans) {
    n += rec.rank == rank && rec.phase == phase && rec.kind == kind ? 1 : 0;
  }
  return n;
}

TEST_F(TempiSend, BlockingCallsStayOutOfThePoolAndReplayRepeats) {
  // Blocking Send/Recv run the request engine's op on the caller's stack:
  // no pool ticket, no shard lock and no engine counter. A repeated
  // monolithic key runs live once, records its send and receive programs
  // on the second sighting and replays them from then on; pipelined
  // transfers always run live.
  namespace trace = tempi::trace;
  using trace::OpKind;
  using trace::Phase;
  constexpr int kRounds = 3;
  for (const tempi::SendMode mode :
       {tempi::SendMode::ForceOneShot, tempi::SendMode::ForceDevice,
        tempi::SendMode::ForceStaged, tempi::SendMode::ForcePipelined}) {
    tempi::set_send_mode(mode);
    trace::reset_counters();
    trace::reset();
    trace::set_enabled(true);
    const std::uint64_t pool_acquires = counter("tempi.lock.pool.acquires");
    run2([&](int rank) {
      MPI_Init(nullptr, nullptr);
      MPI_Datatype t = nullptr;
      MPI_Type_vector(64, 8, 24, MPI_FLOAT, &t);
      MPI_Type_commit(&t);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      SpaceBuffer buf(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent));
      for (int round = 0; round < kRounds; ++round) {
        if (rank == 0) {
          EXPECT_EQ(MPI_Send(buf.get(), 1, t, 1, round, MPI_COMM_WORLD),
                    MPI_SUCCESS);
        } else {
          EXPECT_EQ(MPI_Recv(buf.get(), 1, t, 0, round, MPI_COMM_WORLD,
                             MPI_STATUS_IGNORE),
                    MPI_SUCCESS);
        }
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
    trace::set_enabled(false);
    const std::string where = "mode " + std::to_string(static_cast<int>(mode));
    EXPECT_EQ(counter("tempi.lock.pool.acquires"), pool_acquires) << where;
    EXPECT_EQ(tempi::async::in_flight(), 0u) << where;
    for (const char *name :
         {"tempi.engine.isends", "tempi.engine.irecvs",
          "tempi.engine.completions", "tempi.isend.captures",
          "tempi.isend.replays", "tempi.persistent.replays"}) {
      EXPECT_EQ(counter(name), 0u) << where << ": " << name;
    }
    const bool replays = mode != tempi::SendMode::ForcePipelined;
    const std::size_t live = replays ? 1 : kRounds;
    const std::size_t replayed = kRounds - live;
    for (const char *api : {"send", "recv"}) {
      const std::string prefix = std::string("tempi.") + api;
      EXPECT_EQ(counter(prefix + ".captures"), replays ? 1u : 0u) << where;
      EXPECT_EQ(counter(prefix + ".replays"), replayed) << where;
    }
    const trace::Snapshot snap = tempi::trace_snapshot();
    EXPECT_GE(spans_of(snap, 0, Phase::PackLaunch, OpKind::Send), live)
        << where;
    EXPECT_GE(spans_of(snap, 0, Phase::GraphReplay, OpKind::Send), replayed)
        << where;
    EXPECT_GE(spans_of(snap, 0, Phase::Wire, OpKind::Send),
              std::size_t{kRounds})
        << where;
    EXPECT_GE(spans_of(snap, 1, Phase::Wire, OpKind::Recv),
              std::size_t{kRounds})
        << where;
    EXPECT_GE(spans_of(snap, 1, Phase::Unpack, OpKind::Recv), live) << where;
    EXPECT_GE(spans_of(snap, 1, Phase::GraphReplay, OpKind::Recv), replayed)
        << where;
    for (const int rank : {0, 1}) {
      for (const OpKind kind : {OpKind::Isend, OpKind::Irecv}) {
        for (const Phase phase :
             {Phase::PackLaunch, Phase::Wire, Phase::Unpack}) {
          EXPECT_EQ(spans_of(snap, rank, phase, kind), 0u) << where;
        }
      }
    }
  }
  trace::reset();
}

} // namespace
