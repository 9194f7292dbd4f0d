// Thread-multiple hot path: the lock-striped request pool, the per-thread
// buffer-cache magazines and their shared depot, the lock-free leased_now
// gauge, MPI_Init_thread level reporting, and the TEMPI_SHARDS=1 kill
// switch. Workers are plain std::threads (not sysmpi ranks): each calls
// MPI_Init_thread and gets its own single-rank world, so all traffic is
// per-thread self-traffic and the only state the threads share is TEMPI's —
// exactly the surface this PR sharded.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace {

using testing_helpers::fill_pattern;
using testing_helpers::reference_pack;
using testing_helpers::SpaceBuffer;

class TempiThreads : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    tempi::trace::reset_counters();
  }
  void TearDown() override { tempi::uninstall(); }
};

/// One worker's round of non-blocking self-traffic: strided device object
/// out through Isend, back through a pre-posted Irecv, one Waitall.
/// Returns false if the delivered bytes are wrong (EXPECTs stay on the
/// main thread; workers only report).
bool isend_round(MPI_Datatype t, SpaceBuffer &src, SpaceBuffer &dst,
                 int tag) {
  std::memset(dst.get(), 0, dst.size());
  MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  if (MPI_Irecv(dst.get(), 1, t, 0, tag, MPI_COMM_WORLD, &reqs[0]) !=
      MPI_SUCCESS) {
    return false;
  }
  if (MPI_Isend(src.get(), 1, t, 0, tag, MPI_COMM_WORLD, &reqs[1]) !=
      MPI_SUCCESS) {
    return false;
  }
  if (MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE) != MPI_SUCCESS) {
    return false;
  }
  return reference_pack(dst.get(), 1, *t) == reference_pack(src.get(), 1, *t);
}

TEST_F(TempiThreads, ConcurrentIsendIrecvWaitFromPlainThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 24;
  tempi::async::reset_pool_lock_stats();
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&failures, w] {
      int provided = 0;
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
      MPI_Datatype t = nullptr;
      MPI_Type_vector(32, 8, 24, MPI_FLOAT, &t);
      MPI_Type_commit(&t);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      SpaceBuffer src(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 32);
      SpaceBuffer dst(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 32);
      fill_pattern(src.get(), src.size(), 10 + w);
      for (int r = 0; r < kRounds; ++r) {
        if (!isend_round(t, src, dst, w)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  for (std::thread &w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  // The striped pool was actually exercised, and the counters that feed
  // the tempi.lock.pool.* gauges moved.
  EXPECT_GT(tempi::async::pool_lock_stats().acquires, 0u);
}

TEST_F(TempiThreads, MixedPersistentAndNonPersistentArraysAcrossShards) {
  // Each thread's tickets land in its home shard, so four threads fill
  // four shards at once; one Waitall mixes persistent tickets (which
  // re-arm) and plain ops (which retire) on every thread.
  ASSERT_GT(tempi::async::shard_count(), 1u);
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&failures, w] {
      int provided = 0;
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
      MPI_Datatype t = nullptr;
      MPI_Type_vector(24, 4, 16, MPI_INT, &t);
      MPI_Type_commit(&t);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      const std::size_t bytes = static_cast<std::size_t>(extent) + 16;
      SpaceBuffer psrc(vcuda::MemorySpace::Device, bytes);
      SpaceBuffer pdst(vcuda::MemorySpace::Device, bytes);
      SpaceBuffer nsrc(vcuda::MemorySpace::Device, bytes);
      SpaceBuffer ndst(vcuda::MemorySpace::Device, bytes);
      fill_pattern(psrc.get(), psrc.size(), 40 + w);
      fill_pattern(nsrc.get(), nsrc.size(), 80 + w);

      MPI_Request channels[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      MPI_Recv_init(pdst.get(), 1, t, 0, 100 + w, MPI_COMM_WORLD,
                    &channels[0]);
      MPI_Send_init(psrc.get(), 1, t, 0, 100 + w, MPI_COMM_WORLD,
                    &channels[1]);
      bool ok = true;
      for (int r = 0; ok && r < kRounds; ++r) {
        std::memset(pdst.get(), 0, pdst.size());
        std::memset(ndst.get(), 0, ndst.size());
        MPI_Request all[4] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                              MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        ok = MPI_Irecv(ndst.get(), 1, t, 0, w, MPI_COMM_WORLD, &all[2]) ==
                 MPI_SUCCESS &&
             MPI_Isend(nsrc.get(), 1, t, 0, w, MPI_COMM_WORLD, &all[3]) ==
                 MPI_SUCCESS &&
             MPI_Startall(2, channels) == MPI_SUCCESS;
        all[0] = channels[0];
        all[1] = channels[1];
        ok = ok && MPI_Waitall(4, all, MPI_STATUSES_IGNORE) == MPI_SUCCESS;
        // Persistent tickets survive completion (re-armed inactive);
        // plain ops are nulled.
        ok = ok && all[0] == channels[0] && all[1] == channels[1] &&
             all[2] == MPI_REQUEST_NULL && all[3] == MPI_REQUEST_NULL;
        ok = ok &&
             reference_pack(pdst.get(), 1, *t) ==
                 reference_pack(psrc.get(), 1, *t) &&
             reference_pack(ndst.get(), 1, *t) ==
                 reference_pack(nsrc.get(), 1, *t);
      }
      if (!ok) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      MPI_Request_free(&channels[0]);
      MPI_Request_free(&channels[1]);
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  for (std::thread &w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
}

TEST_F(TempiThreads, MagazineOverflowFlushesToDepot) {
  // Releasing more same-bucket buffers than the magazine cap holds must
  // batch-flush the excess to the shared depot instead of growing the
  // thread-local list without bound.
  sysmpi::ensure_self_context();
  const std::size_t depot0 = tempi::buffer_depot_size();
  {
    std::vector<tempi::CachedBuffer> held;
    for (int i = 0; i < 16; ++i) {
      held.push_back(tempi::lease_buffer(vcuda::MemorySpace::Device, 4096));
    }
  } // all 16 release into one bucket's magazine here
  EXPECT_GT(tempi::buffer_depot_size(), depot0);
}

TEST_F(TempiThreads, FreshThreadRefillsMagazineFromDepot) {
  // Producer/consumer lease pattern: buffers released on one thread must
  // be reusable from another thread via the depot — a cache hit, not a
  // fresh allocation.
  sysmpi::ensure_self_context();
  {
    std::vector<tempi::CachedBuffer> held;
    for (int i = 0; i < 16; ++i) {
      held.push_back(tempi::lease_buffer(vcuda::MemorySpace::Device, 8192));
    }
  }
  const std::size_t depot_before = tempi::buffer_depot_size();
  ASSERT_GT(depot_before, 0u);
  std::size_t hits = 0, misses = 0, depot_after = 0;
  std::thread([&] {
    // A brand-new thread starts with empty magazines; this lease can only
    // be served by a depot refill.
    const tempi::CachedBuffer b =
        tempi::lease_buffer(vcuda::MemorySpace::Device, 8192);
    hits = tempi::buffer_cache_stats().hits;
    misses = tempi::buffer_cache_stats().misses;
    depot_after = tempi::buffer_depot_size();
    EXPECT_TRUE(static_cast<bool>(b));
  }).join();
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(misses, 0u);
  EXPECT_LT(depot_after, depot_before);
}

TEST_F(TempiThreads, LeasedNowReadableWhileOtherThreadsChurn) {
  // leased_now is a lock-free sum over per-thread lease nodes; a reader
  // polling it concurrently with lease/release churn must never observe an
  // underflow (a size_t wrap would read as an enormous value).
  constexpr int kWriters = 3;
  constexpr std::size_t kHeldPerWriter = 2;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const tempi::CachedBuffer a =
            tempi::lease_buffer(vcuda::MemorySpace::Device, 2048);
        const tempi::CachedBuffer b =
            tempi::lease_buffer(vcuda::MemorySpace::Pinned, 2048);
        static_assert(kHeldPerWriter == 2);
      }
    });
  }
  bool sane = true;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t leased = tempi::buffer_cache_stats().leased_now;
    // The reader may transiently overcount by however many starts land
    // between its two walk passes (a descheduled reader under TSan can
    // miss thousands), but an underflow would wrap to ~2^64. Bound far
    // above any possible churn in this test and far below a wrap.
    if (leased > (std::size_t{1} << 40)) {
      sane = false;
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread &w : writers) {
    w.join();
  }
  EXPECT_TRUE(sane);
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, 0u);
}

TEST_F(TempiThreads, UninstallDrainsWhileThreadsHoldMagazines) {
  // The drain contract with live threads: uninstall drains the depot and
  // the calling thread's magazines and leak-checks every lease; buffers
  // parked in other threads' magazines are not leaks — their thread-exit
  // destructors free them straight through vcuda afterwards.
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&ready, &release] {
      {
        std::vector<tempi::CachedBuffer> held;
        for (int i = 0; i < 6; ++i) {
          held.push_back(
              tempi::lease_buffer(vcuda::MemorySpace::Device, 1024));
        }
      } // six buffers now parked in this thread's magazine (below the cap)
      ready.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads) {
  }
  tempi::uninstall();
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, 0u);
  EXPECT_EQ(tempi::buffer_depot_size(), 0u);
  release.store(true, std::memory_order_release);
  for (std::thread &w : workers) {
    w.join(); // magazine-holding threads exit cleanly after the drain
  }
  tempi::install(); // TearDown expects an installed interposer
}

TEST_F(TempiThreads, SegmentPieceReleasedOnAnotherThreadFreesItOnce) {
  // Pieces carved on a worker outlive it: its exit hands back only the
  // uncarved rest, and the segment is freed once, by the drain on the
  // thread the last piece was released on.
  tempi::drain_buffer_cache();
  const std::size_t leased0 = tempi::buffer_cache_stats().leased_now;
  const vcuda::Counters before = vcuda::counters();
  std::vector<tempi::CachedBuffer> moved;
  std::thread([&moved] {
    for (int i = 0; i < 4; ++i) {
      moved.push_back(tempi::lease_buffer(vcuda::MemorySpace::Pinned, 8192));
    }
  }).join();
  EXPECT_EQ(vcuda::counters().mallocs - before.mallocs, 2u);
  EXPECT_EQ(vcuda::counters().frees - before.frees, 0u);
  moved.clear(); // released into this thread's magazine
  tempi::drain_buffer_cache();
  const vcuda::Counters after = vcuda::counters();
  EXPECT_EQ(after.frees - before.frees, 2u); // the buffer, the segment
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased0);
}

TEST_F(TempiThreads, ConcurrentThreadsCarveDisjointSegments) {
  // Bump cursors are per thread: two threads leasing the same bucket at
  // once each carve their own segments, never pieces of one segment. Both
  // hold their leases until both are done, so neither can refill from
  // pieces the other released to the depot.
  constexpr int kLeases = 40;
  tempi::drain_buffer_cache(); // an empty depot: every piece is carved
  std::array<std::set<std::uintptr_t>, 2> segments;
  std::atomic<int> started{0};
  std::atomic<int> done{0};
  const auto meet = [](std::atomic<int> &count) {
    count.fetch_add(1, std::memory_order_acq_rel);
    while (count.load(std::memory_order_acquire) < 2) {
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      meet(started);
      std::vector<tempi::CachedBuffer> held;
      for (int i = 0; i < kLeases; ++i) {
        held.push_back(tempi::lease_buffer(vcuda::MemorySpace::Device, 16384));
        const auto a = vcuda::memory_registry().find(held.back().get());
        segments[w].insert(a ? a->base : 0);
      }
      meet(done);
    });
  }
  for (std::thread &w : workers) {
    w.join();
  }
  for (const std::uintptr_t base : segments[0]) {
    EXPECT_EQ(segments[1].count(base), 0u);
  }
  EXPECT_EQ(segments[0].count(0), 0u); // every lease was a vcuda pointer
  EXPECT_EQ(segments[1].count(0), 0u);
}

TEST_F(TempiThreads, ShardsEnvKillSwitchRestoresSingleLockLayout) {
  const std::size_t default_shards = tempi::async::shard_count();
  EXPECT_GT(default_shards, 1u);

  ::setenv("TEMPI_SHARDS", "1", 1);
  tempi::uninstall();
  tempi::install();
  EXPECT_EQ(tempi::async::shard_count(), 1u);

  // Traffic stays correct on the single-lock layout.
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&failures, w] {
      int provided = 0;
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
      MPI_Datatype t = nullptr;
      MPI_Type_vector(16, 8, 20, MPI_BYTE, &t);
      MPI_Type_commit(&t);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      SpaceBuffer src(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 8);
      SpaceBuffer dst(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 8);
      fill_pattern(src.get(), src.size(), 5 + w);
      for (int r = 0; r < 8; ++r) {
        if (!isend_round(t, src, dst, w)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  for (std::thread &w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);

  ::unsetenv("TEMPI_SHARDS");
  tempi::uninstall();
  tempi::install();
  tempi::async::configure_shards(default_shards);
  EXPECT_EQ(tempi::async::shard_count(), default_shards);
}

TEST_F(TempiThreads, InitThreadReportsRequestedLevelPerThread) {
  int provided = -1, queried = -1, is_main = -1;
  std::thread([&] {
    MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
    MPI_Query_thread(&queried);
    MPI_Is_thread_main(&is_main);
    MPI_Finalize();
  }).join();
  EXPECT_EQ(provided, MPI_THREAD_MULTIPLE);
  EXPECT_EQ(queried, MPI_THREAD_MULTIPLE);
  // Each plain thread owns its single-rank world, so within its own
  // context it is the main (initializing) thread.
  EXPECT_EQ(is_main, 1);
}

} // namespace
