// The interposition architecture (Sec. 5): overridden symbols land in
// TEMPI, everything else falls through to the system MPI, and removal
// restores the original resolution — without touching application code.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"
#include "vcuda/clock.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::fill_pattern;
using testing_helpers::reference_pack;
using testing_helpers::SpaceBuffer;

MPI_Datatype committed_vector(int count, int blocklen, int stride) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(count, blocklen, stride, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

TEST(Interposer, InstallAndUninstallSwapTables) {
  const auto system_send = interpose::system_table().Send;
  EXPECT_EQ(interpose::active_table().Send, system_send);
  EXPECT_FALSE(interpose::interposed());
  {
    tempi::ScopedInterposer guard;
    EXPECT_TRUE(interpose::interposed());
    EXPECT_NE(interpose::active_table().Send, system_send);
    // The collectives engine owns the dense exchange collectives.
    EXPECT_NE(interpose::active_table().Alltoallv,
              interpose::system_table().Alltoallv);
    EXPECT_NE(interpose::active_table().Neighbor_alltoallv,
              interpose::system_table().Neighbor_alltoallv);
    EXPECT_NE(interpose::active_table().Allgather,
              interpose::system_table().Allgather);
    EXPECT_NE(interpose::active_table().Gatherv,
              interpose::system_table().Gatherv);
    // Uncovered symbols get a forwarder that flushes the thread's deferred
    // sends, then calls the system MPI's entry.
    EXPECT_NE(interpose::active_table().Barrier,
              interpose::system_table().Barrier);
    EXPECT_NE(interpose::active_table().Type_vector,
              interpose::system_table().Type_vector);
    sysmpi::ensure_self_context();
    EXPECT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
    MPI_Datatype t = nullptr;
    ASSERT_EQ(MPI_Type_vector(4, 2, 8, MPI_BYTE, &t), MPI_SUCCESS);
    int size = 0;
    EXPECT_EQ(MPI_Type_size(t, &size), MPI_SUCCESS);
    EXPECT_EQ(size, 8);
    EXPECT_EQ(MPI_Type_free(&t), MPI_SUCCESS);
  }
  EXPECT_FALSE(interpose::interposed());
  EXPECT_EQ(interpose::active_table().Send, system_send);
  EXPECT_EQ(interpose::active_table().Barrier,
            interpose::system_table().Barrier);
}

TEST(Interposer, CommitBuildsPackerForStridedTypes) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(16, 4, 32);
  const auto packer = tempi::find_packer(t);
  ASSERT_NE(packer, nullptr);
  EXPECT_EQ(packer->block().block_bytes(), 4);
  EXPECT_EQ(packer->block().counts[1], 16);
  MPI_Type_free(&t);
  EXPECT_EQ(tempi::find_packer(t), nullptr); // evicted (handle is null now)
}

TEST(Interposer, CommitFallsBackForIndexedTypes) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  const int blens[2] = {1, 2};
  const int displs[2] = {0, 7};
  MPI_Datatype t = nullptr;
  MPI_Type_indexed(2, blens, displs, MPI_INT, &t);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(tempi::find_packer(t), nullptr);
  // The type still works through the system path.
  int src[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  std::byte out[12];
  int position = 0;
  EXPECT_EQ(MPI_Pack(src, 1, t, out, 12, &position, MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(position, 12);
  MPI_Type_free(&t);
}

TEST(Interposer, FastLookupTracksCommitAndFree) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(16, 4, 32);
  // The handle cache and the authoritative map must agree, including on
  // repeat (cached) lookups.
  EXPECT_EQ(tempi::find_packer_fast(t), tempi::find_packer(t).get());
  EXPECT_EQ(tempi::find_packer_fast(t), tempi::find_packer(t).get());
  const tempi::Packer *before_free = tempi::find_packer_fast(t);
  ASSERT_NE(before_free, nullptr);
  MPI_Type_free(&t);
  // Freeing bumps the generation: the stale slot must not resolve.
  EXPECT_EQ(tempi::find_packer_fast(t), nullptr);
  // The retired packer itself stays valid (graveyard, not destroyed):
  // reading through the old pointer is safe until uninstall.
  EXPECT_EQ(before_free->block().block_bytes(), 4);
  // A fresh commit (possibly reusing the handle) resolves again.
  MPI_Datatype t2 = committed_vector(8, 2, 6);
  EXPECT_EQ(tempi::find_packer_fast(t2), tempi::find_packer(t2).get());
  EXPECT_NE(tempi::find_packer_fast(t2), nullptr);
  MPI_Type_free(&t2);
}

TEST(Interposer, DoubleCommitIsIdempotent) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(8, 2, 6);
  const auto first = tempi::find_packer(t);
  ASSERT_EQ(MPI_Type_commit(&t), MPI_SUCCESS);
  EXPECT_EQ(tempi::find_packer(t), first);
  MPI_Type_free(&t);
}

TEST(Interposer, PackOnDeviceUsesKernelNotBlockLoop) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(256, 8, 64);

  SpaceBuffer src(vcuda::MemorySpace::Device, 256 * 64);
  SpaceBuffer out(vcuda::MemorySpace::Device, 256 * 8);
  fill_pattern(src.get(), src.size());

  vcuda::reset_counters();
  int position = 0;
  ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(), 256 * 8, &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(vcuda::counters().kernel_launches, 1u);
  EXPECT_EQ(vcuda::counters().memcpy_async_calls, 0u); // no per-block loop

  const auto expect = reference_pack(src.get(), 1, *t);
  EXPECT_EQ(std::memcmp(out.get(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(Interposer, PackOnHostForwardsToSystem) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(16, 4, 8);

  std::vector<std::byte> src(16 * 8), out(16 * 4);
  fill_pattern(src.data(), src.size());
  vcuda::reset_counters();
  int position = 0;
  ASSERT_EQ(MPI_Pack(src.data(), 1, t, out.data(),
                     static_cast<int>(out.size()), &position, MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(vcuda::counters().kernel_launches, 0u); // stayed on the CPU path
  const auto expect = reference_pack(src.data(), 1, *t);
  EXPECT_EQ(std::memcmp(out.data(), expect.data(), expect.size()), 0);
  MPI_Type_free(&t);
}

TEST(Interposer, UnpackOnDeviceInvertsPack) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(64, 16, 48);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);

  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent));
  SpaceBuffer mid(vcuda::MemorySpace::Device, 64 * 16);
  SpaceBuffer dst(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent));
  fill_pattern(src.get(), src.size());
  std::memset(dst.get(), 0, dst.size());

  int position = 0;
  ASSERT_EQ(MPI_Pack(src.get(), 1, t, mid.get(), 64 * 16, &position,
                     MPI_COMM_WORLD),
            MPI_SUCCESS);
  position = 0;
  ASSERT_EQ(MPI_Unpack(mid.get(), 64 * 16, &position, dst.get(), 1, t,
                       MPI_COMM_WORLD),
            MPI_SUCCESS);
  EXPECT_EQ(reference_pack(src.get(), 1, *t), reference_pack(dst.get(), 1, *t));
  MPI_Type_free(&t);
}

TEST(Interposer, PackSpeedupIsEnormous) {
  // The Fig. 8 effect in miniature: TEMPI's single kernel vs the baseline
  // per-block loop on a device object with small blocks.
  sysmpi::ensure_self_context();
  constexpr int kBlocks = 512;
  SpaceBuffer src(vcuda::MemorySpace::Device, kBlocks * 16);
  SpaceBuffer out(vcuda::MemorySpace::Device, kBlocks * 4);

  vcuda::VirtualNs baseline_ns = 0, tempi_ns = 0;
  {
    MPI_Datatype t = committed_vector(kBlocks, 4, 16);
    int position = 0;
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(), kBlocks * 4, &position,
                       MPI_COMM_WORLD),
              MPI_SUCCESS);
    baseline_ns = vcuda::virtual_now() - t0;
    MPI_Type_free(&t);
  }
  {
    tempi::ScopedInterposer guard;
    MPI_Datatype t = committed_vector(kBlocks, 4, 16);
    int position = 0;
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    ASSERT_EQ(MPI_Pack(src.get(), 1, t, out.get(), kBlocks * 4, &position,
                       MPI_COMM_WORLD),
              MPI_SUCCESS);
    tempi_ns = vcuda::virtual_now() - t0;
    MPI_Type_free(&t);
  }
  EXPECT_GT(baseline_ns, 100 * tempi_ns)
      << "baseline " << baseline_ns << " ns vs tempi " << tempi_ns << " ns";
}

TEST(Interposer, DoubleInstallIsIdempotent) {
  tempi::install();
  const auto send_once = interpose::active_table().Send;
  tempi::install(); // second install must not stack the interposer
  EXPECT_EQ(interpose::active_table().Send, send_once);
  tempi::uninstall();
  tempi::uninstall(); // and double-uninstall must be harmless
  EXPECT_EQ(interpose::active_table().Send, interpose::system_table().Send);
}

TEST(Interposer, ReinstallAfterUninstallWorks) {
  sysmpi::ensure_self_context();
  for (int round = 0; round < 3; ++round) {
    tempi::ScopedInterposer guard;
    MPI_Datatype t = committed_vector(8, 4, 16);
    EXPECT_NE(tempi::find_packer(t), nullptr) << "round " << round;
    MPI_Type_free(&t);
  }
}

TEST(Interposer, SendModeControlsMethod) {
  tempi::ScopedInterposer guard;
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  EXPECT_EQ(tempi::send_mode(), tempi::SendMode::ForceDevice);
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  EXPECT_EQ(tempi::send_mode(), tempi::SendMode::ForcePipelined);
  tempi::set_send_mode(tempi::SendMode::Auto);
  EXPECT_EQ(tempi::send_mode(), tempi::SendMode::Auto);
}

TEST(Interposer, PipelineCountersTrackChunkedSends) {
  tempi::ScopedInterposer guard;
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.send.pipelined"), 0u);
  EXPECT_EQ(counter("tempi.isend.pipelined"), 0u);
  EXPECT_EQ(counter("tempi.pipeline.chunks"), 0u);
  EXPECT_EQ(counter("tempi.pipeline.over_ceiling_bytes"), 0u);

  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_vector(512, 16, 48);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size());
      MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });

  EXPECT_EQ(counter("tempi.send.pipelined"), 1u);
  // Sender legs (data + terminator) and the receiver's mirror of them.
  EXPECT_GE(counter("tempi.pipeline.chunks"), 4u);
  // The message fits the default 2 GiB wire ceiling: nothing oversized.
  EXPECT_EQ(counter("tempi.pipeline.over_ceiling_bytes"), 0u);

  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.send.pipelined"), 0u);
  EXPECT_EQ(counter("tempi.pipeline.chunks"), 0u);
  tempi::set_send_mode(tempi::SendMode::Auto);
}

TEST(Interposer, ModelCountersTrackObservationsAndRefreshes) {
  // The self-tuning loop is observable through the tempi.model.* trace
  // counters.
  tempi::ScopedInterposer guard;
  tempi::tune::reset();
  tempi::trace::reset_counters();
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_vector(512, 16, 48);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size());
      MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);

  // The Device exchange harvested at least the pack and the unpack span.
  EXPECT_GE(counter("tempi.model.observations"), 2u);
  EXPECT_EQ(counter("tempi.model.generation_bumps"), 0u);
  EXPECT_EQ(counter("tempi.model.refreezes"), 0u);

  // Two converged samples + an explicit refresh: one fold, one bump.
  tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1, vcuda::us_to_ns(50.0));
  tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1, vcuda::us_to_ns(50.0));
  EXPECT_TRUE(tempi::tune::refresh_now());
  EXPECT_GE(counter("tempi.model.updates"), 1u);
  EXPECT_EQ(counter("tempi.model.generation_bumps"), 1u);

  // Disabled: the sink drops samples without counting them.
  const std::uint64_t observations = counter("tempi.model.observations");
  tempi::tune::set_enabled(false);
  tempi::tune::observe(tempi::tune::Axis::D2H, 0, 1, vcuda::us_to_ns(50.0));
  EXPECT_EQ(counter("tempi.model.observations"), observations);
  tempi::tune::set_enabled(true);
  tempi::tune::reset();
}

/// The tuned DevicePack cell after three blocking ForceDevice sends of a
/// 512 x 16 B vector. With `prewarm` the sender leases and returns its
/// wire bucket first, so no send misses the buffer cache.
double device_pack_after_three_sends(bool prewarm) {
  tempi::ScopedInterposer guard;
  tempi::tune::reset();
  tempi::drain_buffer_cache(); // an empty depot: the first lease misses
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [prewarm](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_vector(512, 16, 48);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    for (int i = 0; i < 3; ++i) {
      if (rank == 0) {
        if (prewarm && i == 0) {
          (void)tempi::lease_buffer(vcuda::MemorySpace::Device, 512 * 16);
        }
        fill_pattern(buf.get(), buf.size());
        MPI_Send(buf.get(), 1, t, 1, i, MPI_COMM_WORLD);
      } else {
        MPI_Recv(buf.get(), 1, t, 0, i, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      }
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  tempi::SystemPerf perf = tempi::builtin_perf();
  tempi::tune::fold_into(perf, false);
  tempi::tune::reset();
  return perf.device_pack.query(16.0, 8192.0);
}

TEST(Interposer, TunerPackSampleExcludesTheLeaseMiss) {
  // A send's pack sample starts after its lease: a cold cache's cudaMalloc
  // must not land in the first sample, which sets the cell outright.
  const double cold = device_pack_after_three_sends(false);
  const double warm = device_pack_after_three_sends(true);
  EXPECT_GT(warm, 0.0);
  EXPECT_NEAR(cold, warm, 0.01 * warm);
}

TEST(Interposer, TopoCountersTrackRemapsAndLegs) {
  // The topology layer is observable through the tempi.topo.* trace
  // counters.
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  // A device alltoallv drives the node-aware schedule (staggered and
  // intra-node legs)...
  sysmpi::RunConfig cfg;
  cfg.ranks = 4;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    SpaceBuffer sbuf(vcuda::MemorySpace::Device, 4 * 64);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device, 4 * 64);
    fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
    std::vector<int> counts(4, 64), displs(4);
    for (int p = 0; p < 4; ++p) {
      displs[static_cast<std::size_t>(p)] = p * 64;
    }
    ASSERT_EQ(MPI_Alltoallv(sbuf.get(), counts.data(), displs.data(),
                            MPI_BYTE, rbuf.get(), counts.data(),
                            displs.data(), MPI_BYTE, MPI_COMM_WORLD),
              MPI_SUCCESS);
    MPI_Finalize();
  });
  // ...and a reorder=1 Cart_create on a brick-improvable grid drives the
  // remap counter.
  cfg.ranks = 64;
  cfg.ranks_per_node = 8;
  sysmpi::run_ranks(cfg, [](int) {
    MPI_Init(nullptr, nullptr);
    const int dims[2] = {8, 8};
    const int periods[2] = {1, 1};
    MPI_Comm cart = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Cart_create(MPI_COMM_WORLD, 2, dims, periods, 1, &cart),
              MPI_SUCCESS);
    MPI_Comm_free(&cart);
    MPI_Finalize();
  });
  EXPECT_GT(counter("tempi.topo.remaps"), 0u);
  EXPECT_GT(counter("tempi.topo.staggered_legs"), 0u);
  EXPECT_GT(counter("tempi.topo.intra_node_legs"), 0u);
}

TEST(Interposer, CollCountersTrackEngineAndFallback) {
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 0u);
  EXPECT_EQ(counter("tempi.coll.neighbor"), 0u);
  EXPECT_EQ(counter("tempi.coll.fallback"), 0u);
  EXPECT_EQ(counter("tempi.coll.peer_legs"), 0u);

  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [](int rank) {
    (void)rank;
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_vector(8, 4, 16);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer dev_s(vcuda::MemorySpace::Device,
                      2 * static_cast<std::size_t>(extent) + 64);
    SpaceBuffer dev_r(vcuda::MemorySpace::Device,
                      2 * static_cast<std::size_t>(extent) + 64);
    fill_pattern(dev_s.get(), dev_s.size());
    const int counts[2] = {1, 1};
    const int displs[2] = {0, 1};
    // Device buffers + packer: engine-serviced (one alltoallv, 2 send +
    // 2 recv legs per rank, the self pair collapsing into one copy).
    MPI_Alltoallv(dev_s.get(), counts, displs, t, dev_r.get(), counts,
                  displs, t, MPI_COMM_WORLD);
    // Host buffers: the shared gate forwards to the system path.
    std::vector<std::byte> host_s(2 * static_cast<std::size_t>(extent) + 64);
    std::vector<std::byte> host_r(2 * static_cast<std::size_t>(extent) + 64);
    MPI_Alltoallv(host_s.data(), counts, displs, t, host_r.data(), counts,
                  displs, t, MPI_COMM_WORLD);
    MPI_Type_free(&t);
    MPI_Finalize();
  });

  EXPECT_EQ(counter("tempi.coll.alltoallv"), 2u); // one engine call per rank
  EXPECT_EQ(counter("tempi.coll.neighbor"), 0u);
  EXPECT_EQ(counter("tempi.coll.fallback"), 2u); // one host-only call per rank
  // Each engine rank fans out 2 send + 2 recv slots, minus the self pair
  // collapsed into one copy leg: 3 legs per rank.
  EXPECT_EQ(counter("tempi.coll.peer_legs"), 6u);

  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 0u);
  EXPECT_EQ(counter("tempi.coll.fallback"), 0u);
  EXPECT_EQ(counter("tempi.coll.peer_legs"), 0u);
}

TEST(TempiTest, RedCountersTrackEngineAndFallback) {
  // The reduction engine is observable through the tempi.red.* trace
  // counters, across a mix of engine-serviced, fallback, and derived
  // calls.
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  sysmpi::RunConfig cfg;
  cfg.ranks = 4;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    SpaceBuffer dev_s(vcuda::MemorySpace::Device, 64 * sizeof(int));
    SpaceBuffer dev_r(vcuda::MemorySpace::Device, 64 * sizeof(int));
    std::vector<int> vals(64, rank + 1);
    std::memcpy(dev_s.get(), vals.data(), 64 * sizeof(int));
    // Named device reduction: engine-serviced on every rank.
    MPI_Allreduce(dev_s.get(), dev_r.get(), 64, MPI_INT, MPI_SUM,
                  MPI_COMM_WORLD);
    // Derived uniform-base reduction: engine-serviced (no system path).
    MPI_Datatype t = nullptr;
    MPI_Type_vector(8, 2, 5, MPI_INT, &t);
    MPI_Type_commit(&t);
    SpaceBuffer obj_s(vcuda::MemorySpace::Device, 4096);
    SpaceBuffer obj_r(vcuda::MemorySpace::Device, 4096);
    std::memset(obj_s.get(), 0, obj_s.size());
    MPI_Reduce(obj_s.get(), obj_r.get(), 2, t, MPI_SUM, 0, MPI_COMM_WORLD);
    MPI_Type_free(&t);
    // Host buffers on a named type: per-rank residency fallback.
    std::vector<int> host_r(64);
    MPI_Allreduce(vals.data(), host_r.data(), 64, MPI_INT, MPI_SUM,
                  MPI_COMM_WORLD);
    MPI_Finalize();
  });
  EXPECT_EQ(counter("tempi.red.allreduce"), 4u);
  EXPECT_EQ(counter("tempi.red.reduce"), 4u);
  EXPECT_EQ(counter("tempi.red.fallback"), 4u);
  EXPECT_GT(counter("tempi.red.peer_legs"), 0u);
  EXPECT_GT(counter("tempi.red.kernel_launches"), 0u);
  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.red.allreduce"), 0u);
  EXPECT_EQ(counter("tempi.red.fallback"), 0u);
}

TEST(Interposer, PersistentCountersTrackChannelsAndReplays) {
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.persistent.inits"), 0u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 0u);
  EXPECT_EQ(counter("tempi.persistent.replays"), 0u);
  EXPECT_EQ(counter("tempi.persistent.graph_launches"), 0u);
  EXPECT_EQ(counter("tempi.persistent.forwarded"), 0u);

  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = committed_vector(64, 8, 24);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size());
      EXPECT_EQ(MPI_Send_init(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      EXPECT_EQ(MPI_Recv_init(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    for (int it = 0; it < 3; ++it) {
      EXPECT_EQ(MPI_Start(&req), MPI_SUCCESS);
      EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    }
    // A host-buffer init falls through to the system path and counts as
    // forwarded.
    std::vector<std::byte> host(static_cast<std::size_t>(extent) + 16);
    MPI_Request fwd = MPI_REQUEST_NULL;
    EXPECT_EQ(MPI_Send_init(host.data(), 1, t, rank == 0 ? 1 : 0, 99,
                            MPI_COMM_WORLD, &fwd),
              MPI_SUCCESS);
    EXPECT_EQ(MPI_Request_free(&fwd), MPI_SUCCESS);
    EXPECT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });

  EXPECT_EQ(counter("tempi.persistent.inits"), 2u); // one channel per rank
  EXPECT_EQ(counter("tempi.persistent.starts"), 6u); // three arms per rank
  // Send arms replay at Start, receive armings replay at completion:
  // every arming is a replay hit backed by at least one graph launch.
  EXPECT_EQ(counter("tempi.persistent.replays"), 6u);
  EXPECT_GE(counter("tempi.persistent.graph_launches"), 6u);
  EXPECT_EQ(counter("tempi.persistent.forwarded"), 2u); // host-buffer inits

  tempi::trace::reset_counters();
  EXPECT_EQ(counter("tempi.persistent.inits"), 0u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 0u);
  EXPECT_EQ(counter("tempi.persistent.replays"), 0u);
  EXPECT_EQ(counter("tempi.persistent.graph_launches"), 0u);
  EXPECT_EQ(counter("tempi.persistent.forwarded"), 0u);
}

// --- residency memo ----------------------------------------------------------

/// What one residency check answered and what the answer cost.
struct Answer {
  vcuda::MemorySpace space = vcuda::MemorySpace::Pageable;
  std::uint64_t queries = 0;  ///< pointer queries made
  vcuda::VirtualNs charge = 0; ///< virtual time charged
  bool operator==(const Answer &) const = default;
};

void PrintTo(const Answer &a, std::ostream *os) {
  *os << "{space " << static_cast<int>(a.space) << ", queries " << a.queries
      << ", charge " << a.charge << " ns}";
}

Answer residency(const void *p) {
  const std::uint64_t q0 = vcuda::counters().pointer_queries;
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  const vcuda::MemorySpace space = tempi::resident_space(p);
  return {space, vcuda::counters().pointer_queries - q0,
          vcuda::virtual_now() - t0};
}

/// A memo hit and a query that found `space`.
Answer hit(vcuda::MemorySpace space) { return {space, 0, 0}; }
Answer query(vcuda::MemorySpace space) {
  return {space, 1, vcuda::cost_params().pointer_query_ns};
}

constexpr auto kDevice = vcuda::MemorySpace::Device;
constexpr auto kPinned = vcuda::MemorySpace::Pinned;
constexpr auto kPageable = vcuda::MemorySpace::Pageable;

TEST(ResidencyMemo, InteriorLastByteAndOnePastTheEnd) {
  SpaceBuffer dev(kDevice, 1000);
  const std::byte *p = dev.bytes();
  EXPECT_EQ(residency(p), query(kDevice));
  EXPECT_EQ(residency(p), hit(kDevice));
  EXPECT_EQ(residency(p + 500), hit(kDevice));
  EXPECT_EQ(residency(p + 999), hit(kDevice));
  // Outside the allocation: pageable, never stored, so asked every time.
  EXPECT_EQ(residency(p + 1000), query(kPageable));
  EXPECT_EQ(residency(p + 1000), query(kPageable));
  EXPECT_EQ(residency(p - 1), query(kPageable));
  EXPECT_EQ(residency(p + 999), hit(kDevice));
}

TEST(ResidencyMemo, FreedDeviceBufferStopsReadingAsDevice) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 4096), vcuda::Error::Success);
  EXPECT_EQ(residency(p), query(kDevice));
  EXPECT_EQ(residency(p), hit(kDevice));
  ASSERT_EQ(vcuda::Free(p), vcuda::Error::Success);
  EXPECT_EQ(residency(p), query(kPageable));
  EXPECT_FALSE(tempi::device_resident(p));
}

TEST(ResidencyMemo, HostRegisterFlipsTheAnswerEachTime) {
  std::vector<std::byte> host(4096);
  const std::byte *interior = host.data() + 100;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(residency(interior), query(kPageable)) << i;
    ASSERT_EQ(vcuda::HostRegister(host.data(), host.size()),
              vcuda::Error::Success);
    EXPECT_EQ(residency(interior), query(kPinned)) << i;
    EXPECT_EQ(residency(interior), hit(kPinned)) << i;
    EXPECT_FALSE(tempi::device_resident(interior));
    ASSERT_EQ(vcuda::HostUnregister(host.data()), vcuda::Error::Success);
  }
  EXPECT_EQ(residency(interior), query(kPageable));
}

TEST(ResidencyMemo, KeepsTheLastFourAllocations) {
  std::vector<std::unique_ptr<SpaceBuffer>> bufs;
  for (int i = 0; i < 5; ++i) {
    bufs.push_back(std::make_unique<SpaceBuffer>(kDevice, 64));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(residency(bufs[i]->get()), query(kDevice)) << i;
  }
  // The fifth replaced the first.
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(residency(bufs[i]->get()), hit(kDevice)) << i;
  }
  EXPECT_EQ(residency(bufs[0]->get()), query(kDevice));
}

/// A pageable arena that reads as device memory while registered, as if a
/// cudaMalloc had handed out its address. Unregistering it is the matching
/// cudaFree followed by a host allocation landing at the same address:
/// address reuse an allocator may or may not produce, made certain.
class ReusedAddress {
public:
  explicit ReusedAddress(std::size_t bytes) : bytes_(bytes) {}
  ~ReusedAddress() { set_device(false); }
  ReusedAddress(const ReusedAddress &) = delete;
  ReusedAddress &operator=(const ReusedAddress &) = delete;

  void set_device(bool device) {
    if (device == device_) {
      return;
    }
    const auto base = reinterpret_cast<std::uintptr_t>(bytes_.data());
    if (device) {
      vcuda::memory_registry().insert(
          vcuda::Allocation{base, bytes_.size(), kDevice, 0});
    } else {
      vcuda::memory_registry().erase(base);
    }
    device_ = device;
  }
  [[nodiscard]] std::byte *get() { return bytes_.data(); }
  [[nodiscard]] const std::vector<std::byte> &bytes() const { return bytes_; }

private:
  std::vector<std::byte> bytes_;
  bool device_ = false;
};

std::uint64_t device_work() {
  const vcuda::Counters c = vcuda::counters();
  return c.kernel_launches + c.graph_launches + c.memcpy_async_calls;
}

// A device buffer that is freed and replaced by a host buffer at the same
// address, then by a device one again: TEMPI's Irecv, Isend, Waitall and
// Pack on it match the system MPI bitwise in every round, and the host
// rounds do no device work at all.
TEST(ResidencyMemo, HostBufferAtAFreedDeviceAddressMatchesTheSystemPath) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = committed_vector(64, 8, 24);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  const auto bytes = static_cast<std::size_t>(extent);
  ReusedAddress src(bytes), dst(bytes);
  // Device for the live, recording and replaying rounds, host for two,
  // then device again.
  constexpr unsigned kRounds = 7;
  const auto on_device = [](unsigned r) { return r < 3 || r >= 5; };

  struct Seen {
    std::vector<int> codes;
    std::vector<std::array<long long, 4>> statuses;
    std::vector<std::vector<std::byte>> buffers;
    std::vector<std::uint64_t> host_round_device_work;
  };
  const auto observe = [&](tempi::SendMode mode) {
    tempi::set_send_mode(mode);
    Seen seen;
    for (unsigned r = 0; r < kRounds; ++r) {
      src.set_device(on_device(r));
      dst.set_device(on_device(r));
      fill_pattern(src.get(), bytes, 100 + r);
      fill_pattern(dst.get(), bytes, 200 + r);
      const std::uint64_t work = device_work();
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      MPI_Status st[2];
      seen.codes.push_back(
          MPI_Irecv(dst.get(), 1, t, 0, 7, MPI_COMM_WORLD, &reqs[0]));
      seen.codes.push_back(
          MPI_Isend(src.get(), 1, t, 0, 7, MPI_COMM_WORLD, &reqs[1]));
      seen.codes.push_back(MPI_Waitall(2, reqs, st));
      seen.statuses.push_back({st[0].MPI_SOURCE, st[0].MPI_TAG,
                               st[0].MPI_ERROR, st[0].count_bytes});
      std::vector<std::byte> packed(64 * 8);
      int position = 0;
      seen.codes.push_back(MPI_Pack(src.get(), 1, t, packed.data(),
                                    static_cast<int>(packed.size()),
                                    &position, MPI_COMM_WORLD));
      seen.codes.push_back(position);
      seen.buffers.push_back(dst.bytes());
      seen.buffers.push_back(packed);
      if (!on_device(r)) {
        seen.host_round_device_work.push_back(device_work() - work);
      }
    }
    tempi::set_send_mode(tempi::SendMode::Auto);
    return seen;
  };
  const Seen reference = observe(tempi::SendMode::System);
  const std::uint64_t self0 = counter("tempi.p2p.self_deliveries");
  const Seen seen = observe(tempi::SendMode::Auto);
  EXPECT_EQ(seen.codes, reference.codes);
  EXPECT_EQ(seen.statuses, reference.statuses);
  EXPECT_EQ(seen.buffers, reference.buffers);
  EXPECT_EQ(seen.host_round_device_work,
            (std::vector<std::uint64_t>{0, 0}));
  // The device rounds did take TEMPI's path.
  EXPECT_GT(counter("tempi.p2p.self_deliveries"), self0);
  MPI_Type_free(&t);
}

// Another thread of the rank frees a buffer this thread's memo holds: the
// next check on this thread asks again and reads it as host memory.
TEST(ResidencyMemo, FreeOnAnotherThreadOfTheRankInvalidatesTheMemo) {
  tempi::ScopedInterposer guard;
  sysmpi::RunConfig cfg;
  cfg.ranks = 1;
  sysmpi::run_ranks(cfg, [](int) {
    int provided = 0;
    MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
    MPI_Datatype t = committed_vector(64, 8, 24);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const auto bytes = static_cast<std::size_t>(extent);
    ReusedAddress arena(bytes);
    arena.set_device(true);
    fill_pattern(arena.get(), bytes);
    std::vector<std::byte> packed(64 * 8);
    const auto pack = [&] {
      int position = 0;
      return MPI_Pack(arena.get(), 1, t, packed.data(),
                      static_cast<int>(packed.size()), &position,
                      MPI_COMM_WORLD);
    };
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(pack(), MPI_SUCCESS);
    }
    EXPECT_EQ(residency(arena.get()), hit(kDevice));
    const sysmpi::RankCtx rank = sysmpi::this_rank();
    std::thread([&] {
      const sysmpi::RankAttachment attach(rank);
      int me = -1;
      EXPECT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &me), MPI_SUCCESS);
      EXPECT_EQ(me, 0);
      arena.set_device(false);
      // The helper's own check sees the host buffer too.
      EXPECT_FALSE(tempi::device_resident(arena.get()));
    }).join();
    EXPECT_EQ(residency(arena.get()), query(kPageable));
    const std::uint64_t work = device_work();
    ASSERT_EQ(pack(), MPI_SUCCESS);
    EXPECT_EQ(device_work(), work);
    const auto expect = reference_pack(arena.get(), 1, *t);
    EXPECT_EQ(std::memcmp(packed.data(), expect.data(), expect.size()), 0);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

// --- environment knobs ----------------------------------------------------------

/// One spelling of a knob and what the process makes of it.
struct EnvCase {
  const char *var;
  const char *value;
  tempi::SendMode mode;
  std::size_t chunk_override;
  bool tune;
};

/// Set `c.var` alone among the three knobs, install, run a rank's Init,
/// print what took effect and exit. The knobs are read once per process,
/// so each case runs in a fresh process.
[[noreturn]] void report_install_env(const EnvCase &c) {
  for (const char *var : {"TEMPI_METHOD", "TEMPI_CHUNK_BYTES", "TEMPI_TUNE"}) {
    ::unsetenv(var);
  }
  ::setenv(c.var, c.value, 1);
  tempi::install();
  sysmpi::RunConfig cfg;
  cfg.ranks = 1;
  sysmpi::run_ranks(cfg, [](int) {
    MPI_Init(nullptr, nullptr);
    MPI_Finalize();
  });
  std::fprintf(stderr, "[env mode=%d chunk=%zu tune=%d]\n",
               static_cast<int>(tempi::send_mode()),
               tempi::chunk_bytes_override(), tempi::tune::enabled() ? 1 : 0);
  std::fflush(stderr);
  std::_Exit(0);
}

TEST(InstallEnv, SpellingsSetModeChunkOverrideAndTuner) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  using M = tempi::SendMode;
  const EnvCase cases[] = {
      {"TEMPI_METHOD", "auto", M::Auto, 0, true},
      {"TEMPI_METHOD", "oneshot", M::ForceOneShot, 0, true},
      {"TEMPI_METHOD", "device", M::ForceDevice, 0, true},
      {"TEMPI_METHOD", "staged", M::ForceStaged, 0, true},
      {"TEMPI_METHOD", "pipelined", M::ForcePipelined, 0, true},
      {"TEMPI_METHOD", "system", M::System, 0, true},
      // Unknown spellings warn and leave the default.
      {"TEMPI_METHOD", "Device", M::Auto, 0, true},
      {"TEMPI_METHOD", "one-shot", M::Auto, 0, true},
      {"TEMPI_METHOD", "", M::Auto, 0, true},
      {"TEMPI_CHUNK_BYTES", "4096", M::Auto, 4096, true},
      {"TEMPI_CHUNK_BYTES", "1", M::Auto, 1, true},
      // Anything but a whole positive count warns and sets no override.
      {"TEMPI_CHUNK_BYTES", "0", M::Auto, 0, true},
      {"TEMPI_CHUNK_BYTES", "-5", M::Auto, 0, true},
      {"TEMPI_CHUNK_BYTES", "4096B", M::Auto, 0, true},
      {"TEMPI_CHUNK_BYTES", " 4096", M::Auto, 0, true},
      {"TEMPI_CHUNK_BYTES", "", M::Auto, 0, true},
      {"TEMPI_CHUNK_BYTES", "99999999999999999999999", M::Auto, 0, true},
      // The tuner is a kill-switch: only "0" turns it off.
      {"TEMPI_TUNE", "0", M::Auto, 0, false},
      {"TEMPI_TUNE", "1", M::Auto, 0, true},
      {"TEMPI_TUNE", "off", M::Auto, 0, true},
      {"TEMPI_TUNE", "", M::Auto, 0, true},
  };
  for (const EnvCase &c : cases) {
    const std::string expected =
        "\\[env mode=" + std::to_string(static_cast<int>(c.mode)) +
        " chunk=" + std::to_string(c.chunk_override) +
        " tune=" + std::to_string(c.tune ? 1 : 0) + "\\]";
    EXPECT_EXIT(report_install_env(c), ::testing::ExitedWithCode(0), expected)
        << c.var << "='" << c.value << "'";
  }
}

} // namespace
