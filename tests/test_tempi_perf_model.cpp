// The empirical performance model: interpolation behaviour, Eq. 1-3
// composition, method selection properties (Fig. 9b/10/11), query caching,
// and measurement-file round trips.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"
#include "vcuda/clock.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

using testing_helpers::counter;

TEST(Table1D, InterpolatesBetweenSamples) {
  tempi::Table1D t;
  t.bytes = {1.0, 4.0, 16.0};
  t.us = {10.0, 20.0, 40.0};
  EXPECT_DOUBLE_EQ(t.query(1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.query(4.0), 20.0);
  EXPECT_DOUBLE_EQ(t.query(2.0), 15.0); // halfway in log space
  EXPECT_DOUBLE_EQ(t.query(0.5), 10.0); // clamped below
}

TEST(Table1D, ExtrapolatesBandwidthRegime) {
  tempi::Table1D t;
  t.bytes = {1024.0, 2048.0};
  t.us = {10.0, 20.0};
  // Beyond the last sample latency scales with size (bandwidth-bound).
  EXPECT_DOUBLE_EQ(t.query(4096.0), 40.0);
}

TEST(Table2D, BilinearInterpolation) {
  tempi::Table2D t;
  t.block_bytes = {1.0, 4.0};
  t.total_bytes = {64.0, 256.0};
  t.us = {100.0, 200.0,  // block 1
          50.0, 100.0};  // block 4
  EXPECT_DOUBLE_EQ(t.query(1.0, 64.0), 100.0);
  EXPECT_DOUBLE_EQ(t.query(4.0, 256.0), 100.0);
  EXPECT_DOUBLE_EQ(t.query(2.0, 64.0), 75.0);
  EXPECT_DOUBLE_EQ(t.query(1.0, 128.0), 150.0);
  EXPECT_DOUBLE_EQ(t.query(2.0, 128.0), 112.5);
}

TEST(BuiltinPerf, ReproducesFig9aFloors) {
  const tempi::SystemPerf p = tempi::builtin_perf();
  // Paper Fig. 9a: ~6 us CUDA-aware floor, ~1.3 us host floor.
  EXPECT_LT(p.cpu_cpu.query(8.0), 3.0);
  EXPECT_GT(p.gpu_gpu.query(8.0), 5.0);
  EXPECT_GT(p.d2h.query(8.0), 5.0);
}

TEST(BuiltinPerf, PackTablesShowBlockSizeSensitivity) {
  const tempi::SystemPerf p = tempi::builtin_perf();
  // Fig. 10: small blocks are slow, large blocks fast; one-shot saturates
  // by 32 B, device by 128 B.
  const double total = 4.0 * 1024 * 1024;
  EXPECT_GT(p.device_pack.query(1.0, total),
            5.0 * p.device_pack.query(128.0, total));
  EXPECT_GT(p.oneshot_pack.query(1.0, total),
            5.0 * p.oneshot_pack.query(32.0, total));
  EXPECT_NEAR(p.oneshot_pack.query(32.0, total),
              p.oneshot_pack.query(128.0, total),
              0.05 * p.oneshot_pack.query(32.0, total));
}

TEST(BuiltinPerf, UnpackSlowerThanPack) {
  const tempi::SystemPerf p = tempi::builtin_perf();
  EXPECT_GT(p.device_unpack.query(8.0, 1 << 20),
            p.device_pack.query(8.0, 1 << 20));
  EXPECT_GT(p.oneshot_unpack.query(8.0, 1 << 20),
            p.oneshot_pack.query(8.0, 1 << 20));
}

TEST(Model, StagedNeverWins) {
  // Fig. 9b: "There is no region where T_staged is faster than T_device."
  const tempi::PerfModel model;
  for (double block : {1.0, 8.0, 32.0, 128.0, 512.0}) {
    for (double total = 64.0; total <= 4.0 * 1024 * 1024; total *= 4.0) {
      EXPECT_GE(model.estimate_us(tempi::Method::Staged, block, total),
                model.estimate_us(tempi::Method::Device, block, total))
          << "block " << block << " total " << total;
    }
  }
}

TEST(Model, OneShotWinsSmallObjects) {
  // Sec. 6.3: "the one-shot method is faster when objects are smaller".
  const tempi::PerfModel model;
  EXPECT_EQ(model.choose_transfer(128, 1024).method, tempi::Method::OneShot);
}

TEST(Model, DeviceWinsLargeObjectsWithSmallBlocks) {
  // Sec. 6.2/6.3: device is better when contiguous regions are small and
  // the total data is large.
  const tempi::PerfModel model;
  EXPECT_EQ(model.choose_transfer(1, 4 * 1024 * 1024).method,
            tempi::Method::Device);
  EXPECT_EQ(model.choose_transfer(8, 4 * 1024 * 1024).method,
            tempi::Method::Device);
}

TEST(Model, ChoiceMatchesEstimates) {
  // Property: choose_transfer() picks the argmin of estimate_us.
  const tempi::PerfModel model;
  for (std::size_t block : {1u, 2u, 16u, 64u, 256u, 1024u}) {
    for (std::size_t total = 256; total <= (4u << 20); total *= 8) {
      const tempi::Method picked = model.choose_transfer(block, total).method;
      const double picked_us = model.estimate_us(
          picked, static_cast<double>(block), static_cast<double>(total));
      for (const tempi::Method m :
           {tempi::Method::OneShot, tempi::Method::Device,
            tempi::Method::Staged}) {
        EXPECT_LE(picked_us, model.estimate_us(m, static_cast<double>(block),
                                               static_cast<double>(total)))
            << "block " << block << " total " << total;
      }
    }
  }
}

TEST(Model, CachedQueriesAreCheaper) {
  const tempi::PerfModel model;
  // First query: uncached (interpolation); repeats: the ~277 ns cache hit.
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  (void)model.choose_transfer(24, 123456);
  const vcuda::VirtualNs miss = vcuda::virtual_now() - t0;
  const vcuda::VirtualNs t1 = vcuda::virtual_now();
  (void)model.choose_transfer(24, 123456);
  const vcuda::VirtualNs hit = vcuda::virtual_now() - t1;
  EXPECT_EQ(miss, tempi::kModelQueryUncachedNs);
  EXPECT_EQ(hit, tempi::kModelQueryCachedNs);
}

// The argmin of estimate_us over the three methods: what a message
// decision must return regardless of cache state.
tempi::Method argmin_method(const tempi::PerfModel &model, double block,
                            double total) {
  tempi::Method best = tempi::Method::Device;
  double best_us = model.estimate_us(tempi::Method::Device, block, total);
  for (const tempi::Method m :
       {tempi::Method::OneShot, tempi::Method::Staged}) {
    const double us = model.estimate_us(m, block, total);
    if (us < best_us) {
      best = m;
      best_us = us;
    }
  }
  return best;
}

TEST(ModelCache, CachedChoiceMatchesUncachedAcrossGrid) {
  // Sweep a grid of operands twice — every decision kind, placement and
  // queue bucket, at the default and a lowered wire limit: the second
  // pass (cache hits for the cached kinds) must agree with the first, and
  // a message under the limit must get the direct argmin.
  using tempi::TransferKind;
  for (const std::size_t limit : {tempi::kMaxWireBytes, std::size_t{1} << 20}) {
    const std::size_t old_limit = tempi::set_wire_chunk_limit(limit);
    const tempi::PerfModel model;
    for (const TransferKind kind :
         {TransferKind::P2P, TransferKind::Persistent, TransferKind::Leg}) {
      for (const bool same_node : {false, true}) {
        for (const std::size_t queued : {0u, 4096u, 4u << 20}) {
          const tempi::TransferOperands ops{kind, same_node, queued};
          for (std::size_t block : {1u, 3u, 8u, 24u, 100u, 512u, 1024u}) {
            for (std::size_t total = 128; total <= (8u << 20); total *= 4) {
              const tempi::TransferChoice first =
                  model.choose_transfer(block, total, ops);
              const tempi::TransferChoice second =
                  model.choose_transfer(block, total, ops);
              const std::string where =
                  "kind " + std::to_string(static_cast<int>(kind)) +
                  " same_node " + std::to_string(same_node) + " queued " +
                  std::to_string(queued) + " block " +
                  std::to_string(block) + " total " + std::to_string(total) +
                  " limit " + std::to_string(limit);
              EXPECT_EQ(second.method, first.method) << where;
              EXPECT_EQ(second.chunk_bytes, first.chunk_bytes) << where;
              if (kind != TransferKind::Leg && total <= limit) {
                EXPECT_EQ(first.method,
                          argmin_method(model, static_cast<double>(block),
                                        static_cast<double>(total)))
                    << where;
              }
            }
          }
        }
      }
    }
    tempi::set_wire_chunk_limit(old_limit);
  }
}

TEST(ModelCache, IndependentInstancesAgree) {
  // The cache is per instance; a cold model must reproduce a warm one.
  const tempi::PerfModel warm;
  for (std::size_t block : {2u, 16u, 128u}) {
    for (std::size_t total : {1024u, 65536u, 4u << 20}) {
      (void)warm.choose_transfer(block, total); // warm the cache
    }
  }
  const tempi::PerfModel cold;
  for (std::size_t block : {2u, 16u, 128u}) {
    for (std::size_t total : {1024u, 65536u, 4u << 20}) {
      EXPECT_EQ(warm.choose_transfer(block, total).method,
                cold.choose_transfer(block, total).method);
    }
  }
}

TEST(ModelCache, ConcurrentChooseIsConsistent) {
  // Many threads hammer the same keys; every result must equal the argmin
  // (the lock-free cache may race benignly, never return a wrong method).
  const tempi::PerfModel model;
  const std::vector<std::pair<std::size_t, std::size_t>> keys = {
      {1, 4096},  {8, 65536},   {24, 123456}, {64, 1 << 20},
      {256, 512}, {512, 99999}, {1024, 8 << 20}};
  std::vector<tempi::Method> expected;
  expected.reserve(keys.size());
  for (const auto &[b, t] : keys) {
    expected.push_back(argmin_method(model, static_cast<double>(b),
                                     static_cast<double>(t)));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (model.choose_transfer(keys[i].first, keys[i].second).method !=
              expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread &t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ModelCache, HitMissCountersAdvance) {
  tempi::trace::reset_counters();
  const tempi::PerfModel model;
  (void)model.choose_transfer(7, 777777); // cold: a miss
  EXPECT_EQ(counter("tempi.model.cache_misses"), 1u);
  EXPECT_EQ(counter("tempi.model.cache_hits"), 0u);
  (void)model.choose_transfer(7, 777777); // warm: a hit
  EXPECT_EQ(counter("tempi.model.cache_misses"), 1u);
  EXPECT_EQ(counter("tempi.model.cache_hits"), 1u);
}

TEST(ModelCache, TwoLegKeysOfOneSetBothStayCached) {
  // Two hot Leg decisions whose keys share low bits [9:0] took one slot
  // of the former direct-mapped cache and evicted each other on every
  // alternation; the set holds both, so each misses once.
  const tempi::TransferOperands a{tempi::TransferKind::Leg, false, 17280};
  const std::uint64_t home = tempi::choice_cache_key(0, 13824, a) & 1023;
  tempi::TransferOperands b{tempi::TransferKind::Leg, false, 0};
  std::size_t total = 0;
  for (std::size_t t = 1; t < (std::size_t{1} << 20); ++t) {
    if ((tempi::choice_cache_key(0, t, b) & 1023) == home && t != 13824) {
      total = t;
      break;
    }
  }
  ASSERT_NE(total, 0u);
  tempi::trace::reset_counters();
  const tempi::PerfModel model;
  for (int round = 0; round < 100; ++round) {
    (void)model.choose_transfer(0, 13824, a);
    (void)model.choose_transfer(0, total, b);
  }
  EXPECT_EQ(counter("tempi.model.cache_misses"), 2u);
  EXPECT_EQ(counter("tempi.model.cache_hits"), 198u);
}

TEST(PerfFile, SaveLoadRoundtrip) {
  const tempi::SystemPerf p = tempi::builtin_perf();
  const std::string path = "test_perf_roundtrip.txt";
  ASSERT_TRUE(tempi::save_perf(p, path));
  const auto loaded = tempi::load_perf(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cpu_cpu.bytes, p.cpu_cpu.bytes);
  EXPECT_EQ(loaded->cpu_cpu.us, p.cpu_cpu.us);
  EXPECT_EQ(loaded->device_pack.us, p.device_pack.us);
  EXPECT_EQ(loaded->oneshot_unpack.block_bytes, p.oneshot_unpack.block_bytes);
  std::filesystem::remove(path);
}

TEST(PerfFile, MissingFileYieldsNullopt) {
  EXPECT_FALSE(tempi::load_perf("/nonexistent/path/perf.txt").has_value());
}

// --- the self-tuning observation sink (closed-loop model) -------------------

TEST(Tuner, ObserveFoldsExactKnotsWithEwma) {
  tempi::tune::reset();
  tempi::tune::observe(tempi::tune::Axis::DevicePack, 8, 1 << 20,
                       vcuda::us_to_ns(100.0));
  tempi::tune::observe(tempi::tune::Axis::DevicePack, 8, 1 << 20,
                       vcuda::us_to_ns(200.0));
  EXPECT_EQ(counter("tempi.model.observations"), 2u);

  tempi::SystemPerf perf = tempi::builtin_perf();
  EXPECT_TRUE(tempi::tune::fold_into(perf));
  // alpha = 0.5: 100 then 100 + 0.5 * (200 - 100) = 150, at the exact
  // {8 B, 1 MiB} knot.
  EXPECT_NEAR(perf.device_pack.query(8.0, 1048576.0), 150.0, 0.01);
  EXPECT_GE(counter("tempi.model.updates"), 1u);
  // Neighbouring monolithic knots keep their modeled values: the fold
  // seeds new rows/columns from the pre-insertion interpolation.
  const tempi::SystemPerf builtin = tempi::builtin_perf();
  EXPECT_NEAR(perf.device_pack.query(128.0, 4.0 * 1024 * 1024),
              builtin.device_pack.query(128.0, 4.0 * 1024 * 1024), 1e-6);
  tempi::tune::reset();
}

TEST(Tuner, HysteresisSuppressesSmallDriftAfterFold) {
  tempi::tune::reset();
  for (int i = 0; i < 2; ++i) {
    tempi::tune::observe(tempi::tune::Axis::CpuWire, 0, 1 << 16,
                         vcuda::us_to_ns(100.0));
  }
  tempi::SystemPerf perf = tempi::builtin_perf();
  ASSERT_TRUE(tempi::tune::fold_into(perf)); // first fold: always news
  // Samples near the applied value must not force another refresh...
  for (int i = 0; i < 4; ++i) {
    tempi::tune::observe(tempi::tune::Axis::CpuWire, 0, 1 << 16,
                         vcuda::us_to_ns(105.0));
  }
  EXPECT_FALSE(tempi::tune::fold_into(perf));
  // ...but a real shift (> 25% relative) does.
  for (int i = 0; i < 6; ++i) {
    tempi::tune::observe(tempi::tune::Axis::CpuWire, 0, 1 << 16,
                         vcuda::us_to_ns(400.0));
  }
  EXPECT_TRUE(tempi::tune::drift_pending());
  EXPECT_TRUE(tempi::tune::fold_into(perf));
  tempi::tune::reset();
}

TEST(Tuner, DisabledObservationIsANoop) {
  tempi::tune::reset();
  tempi::tune::set_enabled(false);
  tempi::tune::observe(tempi::tune::Axis::DevicePack, 8, 65536,
                       vcuda::us_to_ns(1000.0));
  EXPECT_FALSE(tempi::tune::wire_observable(1 << 20));
  tempi::tune::set_enabled(true);
  EXPECT_EQ(counter("tempi.model.observations"), 0u);
  EXPECT_FALSE(tempi::tune::drift_pending());
  tempi::SystemPerf perf = tempi::builtin_perf();
  EXPECT_FALSE(tempi::tune::fold_into(perf));
  tempi::tune::reset();
}

TEST(Tuner, WireObservabilityFollowsEagerThreshold) {
  // Eager sends return after host overhead — their duration is not the
  // wire; only rendezvous-sized sends are trustworthy samples.
  EXPECT_FALSE(tempi::tune::wire_observable(64 * 1024));
  EXPECT_TRUE(tempi::tune::wire_observable(64 * 1024 + 1));
}

TEST(Tuner, ObservationsRaceChooseWithoutCorruption) {
  // Observations never touch a live PerfModel (they fold on refresh), so
  // concurrent decisions must keep returning the model's own argmin.
  tempi::tune::reset();
  const tempi::PerfModel model;
  const tempi::Method expected = argmin_method(model, 8.0, 65536.0);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 500; ++i) {
        if ((w & 1) == 0) {
          tempi::tune::observe(tempi::tune::Axis::DevicePack, 8, 65536,
                               vcuda::us_to_ns(50.0 + i));
        } else if (model.choose_transfer(8, 65536).method != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(counter("tempi.model.observations"), 2u);
  tempi::tune::reset();
}

TEST(Tuner, RefreshSwapsLiveModelAndNeverServesStaleChoice) {
  tempi::ScopedInterposer guard; // install() wires the apply hook
  tempi::tune::reset();
  const std::uint64_t gen0 = tempi::tune::refresh_generation();
  const std::uint64_t tgen0 = tempi::transfer_config_generation();
  // Warm the live model's choice cache at the key we are about to poison.
  const tempi::Method before =
      tempi::perf_model().choose_transfer(8, 1 << 20).method;
  // Device packing at {8 B, 1 MiB} "measures" catastrophically slow.
  for (int i = 0; i < 2; ++i) {
    tempi::tune::observe(tempi::tune::Axis::DevicePack, 8, 1 << 20,
                         vcuda::us_to_ns(1.0e6));
  }
  EXPECT_TRUE(tempi::tune::drift_pending());
  EXPECT_TRUE(tempi::tune::refresh_now());
  EXPECT_FALSE(tempi::tune::drift_pending());
  EXPECT_EQ(tempi::tune::refresh_generation(), gen0 + 1);
  EXPECT_GT(tempi::transfer_config_generation(), tgen0);
  EXPECT_GE(counter("tempi.model.generation_bumps"), 1u);
  // The swapped-in model must re-consult the tuned tables, not replay the
  // cached pre-refresh choice: Device can no longer win this key.
  const tempi::Method after =
      tempi::perf_model().choose_transfer(8, 1 << 20).method;
  EXPECT_NE(after, tempi::Method::Device);
  EXPECT_GT(tempi::perf_model().estimate_us(tempi::Method::Device, 8.0,
                                            1048576.0),
            1.0e5);
  (void)before;
  // A second refresh with nothing new folds nothing and bumps nothing.
  const std::uint64_t gen1 = tempi::tune::refresh_generation();
  EXPECT_TRUE(tempi::tune::refresh_now());
  EXPECT_EQ(tempi::tune::refresh_generation(), gen1);
  tempi::tune::reset();
}

// --- burst pricing (TransferChoices::overlapped) -----------------------------

TEST(BurstPricing, HaloShapesPickOneShotAloneAndDeviceInABurst) {
  // halo_p2p's grid (8 doubles per point, radius 3) sends rows of 192 B:
  // 1728 B corners and 13824 B edges. Alone, one-shot's lower host wire
  // floor beats the GPU floor; in a burst the floors overlap and the
  // device pack's lower cost wins. Faces (110592 B) are device either way.
  const tempi::PerfModel model;
  for (const std::size_t total : {std::size_t{1728}, std::size_t{13824}}) {
    const tempi::TransferChoices c = model.choose_transfers(192, total);
    EXPECT_EQ(c.isolated.method, tempi::Method::OneShot) << total;
    EXPECT_EQ(c.overlapped.method, tempi::Method::Device) << total;
  }
  const tempi::TransferChoices face = model.choose_transfers(192, 110592);
  EXPECT_EQ(face.isolated.method, tempi::Method::Device);
  EXPECT_EQ(face.overlapped.method, tempi::Method::Device);
}

TEST(BurstPricing, BurstChoiceIsTheFloorFreeArgmin) {
  // A burst decision is the argmin of pack + (wire - 1-byte wire) +
  // unpack; Persistent and Leg decisions carry the isolated answer twice,
  // and above the wire limit both contexts get the same Pipelined choice.
  using tempi::Method;
  using tempi::TransferKind;
  const tempi::PerfModel model;
  const tempi::SystemPerf &p = model.perf();
  for (std::size_t block : {1u, 8u, 64u, 192u, 1024u}) {
    for (std::size_t total = 256; total <= (8u << 20); total *= 4) {
      const auto b = static_cast<double>(block);
      const auto t = static_cast<double>(total);
      const double device = model.estimate_us(Method::Device, b, t) -
                            p.gpu_gpu.query(1.0);
      const double oneshot = model.estimate_us(Method::OneShot, b, t) -
                             p.cpu_cpu.query(1.0);
      const double staged = model.estimate_us(Method::Staged, b, t) -
                            p.cpu_cpu.query(1.0);
      Method want = Method::Device;
      if (oneshot < device && oneshot <= staged) {
        want = Method::OneShot;
      } else if (staged < device && staged < oneshot) {
        want = Method::Staged;
      }
      EXPECT_EQ(model.choose_transfers(block, total).overlapped.method, want)
          << "block " << block << " total " << total;
      for (const TransferKind kind :
           {TransferKind::Persistent, TransferKind::Leg}) {
        const tempi::TransferChoices c =
            model.choose_transfers(block, total, {.kind = kind});
        EXPECT_EQ(c.overlapped.method, c.isolated.method)
            << "block " << block << " total " << total;
        EXPECT_EQ(c.overlapped.chunk_bytes, c.isolated.chunk_bytes);
      }
    }
  }
  const std::size_t old_limit = tempi::set_wire_chunk_limit(1 << 20);
  const tempi::TransferChoices big = model.choose_transfers(8, 4 << 20);
  EXPECT_EQ(big.isolated.method, Method::Pipelined);
  EXPECT_EQ(big.overlapped.method, Method::Pipelined);
  EXPECT_EQ(big.overlapped.chunk_bytes, big.isolated.chunk_bytes);
  tempi::set_wire_chunk_limit(old_limit);
}

TEST(BurstPricing, OneQueryFillsBothContexts) {
  // A cache slot holds both answers: the first query pays the one miss,
  // and every later one hits, whichever answer its caller reads.
  tempi::trace::reset_counters();
  const tempi::PerfModel model;
  vcuda::VirtualNs t0 = vcuda::virtual_now();
  const tempi::TransferChoices both = model.choose_transfers(192, 13824);
  EXPECT_EQ(vcuda::virtual_now() - t0, tempi::kModelQueryUncachedNs);
  EXPECT_EQ(both.isolated.method, tempi::Method::OneShot);
  EXPECT_EQ(both.overlapped.method, tempi::Method::Device);
  t0 = vcuda::virtual_now();
  EXPECT_EQ(model.choose_transfers(192, 13824).overlapped.method,
            tempi::Method::Device);
  EXPECT_EQ(model.choose_transfer(192, 13824).method, tempi::Method::OneShot);
  EXPECT_EQ(vcuda::virtual_now() - t0, 2 * tempi::kModelQueryCachedNs);
  EXPECT_EQ(counter("tempi.model.cache_misses"), 1u);
  EXPECT_EQ(counter("tempi.model.cache_hits"), 2u);
}

/// FNV-1a over one 64-bit value.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Tables folded from 400 seeded tuner observations over every axis.
tempi::SystemPerf seeded_tuned_perf() {
  tempi::tune::reset();
  std::mt19937_64 rng(22);
  for (int i = 0; i < 400; ++i) {
    const auto axis = static_cast<tempi::tune::Axis>(rng() % 8);
    const std::size_t block = std::size_t{1} << (rng() % 11);
    const std::size_t total = std::size_t{64} << (rng() % 18);
    const auto dur = static_cast<vcuda::VirtualNs>(1000 + rng() % 400000);
    tempi::tune::observe(axis, block, total, dur);
  }
  tempi::SystemPerf perf = tempi::builtin_perf();
  tempi::tune::fold_into(perf, /*mark_applied=*/false);
  tempi::tune::reset();
  return perf;
}

/// Digest of every isolated decision (method, chunk, virtual ns charged)
/// over a grid of 7 blocks x 12 totals x 3 kinds x same_node x 4 queue
/// depths x {INT_MAX, 1 MiB} wire limit x {none, 300000 B} chunk override
/// x 2 queries (cold, then cached). Each operand gets a fresh model, so
/// the charges do not depend on which keys share a cache set (the keys
/// of multi-leg and Leg decisions fold in the process-wide transfer
/// config generation).
std::uint64_t isolated_decision_digest(const tempi::SystemPerf &perf,
                                       std::size_t *decisions) {
  using tempi::TransferKind;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::size_t limit :
       {tempi::kMaxWireBytes, std::size_t{1} << 20}) {
    const std::size_t old_limit = tempi::set_wire_chunk_limit(limit);
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{300000}}) {
      tempi::set_chunk_bytes_override(chunk);
        for (const TransferKind kind : {TransferKind::P2P,
                                        TransferKind::Persistent,
                                        TransferKind::Leg}) {
          for (const bool same_node : {false, true}) {
            for (const std::size_t queued :
                 {std::size_t{0}, std::size_t{4096}, std::size_t{1} << 20,
                  std::size_t{4} << 20}) {
              for (const std::size_t block :
                   {1u, 3u, 8u, 24u, 100u, 512u, 1024u}) {
                for (const std::size_t total :
                     {64u, 192u, 1000u, 1728u, 4096u, 13824u, 65536u,
                      110592u, 262144u, 1u << 20, 3u << 20, 12u << 20}) {
                  const tempi::TransferOperands ops{kind, same_node, queued};
                  const tempi::PerfModel model(perf);
                  for (int pass = 0; pass < 2; ++pass) {
                    const vcuda::VirtualNs t0 = vcuda::virtual_now();
                    const tempi::TransferChoice c =
                        model.choose_transfer(block, total, ops);
                    h = fnv1a(h, static_cast<std::uint64_t>(c.method));
                    h = fnv1a(h, c.chunk_bytes);
                    h = fnv1a(h, static_cast<std::uint64_t>(
                                     vcuda::virtual_now() - t0));
                    ++*decisions;
                  }
                }
              }
            }
          }
        }
    }
    tempi::set_chunk_bytes_override(0);
    tempi::set_wire_chunk_limit(old_limit);
  }
  return h;
}

TEST(BurstPricing, IsolatedDecisionsAreUnchanged) {
  // The digests were recorded from the decision function as it was
  // before burst pricing existed (same grid, same seeded tuner fold):
  // every isolated P2P, Persistent and Leg decision, with its chunk and
  // its virtual charge, must stay bit-identical. A digest change is a
  // change to isolated decisions and needs its own justification.
  std::size_t n = 0;
  EXPECT_EQ(isolated_decision_digest(tempi::builtin_perf(), &n),
            0xa3af87f44da573a5ull);
  EXPECT_EQ(n, 16128u);
  n = 0;
  EXPECT_EQ(isolated_decision_digest(seeded_tuned_perf(), &n),
            0x1afff88204ed32e5ull);
  EXPECT_EQ(n, 16128u);
}

TEST(BurstPricing, PackerAlternatingContextsHitsTheMemo) {
  // hotpath_mt's shape: each round posts an Irecv (alone: the first post
  // since the last completion) and then an Isend of the same packer and
  // count (in a burst). The first Irecv's model query fills both answers
  // of the packer memo, so every later call of either context is a memo
  // hit, never a model query.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  tempi::tune::set_enabled(false); // no refresh may move the generation
  MPI_Datatype t = nullptr;
  MPI_Type_vector(9, 192, 384, MPI_BYTE, &t); // a 1728 B halo corner
  MPI_Type_commit(&t);
  testing_helpers::SpaceBuffer src(vcuda::MemorySpace::Device, 9 * 384);
  testing_helpers::SpaceBuffer dst(vcuda::MemorySpace::Device, 9 * 384);
  testing_helpers::fill_pattern(src.get(), src.size());
  tempi::trace::reset_counters();
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 7, MPI_COMM_WORLD, &reqs[0]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Isend(src.get(), 1, t, 0, 7, MPI_COMM_WORLD, &reqs[1]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
  }
  EXPECT_EQ(counter("tempi.model.cache_misses"), 1u);
  EXPECT_EQ(counter("tempi.model.cache_hits"), 0u);
  EXPECT_EQ(counter("tempi.model.memo_hits"), 2u * kRounds - 1);
  EXPECT_EQ(counter("tempi.model.overlapped_choices"),
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(counter("tempi.isend.device"), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(counter("tempi.isend.oneshot"), 0u);
  // An Isend posted first after a completion is alone: the memo's
  // isolated answer, still no model query.
  MPI_Request req = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Isend(src.get(), 1, t, 0, 8, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Recv(dst.get(), 1, t, 0, 8, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(counter("tempi.isend.oneshot"), 1u);
  EXPECT_EQ(counter("tempi.model.cache_misses"), 1u);
  EXPECT_EQ(counter("tempi.model.memo_hits"), 2u * kRounds + 1);
  EXPECT_EQ(counter("tempi.model.overlapped_choices"),
            static_cast<std::uint64_t>(kRounds));
  // Request_free ends a burst too: an Isend posted after its post was
  // freed is alone again.
  MPI_Request freed = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Isend(src.get(), 1, t, 0, 9, MPI_COMM_WORLD, &freed),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Request_free(&freed), MPI_SUCCESS);
  ASSERT_EQ(MPI_Isend(src.get(), 1, t, 0, 10, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Recv(dst.get(), 1, t, 0, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
            MPI_SUCCESS);
  ASSERT_EQ(
      MPI_Recv(dst.get(), 1, t, 0, 10, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
      MPI_SUCCESS);
  ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(counter("tempi.isend.oneshot"), 3u);
  EXPECT_EQ(counter("tempi.model.memo_hits"), 2u * kRounds + 5);
  EXPECT_EQ(counter("tempi.model.overlapped_choices"),
            static_cast<std::uint64_t>(kRounds));
  MPI_Type_free(&t);
  tempi::tune::set_enabled(true);
}

TEST(PerfFile, CorruptFileYieldsNullopt) {
  const std::string path = "test_perf_corrupt.txt";
  {
    std::FILE *f = std::fopen(path.c_str(), "w");
    std::fputs("not a perf file", f);
    std::fclose(f);
  }
  EXPECT_FALSE(tempi::load_perf(path).has_value());
  std::filesystem::remove(path);
}

} // namespace
