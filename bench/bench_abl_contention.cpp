// Ablation: thread-multiple scaling of the request engine.
//
// The pre-PR engine funneled every Isend/Irecv/Wait and every persistent
// Start through one pool mutex and one lease-registry mutex, so four
// application threads made each other's "nanoseconds per message" budget
// (Sec. 4/5) a lock-convoy lottery. This bench hammers the full
// non-blocking + persistent hot path from 1–8 plain std::threads — each
// with its own rank context and self-traffic, so every shared structure
// they meet (pool shards, buffer-cache depot, handle cache) belongs to
// TEMPI, not the wire — and gates on three claims:
//   (1) scaling: per-op CPU cost must not inflate more than ~33% under
//       4-way concurrency (throughput_cpu(4) >= 3x throughput_cpu(1), as
//       the median ratio over interleaved 1-/4-thread run pairs);
//   (2) no single-thread tax: the table-driven steady-state setup must
//       still beat the pre-PR recompute path from bench_abl_overhead;
//   (3) no serialization: the pool lock's contended share over the
//       4-thread runs stays below kContendedShare. A sleeping-mutex convoy
//       costs little thread CPU when the host is idle, so (1) alone can
//       miss it; the lock's own count cannot. The single-shard layout is
//       the positive control: run alone it reads far above the bound,
//       showing the count sees contention on this host. It is reported,
//       not gated here: on a host busy with other work (a parallel ctest)
//       the four threads time-share and it reads 0; the CI step, which
//       runs the bench alone, asserts it.
//
// Throughput is normalized by per-thread CPU time
// (CLOCK_THREAD_CPUTIME_ID), not wall time: CI runners and this repo's CI
// gate boxes have few cores, and a wall-clock target would measure the
// scheduler. Lock convoys still show up in CPU time — failed fast paths,
// futex syscalls, and cache-line bouncing all burn cycles on-CPU.
#include "bench_common.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/kernels.hpp"
#include "tempi/packer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

/// The gate of claim (3), calibrated on a 2-vCPU host over 13 standalone
/// smoke runs: the 4-thread runs read 0 contended of ~148k acquires in
/// every one, the single-shard control 8.9-16.9%. A mutant sending every
/// ticket to shard 0 read 12.7-13.9% over 3 runs.
constexpr double kContendedShare = 0.01;

double contended_share(const support::LockStats &s) {
  return s.acquires == 0 ? 0.0
                         : static_cast<double>(s.contended) /
                               static_cast<double>(s.acquires);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One worker's hammer cycle: pre-posted Irecv + eager Isend + Waitall on
/// the request engine, then a persistent Start pair + Waitall on the
/// channel fast path. Self-traffic with a per-thread tag: each thread owns
/// a single-rank world, so the wire never blocks and the only shared state
/// is TEMPI's.
struct Worker {
  MPI_Datatype type = nullptr;
  void *sbuf = nullptr;
  void *rbuf = nullptr;
  MPI_Request channels[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  int tag = 0;

  void setup(int tid) {
    int provided = 0;
    MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
    tag = tid;
    type = bench::make_vector_2d(64, 16, 32);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(type, &lb, &extent);
    vcuda::Malloc(&sbuf, static_cast<std::size_t>(extent) + 64);
    vcuda::Malloc(&rbuf, static_cast<std::size_t>(extent) + 64);
    MPI_Recv_init(rbuf, 1, type, 0, tag + 4096, MPI_COMM_WORLD, &channels[0]);
    MPI_Send_init(sbuf, 1, type, 0, tag + 4096, MPI_COMM_WORLD, &channels[1]);
  }

  std::uint64_t cycle() {
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    MPI_Irecv(rbuf, 1, type, 0, tag, MPI_COMM_WORLD, &reqs[0]);
    MPI_Isend(sbuf, 1, type, 0, tag, MPI_COMM_WORLD, &reqs[1]);
    MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE);
    MPI_Start(&channels[0]);
    MPI_Start(&channels[1]);
    MPI_Waitall(2, channels, MPI_STATUSES_IGNORE);
    return reinterpret_cast<std::uintptr_t>(reqs[0]) & 1;
  }

  void teardown() {
    MPI_Request_free(&channels[0]);
    MPI_Request_free(&channels[1]);
    MPI_Type_free(&type);
    vcuda::Free(sbuf);
    vcuda::Free(rbuf);
    MPI_Finalize();
  }
};

/// CPU-time-normalized throughput (cycles per CPU-second) of `threads`
/// workers each running `iters` cycles: total cycles over the slowest
/// thread's on-CPU seconds. With per-op CPU cost c this is threads/c, so
/// the 4-vs-1 thread ratio directly measures concurrency-induced CPU
/// inflation, independent of how many cores the host happens to have.
double hammer_throughput(int threads, int iters) {
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> sink{0};
  std::vector<double> cpu_s(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w, iters] {
      Worker worker;
      worker.setup(w);
      std::uint64_t local = worker.cycle(); // warm every cache before timing
      local += worker.cycle();
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      const double c0 = thread_cpu_seconds();
      for (int i = 0; i < iters; ++i) {
        local += worker.cycle();
      }
      cpu_s[static_cast<std::size_t>(w)] = thread_cpu_seconds() - c0;
      sink.fetch_add(local, std::memory_order_relaxed);
      worker.teardown();
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread &w : workers) {
    w.join();
  }
  const double slowest = *std::max_element(cpu_s.begin(), cpu_s.end());
  const double cycles = static_cast<double>(threads) * iters +
                        static_cast<double>(sink.load() & 1);
  return cycles / slowest;
}

double best_throughput(int threads, int iters, int tries) {
  double best = hammer_throughput(threads, iters);
  for (int i = 1; i < tries; ++i) {
    best = std::max(best, hammer_throughput(threads, iters));
  }
  return best;
}

/// Wall-clock ns/call over `iters` calls (bench_abl_overhead's helper).
template <typename Fn>
double wall_ns_per_call(int iters, Fn &&fn) {
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink += fn();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() +
      static_cast<double>(sink & 1);
  return ns / iters;
}

} // namespace

int main() {
  tempi::install();
  sysmpi::ensure_self_context();

  std::printf("Ablation — thread-multiple request-engine scaling\n\n");

  const int kIters = bench::smoke_mode() ? 512 : 4096;
  const int kTries = 2;
  // The gated 4-vs-1 ratio comes from kPairs interleaved (1-thread,
  // 4-thread) runs: on a small shared host the CPU speed drifts in phases
  // longer than one run, so comparing the best 1-thread run with the best
  // 4-thread run can pair a fast phase with a slow one. Both runs of a
  // pair share a phase, their ratio cancels it, and the median drops the
  // pairs a phase boundary splits.
  const int kPairs = 9;

  // Thread-scaling sweep on the default sharded layout.
  tempi::async::reset_pool_lock_stats();
  const int counts[] = {1, 2, 4, 8};
  double thr[4] = {0, 0, 0, 0};
  std::vector<double> one(kPairs), four(kPairs), ratios(kPairs);
  support::LockStats pool4{}; // the 4-thread runs' share of the pool lock
  for (int p = 0; p < kPairs; ++p) {
    one[static_cast<std::size_t>(p)] = hammer_throughput(1, kIters);
    const support::LockStats before = tempi::async::pool_lock_stats();
    four[static_cast<std::size_t>(p)] = hammer_throughput(4, kIters);
    const support::LockStats after = tempi::async::pool_lock_stats();
    pool4.acquires += after.acquires - before.acquires;
    pool4.contended += after.contended - before.contended;
    ratios[static_cast<std::size_t>(p)] =
        four[static_cast<std::size_t>(p)] / one[static_cast<std::size_t>(p)];
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  thr[0] = median(one);
  thr[1] = best_throughput(2, kIters, kTries);
  thr[2] = median(four);
  thr[3] = best_throughput(8, kIters, kTries);
  std::printf("Isend/Irecv/Waitall + persistent Start hammer "
              "(%d cycles/thread, %zu shards; 1 and 4 threads: median of "
              "%d interleaved pairs, 2 and 8: best of %d):\n",
              kIters, tempi::async::shard_count(), kPairs, kTries);
  for (int i = 0; i < 4; ++i) {
    std::printf("  %d thread%s: %10.0f cycles/cpu-sec\n", counts[i],
                counts[i] == 1 ? " " : "s", thr[i]);
  }
  const double scaling = median(ratios);
  const support::LockStats pool = tempi::async::pool_lock_stats();
  std::printf("  4-vs-1 CPU-normalized scaling: %.2fx (median per-pair "
              "ratio; gate: >= 3x)\n",
              scaling);
  std::printf("  pool lock: %llu acquires, %llu contended\n",
              static_cast<unsigned long long>(pool.acquires),
              static_cast<unsigned long long>(pool.contended));
  const double share4 = contended_share(pool4);
  std::printf("  pool lock, 4-thread runs: %llu acquires, %llu contended "
              "(share %.4f; gate: < %.2f)\n\n",
              static_cast<unsigned long long>(pool4.acquires),
              static_cast<unsigned long long>(pool4.contended), share4,
              kContendedShare);

  // Kill-switch comparison: the same 4-thread hammer on the single-shard
  // layout (TEMPI_SHARDS=1 equivalent). Reported, not gated — on a 1-core
  // host the convoy is partly invisible to CPU time.
  double thr4_shard1 = 0.0;
  double share1 = 0.0;
  const std::size_t default_shards = tempi::async::shard_count();
  if (tempi::async::configure_shards(1)) {
    // Rebuilding the shard array starts fresh mutexes; reset so the stats
    // below cover exactly this run.
    tempi::async::reset_pool_lock_stats();
    thr4_shard1 = best_throughput(4, kIters, kTries);
    const support::LockStats single = tempi::async::pool_lock_stats();
    std::printf("single-shard kill-switch (TEMPI_SHARDS=1), 4 threads:\n");
    std::printf("  %10.0f cycles/cpu-sec (sharded: %10.0f)\n", thr4_shard1,
                thr[2]);
    share1 = contended_share(single);
    std::printf("  pool lock: %llu acquires, %llu contended (share %.4f; "
                "positive control: > %.2f)\n\n",
                static_cast<unsigned long long>(single.acquires),
                static_cast<unsigned long long>(single.contended), share1,
                kContendedShare);
    tempi::async::configure_shards(default_shards);
  }

  // Single-thread setup budget: the steady-state send setup must not have
  // paid for its thread-safety. Same closures as bench_abl_overhead —
  // pre-PR map/shared_mutex/tree-walk path vs the table-driven one.
  MPI_Datatype t = bench::make_vector_2d(1024, 16, 32);
  const tempi::Packer *raw = tempi::find_packer_fast(t);
  raw->remember_transfers(
      1, 1, {{tempi::Method::Device, 0}, {tempi::Method::Device, 0}});
  const int kSetupIters = bench::smoke_mode() ? 1 << 14 : 1 << 18;

  std::shared_mutex legacy_model_mutex;
  std::atomic<std::size_t> legacy_gauge{0};
  std::map<std::size_t, std::vector<void *>> legacy_free_list;
  void *seed = nullptr;
  vcuda::Malloc(&seed, raw->packed_bytes(1));
  legacy_free_list[raw->packed_bytes(1)].push_back(seed);
  const auto legacy_setup = [&, t] {
    const auto packer = tempi::find_packer(t);
    const std::shared_lock<std::shared_mutex> model_lock(legacy_model_mutex);
    vcuda::this_thread_timeline().advance(tempi::kModelQueryCachedNs);
    const int w = tempi::select_word_size(packer->block());
    const vcuda::LaunchConfig cfg =
        tempi::make_launch_config(packer->block(), w, 1);
    const auto it = legacy_free_list.lower_bound(packer->packed_bytes(1));
    void *wire = it->second.back();
    it->second.pop_back();
    legacy_gauge.fetch_add(1, std::memory_order_relaxed);
    vcuda::this_thread_timeline().advance(120);
    legacy_free_list[it->first].push_back(wire);
    legacy_gauge.fetch_sub(1, std::memory_order_relaxed);
    return static_cast<std::uint64_t>(cfg.block.x) +
           reinterpret_cast<std::uintptr_t>(wire);
  };
  std::atomic<std::uint64_t> model_generation{1};
  const auto table_setup = [&, t] {
    const tempi::Packer *packer = tempi::find_packer_fast(t);
    const std::uint64_t gen = model_generation.load(std::memory_order_acquire);
    const auto choice = packer->cached_transfers(1, gen);
    vcuda::this_thread_timeline().advance(tempi::kMethodMemoHitNs);
    const vcuda::LaunchConfig cfg = tempi::launch_config_for(packer->plan(), 1);
    tempi::CachedBuffer wire =
        tempi::lease_buffer(vcuda::MemorySpace::Device, packer->packed_bytes(1));
    return static_cast<std::uint64_t>(cfg.block.x) +
           static_cast<std::uint64_t>(choice ? choice->isolated.method
                                             : tempi::Method::Device) +
           reinterpret_cast<std::uintptr_t>(wire.get());
  };
  const auto best_wall3 = [kSetupIters](const auto &fn) {
    double best = wall_ns_per_call(kSetupIters, fn);
    for (int i = 0; i < 2; ++i) {
      best = std::min(best, wall_ns_per_call(kSetupIters, fn));
    }
    return best;
  };
  const double setup_old1 = best_wall3(legacy_setup);
  const double setup_new1 = best_wall3(table_setup);
  std::printf("single-thread steady-state setup (wall clock):\n");
  std::printf("  pre-PR recompute path: %6.1f ns/call\n", setup_old1);
  std::printf("  table-driven path:     %6.1f ns/call  (gate: no "
              "regression)\n\n",
              setup_new1);
  for (auto &[cap, ptrs] : legacy_free_list) {
    for (void *p : ptrs) {
      vcuda::Free(p);
    }
  }

  bool gates_ok = true;
  [[maybe_unused]] const auto gate = [&gates_ok](bool ok, const char *what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      gates_ok = false;
    }
  };
#ifdef NDEBUG
  // Optimized-build claims only; -O0/sanitizer runs report, not enforce.
  gate(scaling >= 3.0,
       "4-thread CPU-normalized throughput below 3x the 1-thread run");
  gate(setup_new1 <= setup_old1,
       "sharded engine regressed the single-thread setup path");
  gate(share4 < kContendedShare,
       "4-thread runs contended the pool lock above the bound");
#endif
  if (share1 <= kContendedShare) {
    std::printf("note: the single-shard control saw no contention (a busy "
                "host time-shares the threads); the share gate is blind in "
                "this run\n");
  }

  char extra[768];
  std::snprintf(
      extra, sizeof extra,
      "\"contention\": {\"threads\": [1, 2, 4, 8], "
      "\"cycles_per_cpu_sec\": [%.0f, %.0f, %.0f, %.0f], "
      "\"scaling_4v1\": %.3f, \"throughput_4t_shards1\": %.0f, "
      "\"setup_old1_ns\": %.1f, \"setup_new1_ns\": %.1f, "
      "\"pool_acquires\": %llu, \"pool_contended\": %llu, "
      "\"pool_contended_share_4t\": %.6f, "
      "\"pool_contended_share_shards1\": %.6f, "
      "\"contended_share_bound\": %.4f}",
      thr[0], thr[1], thr[2], thr[3], scaling, thr4_shard1, setup_old1,
      setup_new1, static_cast<unsigned long long>(pool.acquires),
      static_cast<unsigned long long>(pool.contended), share4, share1,
      kContendedShare);
  bench::emit_json("abl_contention",
                   "1-8 threads, Isend/Irecv/Waitall + persistent Start, "
                   "CPU-time-normalized",
                   scaling, extra);

  MPI_Type_free(&t);
  tempi::uninstall();
  return gates_ok ? 0 : 1;
}
