// Ablation: fixed per-message overhead on the TEMPI critical path.
//
// The paper's Sec. 4/5 claim is that datatype handling adds only
// nanoseconds per message once resources are cached: ~277 ns per cached
// method selection, "tens or hundreds of nanoseconds" amortized for cached
// resources. This bench tracks that budget piece by piece:
//   (1) method selection on the modeled clock — uncached interpolation,
//       choice-cache hit, and packer method-memo hit;
//   (2) datatype lookup on the wall clock — the pre-PR map + shared_ptr
//       path (find_packer) vs the open-addressed handle cache
//       (find_packer_fast);
//   (3) launch configuration — per-call recompute (select_word_size +
//       make_launch_config) vs the commit-time PackPlan;
//   (4) the composite steady-state send setup (lookup + selection + plan
//       + intermediate lease), old recompute path vs new table-driven one.
#include "bench_common.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/kernels.hpp"
#include "tempi/packer.hpp"
#include "tempi/perf_model.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

/// Wall-clock ns/call of `fn` over `iters` calls; `fn` returns a value the
/// accumulator consumes so the loop cannot be optimized away.
template <typename Fn>
double wall_ns_per_call(int iters, Fn &&fn) {
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink += fn();
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Fold the sink into the measurement in a way the optimizer cannot see
  // through but that never changes the result meaningfully.
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() +
      static_cast<double>(sink & 1);
  return ns / iters;
}

/// As wall_ns_per_call, but with `threads` concurrent rank-threads each
/// running `iters` calls of `per_thread()`'s returned closure (per-rank
/// state is built by `per_thread` inside each thread, mirroring TEMPI's
/// per-rank thread_locals). Returns per-call latency under contention.
template <typename PerThread>
double contended_ns_per_call(int threads, int iters, PerThread per_thread) {
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, iters] {
      auto fn = per_thread();
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t local = 0;
      for (int i = 0; i < iters; ++i) {
        local += fn();
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread &w : workers) {
    w.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() +
      static_cast<double>(sink.load() & 1);
  return ns / iters;
}

} // namespace

int main() {
  tempi::install();
  sysmpi::ensure_self_context();

  std::printf("Ablation — per-message overhead budget (Sec. 4/5)\n\n");

  // (1) Method selection, modeled clock.
  const tempi::PerfModel model;
  const vcuda::VirtualNs m0 = vcuda::virtual_now();
  (void)model.choose_transfer(64, 262144);
  const vcuda::VirtualNs uncached = vcuda::virtual_now() - m0;
  support::Sampler cached;
  for (int i = 0; i < 16; ++i) {
    const vcuda::VirtualNs h0 = vcuda::virtual_now();
    (void)model.choose_transfer(64, 262144);
    cached.add(static_cast<double>(vcuda::virtual_now() - h0));
  }
  std::printf("method selection (modeled clock):\n");
  std::printf("  uncached interpolation: %6llu ns/call\n",
              static_cast<unsigned long long>(uncached));
  std::printf("  choice-cache hit:       %6.0f ns/call  (paper: ~277 ns)\n",
              cached.trimean());
  std::printf("  packer method memo hit: %6llu ns/call  (steady-state "
              "sends skip the model)\n\n",
              static_cast<unsigned long long>(tempi::kMethodMemoHitNs));

  // The committed datatype the wall-clock sections exercise.
  MPI_Datatype t = bench::make_vector_2d(1024, 16, 32);
  const tempi::Packer *raw = tempi::find_packer_fast(t);
  const tempi::StridedBlock sb = raw->block();
  const long long extent = raw->type_extent();
  raw->remember_transfers(
      1, 1, {{tempi::Method::Device, 0}, {tempi::Method::Device, 0}});

  const int kIters = bench::smoke_mode() ? 1 << 14 : 1 << 20;

  // (2) Datatype lookup.
  const double lookup_old = wall_ns_per_call(kIters, [t] {
    return reinterpret_cast<std::uintptr_t>(tempi::find_packer(t).get());
  });
  const double lookup_new = wall_ns_per_call(kIters, [t] {
    return reinterpret_cast<std::uintptr_t>(tempi::find_packer_fast(t));
  });
  std::printf("datatype lookup (wall clock):\n");
  std::printf("  map + shared_ptr:   %6.1f ns/call\n", lookup_old);
  std::printf("  handle cache:       %6.1f ns/call  (%.1fx)\n\n", lookup_new,
              lookup_old / lookup_new);

  // (3) Launch configuration.
  const double cfg_old = wall_ns_per_call(kIters, [&sb, extent] {
    const tempi::PackPlan plan = tempi::make_pack_plan(sb, extent);
    return static_cast<std::uint64_t>(plan.config.block.x) + plan.word_size;
  });
  const double cfg_new = wall_ns_per_call(kIters, [raw] {
    const vcuda::LaunchConfig cfg = tempi::launch_config_for(raw->plan(), 1);
    return static_cast<std::uint64_t>(cfg.block.x);
  });
  std::printf("launch configuration (wall clock):\n");
  std::printf("  per-call recompute: %6.1f ns/call\n", cfg_old);
  std::printf("  commit-time plan:   %6.1f ns/call  (%.1fx)\n\n", cfg_new,
              cfg_old / cfg_new);

  // (4) Composite steady-state send setup. The pre-PR path did a map
  // lookup + shared_ptr copy, a thread-local unordered_map probe for the
  // cached model choice (the Key/KeyHash below reproduce the removed
  // PerfModel::choose cache verbatim), per-call word-size/geometry
  // recompute, and a lease whose free list was a std::map tree walk with a
  // shared atomic gauge (also reproduced verbatim); the new path is the
  // handle cache, the packer memo, the plan, and the bucket-array lease.
  struct LegacyKey {
    const void *model;
    std::size_t block, total;
    bool operator==(const LegacyKey &) const = default;
  };
  struct LegacyKeyHash {
    std::size_t operator()(const LegacyKey &k) const {
      std::size_t h = std::hash<const void *>()(k.model);
      h = h * 1000003 ^ std::hash<std::size_t>()(k.block);
      h = h * 1000003 ^ std::hash<std::size_t>()(k.total);
      return h;
    }
  };
  std::unordered_map<LegacyKey, tempi::Method, LegacyKeyHash> legacy_cache;
  legacy_cache.emplace(
      LegacyKey{&model, static_cast<std::size_t>(sb.block_bytes()),
                raw->packed_bytes(1)},
      tempi::Method::Device);
  // Shared pre-PR state: the model lock acceleration_method took on every
  // send, and the single process-wide lease gauge.
  std::shared_mutex legacy_model_mutex;
  std::atomic<std::size_t> legacy_gauge{0};
  // One pre-PR rank: a per-thread capacity-keyed std::map free list (the
  // free lists were thread_local), probing the shared structures per call.
  struct LegacyRankState {
    std::map<std::size_t, std::vector<void *>> free_list;
    ~LegacyRankState() { // give pooled buffers back when the rank exits
      for (auto &[cap, ptrs] : free_list) {
        for (void *p : ptrs) {
          vcuda::Free(p);
        }
      }
    }
  };
  const auto legacy_rank = [&, t] {
    auto state = std::make_shared<LegacyRankState>();
    auto *free_list = &state->free_list;
    void *seed = nullptr;
    vcuda::Malloc(&seed, raw->packed_bytes(1));
    (*free_list)[raw->packed_bytes(1)].push_back(seed);
    return [&, t, state, free_list] {
      const auto packer = tempi::find_packer(t);
      const std::shared_lock<std::shared_mutex> model_lock(legacy_model_mutex);
      const LegacyKey key{
          &model, static_cast<std::size_t>(packer->block().block_bytes()),
          packer->packed_bytes(1)};
      const tempi::Method method = legacy_cache.find(key)->second;
      vcuda::this_thread_timeline().advance(tempi::kModelQueryCachedNs);
      const int w = tempi::select_word_size(packer->block());
      const vcuda::LaunchConfig cfg =
          tempi::make_launch_config(packer->block(), w, 1);
      // lease ...
      const auto it = free_list->lower_bound(packer->packed_bytes(1));
      void *wire = it->second.back();
      it->second.pop_back();
      legacy_gauge.fetch_add(1, std::memory_order_relaxed);
      vcuda::this_thread_timeline().advance(120);
      // ... and release, as the pipeline destructor did.
      (*free_list)[it->first].push_back(wire);
      legacy_gauge.fetch_sub(1, std::memory_order_relaxed);
      return static_cast<std::uint64_t>(cfg.block.x) +
             static_cast<std::uint64_t>(method) +
             reinterpret_cast<std::uintptr_t>(wire);
    };
  };
  // One table-driven rank: everything it touches per call is lock-free or
  // thread-local (the generation load mirrors acceleration_method).
  std::atomic<std::uint64_t> model_generation{1};
  const auto table_rank = [&, t] {
    return [&, t] {
      const tempi::Packer *packer = tempi::find_packer_fast(t);
      const std::uint64_t gen =
          model_generation.load(std::memory_order_acquire);
      const auto choice = packer->cached_transfers(1, gen);
      vcuda::this_thread_timeline().advance(tempi::kMethodMemoHitNs);
      const vcuda::LaunchConfig cfg =
          tempi::launch_config_for(packer->plan(), 1);
      tempi::CachedBuffer wire = tempi::lease_buffer(
          vcuda::MemorySpace::Device, packer->packed_bytes(1));
      return static_cast<std::uint64_t>(cfg.block.x) +
             static_cast<std::uint64_t>(
                 choice ? choice->isolated.method : tempi::Method::Device) +
             reinterpret_cast<std::uintptr_t>(wire.get());
    };
  };
  // Best of three: per-call overheads this small are easily smeared by a
  // scheduler tick; the minimum is the least-noise sample.
  const auto best_of3 = [kIters](int ranks, const auto &rank) {
    double best = contended_ns_per_call(ranks, kIters, rank);
    for (int i = 0; i < 2; ++i) {
      best = std::min(best, contended_ns_per_call(ranks, kIters, rank));
    }
    return best;
  };
  const double setup_old1 = best_of3(1, legacy_rank);
  const double setup_new1 = best_of3(1, table_rank);
  constexpr int kRanks = 4;
  const double setup_old4 = best_of3(kRanks, legacy_rank);
  const double setup_new4 = best_of3(kRanks, table_rank);
  std::printf("steady-state send setup: lookup + selection + plan + lease "
              "(wall clock):\n");
  std::printf("                          1 rank     %d ranks\n", kRanks);
  std::printf("  pre-PR recompute path: %6.1f     %6.1f  ns/call\n",
              setup_old1, setup_old4);
  std::printf("  table-driven path:     %6.1f     %6.1f  ns/call\n",
              setup_new1, setup_new4);
  std::printf("  reduction:             %5.1fx     %5.1fx\n\n",
              setup_old1 / setup_new1, setup_old4 / setup_new4);

  // (5) Self-tuning observation path. The harvest sites wrap completed
  // pack/wire/unpack spans in a ScopedObservation; its whole budget is two
  // virtual-clock reads and one wait-free CAS fold when tuning is on, and
  // a single relaxed load of the enable flag when it is off. Gated so the
  // hot path cannot silently regress.
  const auto observe_once = [] {
    tempi::tune::ScopedObservation obs(tempi::tune::Axis::DevicePack, 64,
                                       262144);
    return std::uint64_t{1};
  };
  const auto best_wall3 = [kIters](const auto &fn) {
    double best = wall_ns_per_call(kIters, fn);
    for (int i = 0; i < 2; ++i) {
      best = std::min(best, wall_ns_per_call(kIters, fn));
    }
    return best;
  };
  const double obs_on = best_wall3(observe_once);
  tempi::tune::set_enabled(false);
  const double obs_off = best_wall3(observe_once);
  tempi::tune::set_enabled(true);
  tempi::trace::reset_counters(); // the synthetic folds are not real samples
  std::printf("tuner observation (wall clock):\n");
  std::printf("  TEMPI_TUNE=1 fold:  %6.1f ns/call  (budget: 50)\n", obs_on);
  std::printf("  TEMPI_TUNE=0 check: %6.1f ns/call  (one relaxed load)\n\n",
              obs_off);

  std::printf("paper headline: cached selection adds ~277 ns; cached "
              "resources amortize to tens or hundreds of ns per message.\n");

  bool gates_ok = true;
  [[maybe_unused]] const auto gate = [&gates_ok](bool ok, const char *what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      gates_ok = false;
    }
  };
#ifdef NDEBUG
  // The ns budget is a claim about optimized builds; unoptimized (-O0,
  // ASan) runs report the numbers but do not enforce them.
  gate(obs_on <= 50.0, "armed observation exceeds the 50 ns/op budget");
  gate(obs_off <= 20.0,
       "disarmed observation costs more than a relaxed-load check");
#endif

  bench::emit_json("abl_overhead",
                   "steady-state send setup (lookup+selection+plan+lease), "
                   "pre-PR recompute path vs table-driven, 1 rank",
                   setup_old1 / setup_new1);
  MPI_Type_free(&t);
  tempi::uninstall();
  return gates_ok ? 0 : 1;
}
