// Shared helpers for the figure/table reproduction benches.
//
// All latencies are *virtual* microseconds from the calibrated cost model
// (see the README's opening section): the shapes are the reproduction
// target, not wall time. Phases that are pure host work (type creation/commit, Fig. 7) use
// wall time instead, since the virtual clock does not model host compute.
#pragma once

#include "support/stats.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// CI smoke mode (TEMPI_BENCH_SMOKE=1): every bench shrinks to one rep at
/// tiny sizes so `ctest` exercises it end-to-end without real sweep cost;
/// numbers printed under smoke are not the reproduction target.
inline bool smoke_mode() {
  const char *env = std::getenv("TEMPI_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// A committed 2-D strided datatype over MPI_BYTE: `blocks` runs of
/// `block_bytes`, `pitch_bytes` apart.
inline MPI_Datatype make_vector_2d(long long blocks, long long block_bytes,
                                   long long pitch_bytes) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(static_cast<int>(blocks), static_cast<int>(block_bytes),
                  static_cast<int>(pitch_bytes), MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

/// Same object described as a 2-D subarray over MPI_BYTE.
inline MPI_Datatype make_subarray_2d(long long blocks, long long block_bytes,
                                     long long pitch_bytes) {
  const int sizes[2] = {static_cast<int>(blocks),
                        static_cast<int>(pitch_bytes)};
  const int subsizes[2] = {static_cast<int>(blocks),
                           static_cast<int>(block_bytes)};
  const int starts[2] = {0, 0};
  MPI_Datatype t = nullptr;
  MPI_Type_create_subarray(2, sizes, subsizes, starts, MPI_ORDER_C, MPI_BYTE,
                           &t);
  MPI_Type_commit(&t);
  return t;
}

/// Virtual-time MPI_Pack latency (us) of `count` objects of `t` on device
/// buffers, trimean of `iters` (first iteration discarded as warm-up).
inline double pack_latency_us(MPI_Datatype t, int count, int iters = 5) {
  sysmpi::ensure_self_context();
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  int size = 0;
  MPI_Type_size(t, &size);

  void *src = nullptr, *dst = nullptr;
  vcuda::Malloc(&src, static_cast<std::size_t>(extent) * count + 64);
  vcuda::Malloc(&dst, static_cast<std::size_t>(size) * count);

  support::Sampler sampler;
  for (int i = 0; i <= iters; ++i) {
    int position = 0;
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    MPI_Pack(src, count, t, dst, size * count, &position, MPI_COMM_WORLD);
    if (i > 0) {
      sampler.add(vcuda::ns_to_us(vcuda::virtual_now() - t0));
    }
  }
  vcuda::Free(src);
  vcuda::Free(dst);
  return sampler.trimean();
}

/// Virtual time of a repeated call as the replay tables see it: the first
/// call runs cold and is not kept, the second records the call's graphs
/// (`record_us`), and later calls replay them (`steady_us`, their
/// trimean).
struct ReplayTiming {
  double record_us = 0.0;
  double steady_us = 0.0;
};

/// Run `call` (returning the virtual us it took) cold, recording, then
/// `steady` >= 1 more times, and split the timings as ReplayTiming does.
template <class Call> ReplayTiming time_replayed(int steady, Call &&call) {
  ReplayTiming t;
  support::Sampler sampler;
  for (int i = 0; i < steady + 2; ++i) {
    const double us = call();
    if (i == 1) {
      t.record_us = us;
    } else if (i > 1) {
      sampler.add(us);
    }
  }
  t.steady_us = sampler.trimean();
  return t;
}

/// The slowest rank's recording call and steady state.
inline ReplayTiming slowest(const std::vector<ReplayTiming> &per_rank) {
  ReplayTiming worst;
  for (const ReplayTiming &t : per_rank) {
    worst.record_us = std::max(worst.record_us, t.record_us);
    worst.steady_us = std::max(worst.steady_us, t.steady_us);
  }
  return worst;
}

/// Receiver-side virtual us of each of `rounds` Send/Recv rounds of a 2-D
/// device object, two ranks on distinct virtual nodes.
inline std::vector<double> send_rounds_us(tempi::SendMode mode,
                                          long long blocks,
                                          long long block_bytes,
                                          long long pitch_bytes, int rounds) {
  tempi::set_send_mode(mode);
  std::vector<double> result;
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vector_2d(blocks, block_bytes, pitch_bytes);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent) + 64);
    for (int round = 0; round < rounds; ++round) {
      if (rank == 0) {
        MPI_Send(buf, 1, t, 1, round, MPI_COMM_WORLD);
        int ack = 0;
        MPI_Recv(&ack, 1, MPI_INT, 1, 999, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
      } else {
        const vcuda::VirtualNs t0 = vcuda::virtual_now();
        MPI_Recv(buf, 1, t, 0, round, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        result.push_back(vcuda::ns_to_us(vcuda::virtual_now() - t0));
        const int ack = 1;
        MPI_Send(&ack, 1, MPI_INT, 0, 999, MPI_COMM_WORLD);
      }
    }
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  return result;
}

/// Receiver-side Send/Recv latency (virtual us) for a 2-D device object:
/// the trimean of `rounds` rounds after one cache-cold warm-up round.
inline double send_latency_us(tempi::SendMode mode, long long blocks,
                              long long block_bytes, long long pitch_bytes,
                              int rounds = 3) {
  const std::vector<double> us =
      send_rounds_us(mode, blocks, block_bytes, pitch_bytes, rounds + 1);
  support::Sampler sampler;
  for (std::size_t i = 1; i < us.size(); ++i) {
    sampler.add(us[i]);
  }
  return sampler.trimean();
}

/// The same latency as the replay tables see it (see time_replayed): the
/// cold round, the round that records the receive's program, and the
/// trimean of `steady` >= 1 rounds that replay it.
inline ReplayTiming send_replayed_us(tempi::SendMode mode, long long blocks,
                                     long long block_bytes,
                                     long long pitch_bytes, int steady) {
  const std::vector<double> us =
      send_rounds_us(mode, blocks, block_bytes, pitch_bytes, steady + 2);
  std::size_t next = 0;
  return time_replayed(steady, [&] { return us[next++]; });
}

/// Where the BENCH_*.json sidecars land: TEMPI_BENCH_OUT overrides, else
/// the repo's bench/results/ directory baked in at configure time, else
/// the working directory.
inline std::string results_dir() {
  if (const char *env = std::getenv("TEMPI_BENCH_OUT");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef TEMPI_BENCH_RESULTS_DIR
  return TEMPI_BENCH_RESULTS_DIR;
#else
  return ".";
#endif
}

/// Machine-readable result sidecar: each bench writes BENCH_<name>.json
/// (name, config, headline geomean speedup, smoke flag) into a stable
/// results directory (see results_dir()) alongside its stdout report, so
/// the perf trajectory is tracked across PRs instead of living only in CI
/// logs. When tracing is armed, a "phases" object adds the per-phase
/// pack/wire/unpack breakdown (span count + trimean) from the tracer.
/// Call once, at the end, with the bench's headline ratio. `extra`, when
/// non-empty, is spliced in verbatim as one additional top-level member
/// (a `"key": {...}` fragment without the trailing comma) for bench-
/// specific blocks like fig14's "schedule" or fig16's "reorder".
inline void emit_json(const std::string &name, const std::string &config,
                      double geomean_speedup, const std::string &extra = "") {
  std::string dir = results_dir();
  if (dir != ".") {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      dir = "."; // unwritable target: fall back to the working directory
    }
  }
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"%s\",\n"
               "  \"config\": \"%s\",\n"
               "  \"smoke\": %s,\n"
               "  \"geomean_speedup\": %.4f,\n"
               "  \"phases\": {",
               name.c_str(), config.c_str(), smoke_mode() ? "true" : "false",
               geomean_speedup);
  const tempi::trace::Snapshot snap = tempi::trace_snapshot();
  const char *sep = "\n";
  for (std::size_t p = 0; p < tempi::trace::kPhaseCount; ++p) {
    const tempi::trace::PhaseSummary &ps = snap.phases[p];
    if (ps.count == 0) {
      continue;
    }
    std::fprintf(f,
                 "%s    \"%s\": {\"count\": %llu, \"trimean_us\": %.3f, "
                 "\"total_us\": %.3f}",
                 sep,
                 tempi::trace::phase_name(
                     static_cast<tempi::trace::Phase>(p)),
                 static_cast<unsigned long long>(ps.count), ps.trimean_us,
                 ps.total_us);
    sep = ",\n";
  }
  std::fprintf(f, "%s},\n", sep[0] == ',' ? "\n  " : "");
  if (!extra.empty()) {
    std::fprintf(f, "  %s,\n", extra.c_str());
  }
  // Self-tuning model provenance: where the calibration came from, which
  // generation the tables ended the run on, and how much the tuner saw.
  // The "locks" object carries every audited-lock contention gauge
  // (tempi.lock.*, prefix stripped) so contention regressions show up in
  // the sidecar trajectory, not only in TEMPI_STATS output.
  std::fprintf(f,
               "  \"model\": {\"calibration\": \"%s\", \"generation\": %llu, "
               "\"observations\": %llu, \"updates\": %llu,\n"
               "    \"locks\": {",
               tempi::model_calibration_source().c_str(),
               static_cast<unsigned long long>(
                   tempi::tune::refresh_generation()),
               static_cast<unsigned long long>(
                   tempi::trace::counter_value("tempi.model.observations")),
               static_cast<unsigned long long>(
                   tempi::trace::counter_value("tempi.model.updates")));
  const char *lock_sep = "";
  for (const auto &[cname, value] : tempi::trace::counter_snapshot()) {
    constexpr std::string_view kPrefix = "tempi.lock.";
    if (std::string_view(cname).substr(0, kPrefix.size()) == kPrefix) {
      std::fprintf(f, "%s\"%s\": %llu", lock_sep,
                   cname.c_str() + kPrefix.size(),
                   static_cast<unsigned long long>(value));
      lock_sep = ", ";
    }
  }
  std::fprintf(f, "}}\n}\n");
  std::fclose(f);
}

/// Pretty-print helpers.
inline std::string human_bytes(double b) {
  char buf[32];
  if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.0fMiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%.0fKiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fB", b);
  }
  return buf;
}

} // namespace bench
