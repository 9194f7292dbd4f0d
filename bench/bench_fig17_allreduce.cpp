// Fig. 17 (extension): GPU reduction collectives with netmodel-chosen
// schedules.
//
// Payload sweep of a fragmented (strided derived-datatype) device
// MPI_Allreduce on a multi-node communicator, comparing:
//
//   * baseline — what an application does without the engine: stage the
//     strided payload through a host pack (sysmpi::baseline_pack), run
//     the system MPI's linear host allreduce on the packed floats, and
//     scatter the result back. The system path serializes P-1 full-size
//     gather legs at the root and re-broadcasts.
//   * ring     — the engine forced to the bandwidth-optimal ring
//     (2(P-1) neighbor hops of bytes/P).
//   * doubling — the engine forced to recursive doubling (ceil(log2 P)
//     exchanges of the full payload).
//   * auto     — the engine with the netmodel choosing (reduce.hpp's
//     choose_allreduce_schedule).
//
// Gates:
//  1. engine(auto) >= 2x geomean speedup over the baseline across the
//     sweep (at >= 8 ranks);
//  2. the netmodel's choice flips across the size sweep — the
//     latency-bound small end must not pick the same schedule as the
//     bandwidth-bound large end, or "auto" is a constant and the model
//     adds nothing.
#include "bench_common.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "tempi/reduce.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

using tempi::red::Schedule;

enum class Mode { Baseline, Ring, Doubling, Auto };

/// Build the sweep's fragmented payload: `objects` vector objects of
/// 8-float blocks strided 3x apart, sized so the packed stream is
/// `target_bytes`.
MPI_Datatype make_type(long long target_bytes, int *objects) {
  constexpr int kBlocks = 64, kBlockLen = 8, kStride = 24;
  constexpr long long kObjBytes = kBlocks * kBlockLen * sizeof(float);
  *objects = static_cast<int>(std::max<long long>(1, target_bytes / kObjBytes));
  MPI_Datatype t = nullptr;
  MPI_Type_vector(kBlocks, kBlockLen, kStride, MPI_FLOAT, &t);
  MPI_Type_commit(&t);
  return t;
}

/// Max-across-ranks virtual latency (us) of one allreduce of
/// `target_bytes` packed payload under `mode`: the recording call and the
/// trimean of `rounds` steady calls after it.
bench::ReplayTiming allreduce_us(Mode mode, int ranks, int rpn,
                                 long long target_bytes, int rounds) {
  tempi::red::set_forced_schedule(mode == Mode::Ring       ? Schedule::Ring
                                  : mode == Mode::Doubling ? Schedule::Doubling
                                                           : Schedule::Auto);
  std::vector<bench::ReplayTiming> per_rank(static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    int objects = 0;
    MPI_Datatype t = make_type(target_bytes, &objects);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const std::size_t packed =
        static_cast<std::size_t>(t->size) * static_cast<std::size_t>(objects);
    void *sbuf = nullptr, *rbuf = nullptr;
    vcuda::Malloc(&sbuf,
                  static_cast<std::size_t>(extent) * objects + 64);
    vcuda::Malloc(&rbuf,
                  static_cast<std::size_t>(extent) * objects + 64);
    std::memset(sbuf, 0, static_cast<std::size_t>(extent) * objects);
    std::vector<float> host_in(packed / sizeof(float));
    std::vector<float> host_out(packed / sizeof(float));
    const auto call = [&] {
      MPI_Barrier(MPI_COMM_WORLD); // aligned rounds
      const vcuda::VirtualNs t0 = vcuda::virtual_now();
      if (mode == Mode::Baseline) {
        // Application-level fallback: host pack, named-float system
        // allreduce on host buffers (the engine's residency check
        // forwards these to the system linear path), host unpack.
        sysmpi::baseline_pack(host_in.data(), sbuf, objects, *t);
        MPI_Allreduce(host_in.data(), host_out.data(),
                      static_cast<int>(packed / sizeof(float)), MPI_FLOAT,
                      MPI_SUM, MPI_COMM_WORLD);
        sysmpi::baseline_unpack(rbuf, host_out.data(), objects, *t);
      } else {
        MPI_Allreduce(sbuf, rbuf, objects, t, MPI_SUM, MPI_COMM_WORLD);
      }
      return vcuda::ns_to_us(vcuda::virtual_now() - t0);
    };
    per_rank[static_cast<std::size_t>(rank)] =
        bench::time_replayed(rounds, call);
    vcuda::Free(sbuf);
    vcuda::Free(rbuf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::red::set_forced_schedule(Schedule::Auto);
  return bench::slowest(per_rank);
}

/// The netmodel's schedule choice for this sweep point (queried on a
/// live communicator of the sweep's shape).
Schedule chosen_schedule(int ranks, int rpn, long long bytes) {
  Schedule s = Schedule::Auto;
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    if (rank == 0) {
      s = tempi::red::choose_allreduce_schedule(
          static_cast<std::size_t>(bytes), MPI_COMM_WORLD, true);
    }
    MPI_Finalize();
  });
  return s;
}

} // namespace

int main() {
  tempi::install();
  const bool smoke = bench::smoke_mode();
  // Freeze the self-tuning model: every sweep point compares the same
  // traffic under four policies, so a table refresh mid-sweep would
  // change leg methods between paired runs.
  tempi::tune::set_enabled(false);

  const int ranks = smoke ? 8 : 16;
  const int rpn = 4; // 2 nodes smoke, 4 nodes full: inter-node hops count
  const int rounds = smoke ? 1 : 3; // steady calls timed per point
  const std::vector<long long> sweep =
      smoke ? std::vector<long long>{64 * 1024, 1 << 20}
            : std::vector<long long>{16 * 1024, 256 * 1024, 4 << 20,
                                     32 << 20};

  std::printf("Fig. 17 — GPU allreduce with netmodel-chosen schedules "
              "(virtual us, max across ranks)\n");
  std::printf("fragmented device payload, %d ranks, %d per node "
              "(%d nodes); columns time the steady state, auto rec the "
              "call that records the replayed schedule\n\n",
              ranks, rpn, ranks / rpn);
  std::printf("%8s | %10s %10s %10s %10s | %8s %-8s | %10s\n", "payload",
              "baseline", "ring", "doubling", "auto", "speedup", "chosen",
              "auto rec");

  std::vector<double> speedups;
  Schedule first = Schedule::Auto, last = Schedule::Auto;
  std::string points;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const long long bytes = sweep[i];
    const double base =
        allreduce_us(Mode::Baseline, ranks, rpn, bytes, rounds).steady_us;
    const double ring =
        allreduce_us(Mode::Ring, ranks, rpn, bytes, rounds).steady_us;
    const double dbl =
        allreduce_us(Mode::Doubling, ranks, rpn, bytes, rounds).steady_us;
    const bench::ReplayTiming auto_timing =
        allreduce_us(Mode::Auto, ranks, rpn, bytes, rounds);
    const double autod = auto_timing.steady_us;
    const Schedule chosen = chosen_schedule(ranks, rpn, bytes);
    if (i == 0) {
      first = chosen;
    }
    last = chosen;
    const double speedup = base / autod;
    speedups.push_back(speedup);
    std::printf("%8s | %10.1f %10.1f %10.1f %10.1f | %7.2fx %-8s | %10.1f\n",
                bench::human_bytes(static_cast<double>(bytes)).c_str(), base,
                ring, dbl, autod, speedup, tempi::red::schedule_name(chosen),
                auto_timing.record_us);
    char pt[224];
    std::snprintf(pt, sizeof pt,
                  "%s{\"bytes\": %lld, \"baseline_us\": %.3f, "
                  "\"ring_us\": %.3f, \"doubling_us\": %.3f, "
                  "\"auto_us\": %.3f, \"auto_record_us\": %.3f, "
                  "\"chosen\": \"%s\"}",
                  points.empty() ? "" : ", ", bytes, base, ring, dbl, autod,
                  auto_timing.record_us, tempi::red::schedule_name(chosen));
    points += pt;
  }
  const double geomean = support::geomean(speedups);
  const bool speed_ok = geomean >= 2.0;
  const bool flip_ok = first != last;
  std::printf("\nengine geomean %.2fx over host-staged baseline "
              "(gate: >= 2.00x) %s\n",
              geomean, speed_ok ? "PASS" : "FAIL");
  std::printf("schedule flips across sweep: %s -> %s (gate: differs) %s\n",
              tempi::red::schedule_name(first),
              tempi::red::schedule_name(last), flip_ok ? "PASS" : "FAIL");

  char config[144];
  std::snprintf(config, sizeof config,
                "fragmented device allreduce, %d ranks / %d nodes, engine "
                "(ring/doubling/auto) vs host-staged system baseline",
                ranks, ranks / rpn);
  bench::emit_json("fig17_allreduce", config, geomean,
                   "\"sweep\": [" + points + "]");
  tempi::tune::set_enabled(true);
  tempi::uninstall();
  return speed_ok && flip_ok ? 0 : 1;
}
