// Fig. 14 (extension): the datatype-aware collectives engine vs the
// system MPI baseline for device-resident MPI_Alltoallv over a
// peer-count x fragment-size sweep.
//
// Each rank ships `objs` strided objects to every peer (an all-to-all of
// strided tiles, the distributed transpose/correlation pattern). The
// system baseline packs every per-peer message with the per-block
// datatype loop at send time and unpacks it the same way at receive
// time; the engine packs ALL peers' blocks with one fused span-kernel
// pass, fans the per-peer legs through the request engine (method per
// leg from the netmodel-aware Leg decision), and scatters the received
// staging with one more kernel pass.
//
// Pass gate: in the fragmented regime (blocks <= 16 B) at >= 8 ranks the
// engine must clear 2x over the baseline (ISSUE 4 acceptance); the
// geomean over the gated configurations is reported alongside.
#include "bench_common.hpp"
#include "tempi/collectives.hpp"
#include "tempi/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace {

/// Max-across-ranks virtual latency (us) of one MPI_Alltoallv with
/// `objs` objects of a (blocks x block_bytes, pitch) vector type per
/// peer, device buffers, two ranks per virtual node: the recording call and
/// the trimean of `rounds` steady calls after it.
bench::ReplayTiming alltoallv_us(bool engine, int ranks, long long blocks,
                                 long long block_bytes, int objs,
                                 int rounds) {
  tempi::coll::set_enabled(engine);
  std::vector<bench::ReplayTiming> per_rank(static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = bench::make_vector_2d(blocks, block_bytes,
                                           2 * block_bytes);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    int P = 0;
    MPI_Comm_size(MPI_COMM_WORLD, &P);
    std::vector<int> counts(static_cast<std::size_t>(P), objs);
    std::vector<int> displs(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      displs[static_cast<std::size_t>(p)] = p * objs;
    }
    const std::size_t bytes =
        static_cast<std::size_t>(P) * objs * extent + 64;
    void *sbuf = nullptr, *rbuf = nullptr;
    vcuda::Malloc(&sbuf, bytes);
    vcuda::Malloc(&rbuf, bytes);
    per_rank[static_cast<std::size_t>(rank)] =
        bench::time_replayed(rounds, [&] {
          const vcuda::VirtualNs t0 = vcuda::virtual_now();
          MPI_Alltoallv(sbuf, counts.data(), displs.data(), t, rbuf,
                        counts.data(), displs.data(), t, MPI_COMM_WORLD);
          return vcuda::ns_to_us(vcuda::virtual_now() - t0);
        });
    vcuda::Free(sbuf);
    vcuda::Free(rbuf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::coll::set_enabled(true);
  return bench::slowest(per_rank);
}

} // namespace

int main() {
  tempi::install();
  const bool smoke = bench::smoke_mode();

  const std::vector<int> rank_counts = {4, 8};
  const std::vector<long long> block_sizes = {8, 64, 512};
  const long long blocks = smoke ? 64 : 2048; // rows per object
  const int objs = smoke ? 1 : 2;             // objects per peer
  const int rounds = smoke ? 1 : 3; // steady calls timed per point

  std::printf("Fig. 14 — MPI_Alltoallv of strided tiles (virtual us, max "
              "across ranks): system baseline vs collectives engine\n");
  std::printf("%d rows x block per object, %d object(s) per peer, 2 ranks "
              "per node; baseline and engine time the steady state, engine "
              "rec the call that records the replayed schedule\n\n",
              static_cast<int>(blocks), objs);
  std::printf("%6s %7s %10s | %12s %12s | %8s | %12s\n", "ranks", "block",
              "per-peer", "baseline", "engine", "speedup", "engine rec");

  int gated = 0, gated_ok = 0;
  std::vector<double> gated_speedups;
  for (const int ranks : rank_counts) {
    for (const long long block : block_sizes) {
      const double base =
          alltoallv_us(false, ranks, blocks, block, objs, rounds).steady_us;
      const bench::ReplayTiming eng =
          alltoallv_us(true, ranks, blocks, block, objs, rounds);
      const double speedup = base / eng.steady_us;
      // Gate: fragmented per-peer blocks at >= 8 ranks must clear 2x.
      const bool in_gate = ranks >= 8 && block <= 16;
      if (in_gate) {
        ++gated;
        gated_ok += speedup >= 2.0 ? 1 : 0;
        gated_speedups.push_back(speedup);
      }
      std::printf("%6d %6lldB %10s | %12.1f %12.1f | %7.2fx | %12.1f%s\n",
                  ranks, block,
                  bench::human_bytes(static_cast<double>(blocks) * block *
                                     objs)
                      .c_str(),
                  base, eng.steady_us, speedup, eng.record_us,
                  in_gate ? "  <- gate" : "");
    }
  }
  if (!gated_speedups.empty()) {
    std::printf("\nengine >= 2x over the system baseline in %d/%d gated "
                "configurations (>= 8 ranks, <= 16 B blocks); geomean "
                "%.2fx.\n",
                gated_ok, gated, support::geomean(gated_speedups));
  }

  // Oversized per-peer legs: with the wire-chunk limit injected down, the
  // same exchange ships each leg as ordered PR 3 sub-slice legs instead
  // of failing at the 2 GiB ceiling.
  const std::size_t inject = smoke ? 16 * 1024 : 256 * 1024;
  const std::size_t old_limit = tempi::set_wire_chunk_limit(inject);
  tempi::trace::reset_counters();
  const double over_us =
      alltoallv_us(true, 4, blocks, 512, objs, rounds).steady_us;
  const std::uint64_t chunks =
      tempi::trace::counter_value("tempi.pipeline.chunks");
  const std::uint64_t over_ceiling_bytes =
      tempi::trace::counter_value("tempi.pipeline.over_ceiling_bytes");
  tempi::set_wire_chunk_limit(old_limit);
  std::printf("\nwith the wire-chunk limit injected to %s, the 4-rank "
              "512 B-block exchange completed in %.1f us across %llu wire "
              "legs (%llu bytes over the single-leg ceiling).\n",
              bench::human_bytes(static_cast<double>(inject)).c_str(),
              over_us, static_cast<unsigned long long>(chunks),
              static_cast<unsigned long long>(over_ceiling_bytes));

  // Scheduling sidecar: run the most fragmented gated configuration once
  // per issue policy and record how many legs moved off rank order. The
  // rank-order run must report zero staggered legs (identity schedule);
  // the node-aware run staggers every inter-node leg of the fan-out.
  const bool topo_was = tempi::topo::enabled();
  tempi::topo::set_enabled(false);
  tempi::trace::reset_counters();
  alltoallv_us(true, 8, blocks, 8, objs, 1);
  const std::uint64_t rank_order_staggered =
      tempi::trace::counter_value("tempi.topo.staggered_legs");
  tempi::topo::set_enabled(true);
  tempi::trace::reset_counters();
  alltoallv_us(true, 8, blocks, 8, objs, 1);
  const std::uint64_t peer_legs =
      tempi::trace::counter_value("tempi.coll.peer_legs");
  const std::uint64_t node_aware_staggered =
      tempi::trace::counter_value("tempi.topo.staggered_legs");
  const std::uint64_t node_aware_intra_node =
      tempi::trace::counter_value("tempi.topo.intra_node_legs");
  tempi::topo::set_enabled(topo_was);
  std::printf("\nissue order (8 ranks, 8 B blocks): %llu peer legs; "
              "rank order staggered %llu, node aware staggered %llu "
              "(%llu stayed on-node).\n",
              static_cast<unsigned long long>(peer_legs),
              static_cast<unsigned long long>(rank_order_staggered),
              static_cast<unsigned long long>(node_aware_staggered),
              static_cast<unsigned long long>(node_aware_intra_node));
  char sched[224];
  std::snprintf(sched, sizeof sched,
                "\"schedule\": {\"peer_legs\": %llu, "
                "\"rank_order_staggered_legs\": %llu, "
                "\"node_aware_staggered_legs\": %llu, "
                "\"node_aware_intra_node_legs\": %llu}",
                static_cast<unsigned long long>(peer_legs),
                static_cast<unsigned long long>(rank_order_staggered),
                static_cast<unsigned long long>(node_aware_staggered),
                static_cast<unsigned long long>(node_aware_intra_node));

  if (!gated_speedups.empty()) {
    bench::emit_json("fig14_alltoallv",
                     "collectives engine vs system Alltoallv, gated "
                     "configurations (>= 8 ranks, <= 16 B blocks)",
                     support::geomean(gated_speedups), sched);
  }
  tempi::uninstall();
  return gated_ok == gated ? 0 : 1;
}
