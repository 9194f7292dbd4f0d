// Fig. 12: 3-D stencil halo exchange (Sec. 6.4) across a nodes x
// ranks-per-node sweep:
//   (a) phase times — MPI_Pack, MPI_Neighbor_alltoallv, MPI_Unpack — with
//       TEMPI (pack/unpack roughly constant per rank; alltoallv grows with
//       scale);
//   (b) whole-exchange speedup over the baseline datatype path (largest at
//       small scale, where datatype handling dominates).
//
// Scale note (README opening section): ranks are threads, so the sweep
// covers 1-8 virtual nodes x {1,2,6} ranks/node (<=48 ranks); the paper's
// 512-node sweep shape is visible in this range. The per-rank brick is scaled to
// 24^3 x 8 doubles (the paper's 256^3 would need 1 GiB per rank).
#include "bench_common.hpp"
#include "halo/halo.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

namespace {

/// Factor `n` into a near-cubic px*py*pz grid.
void factor3(int n, int *px, int *py, int *pz) {
  *px = *py = *pz = 1;
  int rest = n;
  int *dims[3] = {pz, py, px};
  for (int i = 0; i < 3; ++i) {
    const int target = static_cast<int>(std::ceil(
        std::pow(static_cast<double>(rest), 1.0 / (3 - i)) - 1e-9));
    int d = target;
    while (rest % d != 0) {
      ++d;
    }
    *dims[i] = d;
    rest /= d;
  }
}

struct Result {
  halo::PhaseTimes phase; ///< max across ranks
};

Result run(const halo::Config &cfg, int ranks_per_node, int iters) {
  std::vector<halo::PhaseTimes> per_rank(
      static_cast<std::size_t>(cfg.ranks()));
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = ranks_per_node;
  sysmpi::run_ranks(rc, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    void *grid = nullptr;
    vcuda::Malloc(&grid, cfg.grid_bytes());
    std::memset(grid, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      ex.exchange(grid); // warm-up
      halo::PhaseTimes sum;
      for (int i = 0; i < iters; ++i) {
        const halo::PhaseTimes t = ex.exchange(grid);
        sum.pack_us += t.pack_us / iters;
        sum.comm_us += t.comm_us / iters;
        sum.unpack_us += t.unpack_us / iters;
      }
      per_rank[static_cast<std::size_t>(rank)] = sum;
    }
    vcuda::Free(grid);
    MPI_Finalize();
  });
  Result r;
  for (const halo::PhaseTimes &t : per_rank) {
    r.phase.pack_us = std::max(r.phase.pack_us, t.pack_us);
    r.phase.comm_us = std::max(r.phase.comm_us, t.comm_us);
    r.phase.unpack_us = std::max(r.phase.unpack_us, t.unpack_us);
  }
  return r;
}

} // namespace

int main(int argc, char **argv) {
  const bool smoke = bench::smoke_mode();
  const std::vector<int> nodes = smoke ? std::vector<int>{2}
                                       : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> rpns = smoke ? std::vector<int>{1}
                                      : std::vector<int>{1, 2, 6};
  // Larger bricks approach the paper's 256^3 scale (and its speedup
  // magnitudes) at the cost of runtime; 24 keeps the default run fast.
  const int brick = argc > 1 ? std::atoi(argv[1]) : (smoke ? 8 : 24);

  std::printf("Fig. 12 — 3D halo exchange, %d^3 points/rank, 8 doubles/"
              "point, radius 3, 26 neighbors, periodic\n\n", brick);
  std::printf("%-10s %10s %14s %12s | %12s %10s\n", "nodes/rpn", "pack(us)",
              "alltoallv(us)", "unpack(us)", "baseline(us)", "speedup");

  std::vector<double> speedups;
  for (const int n : nodes) {
    for (const int rpn : rpns) {
      const int ranks = n * rpn;
      halo::Config cfg;
      cfg.nx = cfg.ny = cfg.nz = brick;
      cfg.vals = 8;
      cfg.radius = 3;
      factor3(ranks, &cfg.px, &cfg.py, &cfg.pz);

      tempi::install();
      tempi::trace::reset_counters();
      const Result fast = run(cfg, rpn, /*iters=*/2);
      const std::uint64_t neighbor =
          tempi::trace::counter_value("tempi.coll.neighbor");
      tempi::uninstall();
      const Result base = run(cfg, rpn, /*iters=*/1);
      // The exchange's Neighbor_alltoallv of device-resident packed bytes
      // rides the collectives engine when TEMPI is installed.
      if (neighbor == 0) {
        std::printf("warning: collectives engine did not service the "
                    "neighbor exchange\n");
      }

      speedups.push_back(base.phase.total_us() / fast.phase.total_us());
      std::printf("%3d/%-6d %10.1f %14.1f %12.1f | %12.1f %9.0fx\n", n, rpn,
                  fast.phase.pack_us, fast.phase.comm_us,
                  fast.phase.unpack_us, base.phase.total_us(),
                  base.phase.total_us() / fast.phase.total_us());
    }
  }
  bench::emit_json("fig12_halo",
                   "3-D halo exchange, TEMPI vs baseline datatype path "
                   "across the nodes x ranks-per-node sweep",
                   support::geomean(speedups));
  std::printf("\nPaper (Fig. 12): pack/unpack constant per rank, alltoallv "
              "grows with ranks and nodes; speedup is largest at small "
              "scale (1050x at 192 ranks, 917x at 3072).\n");
  std::printf("With TEMPI installed, phase 2's MPI_Neighbor_alltoallv is "
              "serviced by the collectives engine (per-peer legs through "
              "the request engine; see bench_fig14_alltoallv for the "
              "datatype-aware sweep).\n");
  return 0;
}
