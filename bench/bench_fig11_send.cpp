// Fig. 11: MPI_Send/MPI_Recv latency for 1 KiB / 1 MiB / 4 MiB 2-D device
// objects with contiguous blocks of 1-256 B:
//   (a) absolute latency of one-shot, device, model-based auto, and the
//       system baseline;
//   (b) latency of the three TEMPI modes normalized to the slower of
//       one-shot/device, showing that auto reliably picks the faster
//       method with only the model-query overhead (~277 ns cached).
// The TEMPI columns time the steady state, from the third round of a shape
// on, when the receive replays its recorded program; `auto rec` is auto's
// second round, which records it.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

int main() {
  tempi::install();

  const bool smoke = bench::smoke_mode();
  const std::vector<long long> objects =
      smoke ? std::vector<long long>{1024}
            : std::vector<long long>{1024, 1024 * 1024, 4 * 1024 * 1024};
  const std::vector<long long> blocks =
      smoke ? std::vector<long long>{1, 16, 256}
            : std::vector<long long>{1, 2, 4, 8, 16, 32, 64, 128, 256};

  std::printf("Fig. 11a — Send/Recv latency (virtual us), device-resident "
              "2-D objects, pitch = 2x block\n\n");
  std::printf("%8s %7s | %12s %12s %12s %12s %14s %9s\n", "object",
              "block", "one-shot", "device", "auto", "auto rec", "baseline",
              "speedup");

  struct Row {
    long long object, block;
    double oneshot, device, autosel, auto_rec, baseline;
  };
  std::vector<Row> rows;

  for (const long long object : objects) {
    for (const long long block : blocks) {
      const long long nblocks = object / block;
      Row r{object, block, 0, 0, 0, 0, 0};
      const int steady = smoke ? 1 : 3;
      r.oneshot = bench::send_replayed_us(tempi::SendMode::ForceOneShot,
                                          nblocks, block, 2 * block, steady)
                      .steady_us;
      r.device = bench::send_replayed_us(tempi::SendMode::ForceDevice,
                                         nblocks, block, 2 * block, steady)
                     .steady_us;
      const bench::ReplayTiming autosel = bench::send_replayed_us(
          tempi::SendMode::Auto, nblocks, block, 2 * block, steady);
      r.autosel = autosel.steady_us;
      r.auto_rec = autosel.record_us;
      // The baseline walks every contiguous block through the driver; one
      // round is plenty (deterministic virtual time, and 4M-block objects
      // are seconds of virtual latency per round).
      r.baseline = bench::send_latency_us(tempi::SendMode::System, nblocks,
                                          block, 2 * block, /*rounds=*/1);
      rows.push_back(r);
      std::printf("%8s %6lldB | %12.1f %12.1f %12.1f %12.1f %14.1f %8.0fx\n",
                  bench::human_bytes(static_cast<double>(object)).c_str(),
                  block, r.oneshot, r.device, r.autosel, r.auto_rec,
                  r.baseline, r.baseline / r.autosel);
    }
  }

  std::printf("\nFig. 11b — normalized latency (1.0 = slower of one-shot/"
              "device)\n\n");
  std::printf("%8s %7s | %9s %9s %9s   %s\n", "object", "block", "one-shot",
              "device", "auto", "auto==min?");
  int correct = 0;
  for (const Row &r : rows) {
    const double worst = std::max(r.oneshot, r.device);
    const double best = std::min(r.oneshot, r.device);
    const bool ok = r.autosel <= best * 1.05 + 1.0;
    correct += ok ? 1 : 0;
    std::printf("%8s %6lldB | %9.3f %9.3f %9.3f   %s\n",
                bench::human_bytes(static_cast<double>(r.object)).c_str(),
                r.block, r.oneshot / worst, r.device / worst,
                r.autosel / worst, ok ? "yes" : "NO");
  }
  std::printf("\nauto tracked the faster method in %d/%zu configurations "
              "(paper: reliably, with ~277 ns model overhead).\n", correct,
              rows.size());
  std::printf("Paper headline: up to 59,000x vs baseline for large objects "
              "with small blocks.\n");

  std::vector<double> speedups;
  for (const Row &r : rows) {
    speedups.push_back(r.baseline / r.autosel);
  }
  bench::emit_json("fig11_send",
                   "auto Send/Recv vs system baseline across the Fig. 11 "
                   "object/block sweep",
                   support::geomean(speedups));
  tempi::uninstall();
  return 0;
}
