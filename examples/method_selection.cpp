// Method selection (Sec. 4 / Sec. 6.3): sweep object size and contiguous
// block size, print the latency of the one-shot / device / staged methods
// and which one the empirical model picks at runtime.
//
// Usage: ./examples/method_selection
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <cstdio>
#include <cstring>

namespace {

/// Receive latency of one strided-object Send/Recv with a forced mode.
double measure(tempi::SendMode mode, int blocks, int blocklen_floats) {
  tempi::set_send_mode(mode);
  double us = 0.0;
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(blocks, blocklen_floats, blocklen_floats * 2, MPI_FLOAT,
                    &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent));
    // Round 0 warms TEMPI's buffer caches; round 1 is the steady-state
    // latency the paper reports.
    for (int round = 0; round < 2; ++round) {
      if (rank == 0) {
        MPI_Send(buf, 1, t, 1, round, MPI_COMM_WORLD);
        int ack = 0;
        MPI_Recv(&ack, 1, MPI_INT, 1, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      } else {
        const double t0 = MPI_Wtime();
        MPI_Recv(buf, 1, t, 0, round, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        us = (MPI_Wtime() - t0) * 1e6;
        const int ack = 1;
        MPI_Send(&ack, 1, MPI_INT, 0, 9, MPI_COMM_WORLD);
      }
    }
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  return us;
}

} // namespace

int main() {
  tempi::ScopedInterposer guard;

  std::printf("MPI_Send method selection for 2-D strided GPU objects\n");
  std::printf("(latency us; * = what the model-based 'auto' chose)\n\n");
  std::printf("%10s %8s | %10s %10s %10s %10s\n", "object", "block",
              "one-shot", "device", "staged", "auto");

  struct Shape {
    const char *label;
    int blocks, blocklen; // blocklen in floats
  };
  const Shape shapes[] = {
      {"1 KiB", 16, 16},      {"1 KiB", 64, 4},     {"64 KiB", 256, 16},
      {"64 KiB", 4096, 1},    {"1 MiB", 4096, 16},  {"1 MiB", 65536, 1},
      {"4 MiB", 16384, 16},   {"4 MiB", 262144, 1},
  };
  for (const Shape &s : shapes) {
    const double oneshot =
        measure(tempi::SendMode::ForceOneShot, s.blocks, s.blocklen);
    const double device =
        measure(tempi::SendMode::ForceDevice, s.blocks, s.blocklen);
    const double staged =
        measure(tempi::SendMode::ForceStaged, s.blocks, s.blocklen);
    tempi::trace::reset_counters();
    const double autosel =
        measure(tempi::SendMode::Auto, s.blocks, s.blocklen);
    const auto sent = [](const char *name) {
      return tempi::trace::counter_value(name) > 0;
    };
    const char *picked = sent("tempi.send.device")    ? "device"
                         : sent("tempi.send.oneshot") ? "one-shot"
                         : sent("tempi.send.staged")  ? "staged"
                                                      : "system";
    std::printf("%10s %7dB | %10.1f %10.1f %10.1f %10.1f  -> %s\n", s.label,
                s.blocklen * 4, oneshot, device, staged, autosel, picked);
  }

  std::printf("\nModel estimates for the same plane (Eqs. 1-3):\n");
  const tempi::PerfModel model;
  for (const double total : {1024.0, 65536.0, 1048576.0, 4194304.0}) {
    for (const double block : {4.0, 64.0}) {
      std::printf("  total %9.0fB block %4.0fB: one-shot %9.1fus, device "
                  "%9.1fus, staged %9.1fus\n",
                  total, block,
                  model.estimate_us(tempi::Method::OneShot, block, total),
                  model.estimate_us(tempi::Method::Device, block, total),
                  model.estimate_us(tempi::Method::Staged, block, total));
    }
  }
  return 0;
}
