// Ablation: the Sec. 5 caching layer.
//
//   (1) intermediate-buffer cache: with it, repeated Sends lease device /
//       pinned intermediates in ~100 ns (virtual); without it, every Send
//       pays the full cudaMalloc/cudaMallocHost cost on the critical path;
//   (2) performance-model query cache: cached selections cost ~277 ns vs
//       ~2 us for a fresh interpolation (Sec. 6.3).
#include "bench_common.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/perf_model.hpp"

#include <cstdio>

namespace {

double send_us(bool cache_enabled) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  double us = 0.0;
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    tempi::set_buffer_cache_enabled(cache_enabled);
    MPI_Datatype t = bench::make_vector_2d(1024, 16, 32);
    void *buf = nullptr;
    vcuda::Malloc(&buf, 1024 * 32 + 64);
    support::Sampler s;
    for (int round = 0; round < 4; ++round) {
      if (rank == 0) {
        MPI_Send(buf, 1, t, 1, round, MPI_COMM_WORLD);
        int ack = 0;
        MPI_Recv(&ack, 1, MPI_INT, 1, 99, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
      } else {
        const vcuda::VirtualNs t0 = vcuda::virtual_now();
        MPI_Recv(buf, 1, t, 0, round, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        if (round > 0) {
          s.add(vcuda::ns_to_us(vcuda::virtual_now() - t0));
        }
        const int ack = 1;
        MPI_Send(&ack, 1, MPI_INT, 0, 99, MPI_COMM_WORLD);
      }
    }
    if (rank == 1) {
      us = s.trimean();
    }
    vcuda::Free(buf);
    MPI_Type_free(&t);
    tempi::set_buffer_cache_enabled(true);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  return us;
}

} // namespace

int main() {
  tempi::install();

  std::printf("Ablation — resource caching (Sec. 5)\n\n");
  const double with_cache = send_us(true);
  const double without_cache = send_us(false);
  std::printf("steady-state Send/Recv latency, 16 KiB strided object:\n");
  std::printf("  buffer cache ON:  %8.1f us\n", with_cache);
  std::printf("  buffer cache OFF: %8.1f us  (every Send pays "
              "cudaMalloc)\n", without_cache);
  std::printf("  caching saves %.1fx\n\n", without_cache / with_cache);

  const tempi::PerfModel model;
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  (void)model.choose_transfer(48, 987654);
  const vcuda::VirtualNs miss = vcuda::virtual_now() - t0;
  support::Sampler hits;
  for (int i = 0; i < 10; ++i) {
    const vcuda::VirtualNs h0 = vcuda::virtual_now();
    (void)model.choose_transfer(48, 987654);
    hits.add(static_cast<double>(vcuda::virtual_now() - h0));
  }
  std::printf("model query: first (interpolating) %llu ns, cached %.0f ns "
              "(paper: 277 ns added per selection)\n",
              static_cast<unsigned long long>(miss), hits.trimean());

  bench::emit_json("abl_cache",
                   "16KiB strided Send/Recv, buffer cache on vs off",
                   without_cache / with_cache);
  tempi::uninstall();
  return 0;
}
