// Ablation: canonical strided kernels vs the generic blocklist engine
// (Sec. 2's trade-off, quantified). For the same 2-D object:
//   * the canonical packer stores zero device metadata and reaches full
//     coalescing from the StridedBlock parameters;
//   * the blocklist packer spends ~16 B of device memory per contiguous
//     block and pays an indirection penalty per block.
// For irregular (indexed) types only the blocklist engine applies, and it
// still beats the per-block baseline by orders of magnitude. Both engines
// are driven through tempi::Packer, as MPI_Type_commit wraps them.
//
// Gate: exits 1 unless the blocklist kernel beats the per-block baseline
// by at least 1000x on the irregular type.
#include "bench_common.hpp"
#include "tempi/blocklist_packer.hpp"
#include "tempi/packer.hpp"
#include "tempi/tempi.hpp"

#include <cstdio>
#include <numeric>

int main() {
  sysmpi::ensure_self_context();
  std::printf("Ablation — canonical strided kernels vs generic blocklist "
              "engine\n\n");

  std::printf("2-D object, 4 MiB total, device memory:\n");
  std::printf("%10s | %12s %14s | %12s %14s\n", "block", "strided(us)",
              "metadata(B)", "blocklist(us)", "metadata(B)");
  for (const long long block : {8LL, 64LL, 512LL}) {
    const long long total = 4 * 1024 * 1024;
    MPI_Datatype t = bench::make_vector_2d(total / block, block, 2 * block);

    // Canonical path.
    tempi::StridedBlock sb;
    sb.counts = {block, total / block};
    sb.strides = {1, 2 * block};
    const tempi::Packer strided(sb, 2 * total, total);
    // Blocklist path for the identical object.
    auto bl_engine =
        tempi::BlockListPacker::create(t, interpose::system_table());
    const std::size_t metadata = bl_engine->metadata_bytes();
    const tempi::Packer bl(std::move(bl_engine));

    void *obj = nullptr, *flat = nullptr;
    vcuda::Malloc(&obj, static_cast<std::size_t>(total) * 2);
    vcuda::Malloc(&flat, static_cast<std::size_t>(total));

    support::Sampler s_str, s_bl;
    for (int i = 0; i < 5; ++i) {
      vcuda::VirtualNs t0 = vcuda::virtual_now();
      strided.pack(flat, obj, 1, vcuda::default_stream());
      s_str.add(vcuda::ns_to_us(vcuda::virtual_now() - t0));
      t0 = vcuda::virtual_now();
      bl.pack(flat, obj, 1, vcuda::default_stream());
      s_bl.add(vcuda::ns_to_us(vcuda::virtual_now() - t0));
    }
    std::printf("%9lldB | %12.1f %14d | %12.1f %14zu\n", block,
                s_str.trimean(), 0, s_bl.trimean(), metadata);
    vcuda::Free(flat);
    vcuda::Free(obj);
    MPI_Type_free(&t);
  }

  double speedup = 0;
  std::printf("\nIrregular (indexed) type, 64 Ki blocks of 4 B — only the "
              "blocklist engine or the baseline applies:\n");
  {
    constexpr int kBlocks = 64 * 1024;
    std::vector<int> blens(kBlocks, 1), displs(kBlocks);
    for (int i = 0; i < kBlocks; ++i) {
      displs[static_cast<std::size_t>(i)] = 2 * i;
    }
    MPI_Datatype t = nullptr;
    MPI_Type_indexed(kBlocks, blens.data(), displs.data(), MPI_INT, &t);
    MPI_Type_commit(&t);
    auto bl_engine =
        tempi::BlockListPacker::create(t, interpose::system_table());
    const std::size_t metadata = bl_engine->metadata_bytes();
    const tempi::Packer bl(std::move(bl_engine));

    void *obj = nullptr, *flat = nullptr;
    vcuda::Malloc(&obj, static_cast<std::size_t>(kBlocks) * 8);
    vcuda::Malloc(&flat, static_cast<std::size_t>(kBlocks) * 4);

    vcuda::VirtualNs t0 = vcuda::virtual_now();
    bl.pack(flat, obj, 1, vcuda::default_stream());
    const double bl_us = vcuda::ns_to_us(vcuda::virtual_now() - t0);

    int position = 0;
    t0 = vcuda::virtual_now();
    MPI_Pack(obj, 1, t, flat, kBlocks * 4, &position, MPI_COMM_WORLD);
    const double base_us = vcuda::ns_to_us(vcuda::virtual_now() - t0);

    speedup = base_us / bl_us;
    std::printf("  baseline per-block loop: %12.1f us\n", base_us);
    std::printf("  blocklist kernel:        %12.1f us  (%.0fx, %zu B device "
                "metadata = %.0f%% of the data)\n",
                bl_us, speedup, metadata,
                100.0 * static_cast<double>(metadata) /
                    static_cast<double>(kBlocks * 4));
    bench::emit_json("abl_blocklist",
                     "indexed 64Ki x 4B blocks, blocklist kernel vs "
                     "baseline per-block loop",
                     speedup);
    vcuda::Free(flat);
    vcuda::Free(obj);
    MPI_Type_free(&t);
  }
  constexpr double kMinSpeedup = 1000;
  if (speedup < kMinSpeedup) {
    std::printf("FAIL: blocklist kernel %.0fx over the per-block baseline "
                "(gate >= %.0fx)\n",
                speedup, kMinSpeedup);
    return 1;
  }
  return 0;
}
