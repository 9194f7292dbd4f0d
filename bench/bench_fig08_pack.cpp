// Fig. 8: MPI_Pack latency for 2-D objects described as vector or subarray
// datatypes, baseline system MPI vs TEMPI. Labels follow the figure:
// datatype / total object size / count / contiguous block size, pitch 512 B
// (the 4 MiB / 1 B configuration uses a 2 B pitch to keep the allocation
// within laptop memory; the block structure — what drives the baseline's
// per-block cost — is unchanged). The TEMPI column times the steady state
// from the third pack of a shape on; `rec` is the second pack, which
// records the pack graph.
#include "bench_common.hpp"

#include <cstdio>
#include <vector>

namespace {

struct Config {
  const char *kind; ///< "vec" or "sub"
  long long object_bytes;
  int count;
  long long block_bytes;
  long long pitch_bytes;
};

const std::vector<Config> kConfigs = {
    {"vec", 1024, 1, 1, 512},
    {"vec", 1024, 1, 8, 512},
    {"sub", 1024, 1, 8, 512},
    {"vec", 1024, 1, 128, 512},
    {"vec", 1024, 1, 256, 512},
    {"vec", 1024, 2, 8, 512},
    {"vec", 4 * 1024 * 1024, 2, 1, 2},
};

/// MPI_Pack of `count` objects of `t` between device buffers: the cold
/// call, the recording call and `steady` replays (see time_replayed).
bench::ReplayTiming tempi_pack_us(MPI_Datatype t, int count, int steady) {
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  int size = 0;
  MPI_Type_size(t, &size);
  void *src = nullptr, *dst = nullptr;
  vcuda::Malloc(&src, static_cast<std::size_t>(extent) * count + 64);
  vcuda::Malloc(&dst, static_cast<std::size_t>(size) * count);
  const bench::ReplayTiming timing = bench::time_replayed(steady, [&] {
    int position = 0;
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    MPI_Pack(src, count, t, dst, size * count, &position, MPI_COMM_WORLD);
    return vcuda::ns_to_us(vcuda::virtual_now() - t0);
  });
  vcuda::Free(src);
  vcuda::Free(dst);
  return timing;
}

MPI_Datatype build(const Config &c) {
  const long long blocks = c.object_bytes / c.block_bytes;
  return c.kind[0] == 'v'
             ? bench::make_vector_2d(blocks, c.block_bytes, c.pitch_bytes)
             : bench::make_subarray_2d(blocks, c.block_bytes, c.pitch_bytes);
}

} // namespace

int main() {
  sysmpi::ensure_self_context();

  std::printf("Fig. 8 — MPI_Pack latency on device buffers (virtual us)\n\n");
  std::printf("%-26s %14s %14s %10s %10s\n", "datatype/size/count/block",
              "baseline(us)", "TEMPI(us)", "rec(us)", "speedup");

  const bool smoke = bench::smoke_mode();
  std::vector<double> speedups;
  for (const Config &c : kConfigs) {
    if (smoke && c.object_bytes / c.block_bytes > 100000) {
      continue; // the 4M-block baseline walk is the slow part
    }
    MPI_Datatype t = build(c);
    // Baseline iterations are expensive for fragmented objects; one
    // measured iteration is enough (the virtual clock is deterministic).
    const int base_iters =
        smoke || c.object_bytes / c.block_bytes > 100000 ? 1 : 3;
    const double baseline = bench::pack_latency_us(t, c.count, base_iters);
    bench::ReplayTiming tempi_us;
    {
      tempi::ScopedInterposer guard;
      MPI_Datatype t2 = build(c);
      tempi_us = tempi_pack_us(t2, c.count, smoke ? 1 : 4);
      MPI_Type_free(&t2);
    }
    const double with_tempi = tempi_us.steady_us;
    char label[64];
    std::snprintf(label, sizeof label, "%s %s %d / %lld", c.kind,
                  bench::human_bytes(static_cast<double>(c.object_bytes))
                      .c_str(),
                  c.count, c.block_bytes);
    speedups.push_back(baseline / with_tempi);
    std::printf("%-26s %14.1f %14.1f %10.1f %9.0fx\n", label, baseline,
                with_tempi, tempi_us.record_us, baseline / with_tempi);
    MPI_Type_free(&t);
  }
  std::printf("\nPaper: speedup 5.7x (large blocks, small objects) to "
              "242,000x (4 MiB object, 1 B blocks).\n");
  bench::emit_json("fig08_pack",
                   "MPI_Pack, TEMPI kernels vs baseline per-block loop "
                   "across the Fig. 8 configurations",
                   support::geomean(speedups));
  return 0;
}
