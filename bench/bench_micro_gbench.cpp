// Core-operation microbenchmarks on the google-benchmark harness.
//
// Device-side latencies are *virtual* (the calibrated cost model), fed to
// google-benchmark through manual timing; host-side operations (type
// commit, IR canonicalization, model queries) are measured in wall time as
// usual. Run with --benchmark_filter=... to select.
#include "bench_common.hpp"
#include "interpose/table.hpp"
#include "tempi/canonicalize.hpp"
#include "tempi/packer.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/translate.hpp"

#include <benchmark/benchmark.h>

namespace {

// --- virtual-time benches (UseManualTime) -------------------------------------

void BM_DevicePack(benchmark::State &state) {
  sysmpi::ensure_self_context();
  const long long total = state.range(0);
  const long long block = state.range(1);
  tempi::StridedBlock sb;
  sb.counts = {block, total / block};
  sb.strides = {1, 2 * block};
  const tempi::Packer packer(sb, 2 * total, total);
  void *obj = nullptr, *flat = nullptr;
  vcuda::Malloc(&obj, static_cast<std::size_t>(total) * 2);
  vcuda::Malloc(&flat, static_cast<std::size_t>(total));
  for (auto _ : state) {
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    packer.pack(flat, obj, 1, vcuda::default_stream());
    state.SetIterationTime(vcuda::ns_to_s(vcuda::virtual_now() - t0));
  }
  state.SetBytesProcessed(state.iterations() * total);
  vcuda::Free(flat);
  vcuda::Free(obj);
}
BENCHMARK(BM_DevicePack)
    ->ArgsProduct({{64 << 10, 4 << 20}, {1, 8, 128}})
    ->UseManualTime()->Iterations(50);

void BM_OneShotPack(benchmark::State &state) {
  sysmpi::ensure_self_context();
  const long long total = state.range(0);
  const long long block = state.range(1);
  tempi::StridedBlock sb;
  sb.counts = {block, total / block};
  sb.strides = {1, 2 * block};
  const tempi::Packer packer(sb, 2 * total, total);
  void *obj = nullptr, *flat = nullptr;
  vcuda::Malloc(&obj, static_cast<std::size_t>(total) * 2);
  vcuda::MallocHost(&flat, static_cast<std::size_t>(total));
  for (auto _ : state) {
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    packer.pack(flat, obj, 1, vcuda::default_stream());
    state.SetIterationTime(vcuda::ns_to_s(vcuda::virtual_now() - t0));
  }
  state.SetBytesProcessed(state.iterations() * total);
  vcuda::FreeHost(flat);
  vcuda::Free(obj);
}
BENCHMARK(BM_OneShotPack)
    ->ArgsProduct({{64 << 10, 4 << 20}, {8, 32, 128}})
    ->UseManualTime()->Iterations(50);

void BM_BaselinePackPerBlock(benchmark::State &state) {
  sysmpi::ensure_self_context();
  const long long blocks = state.range(0);
  MPI_Datatype t = bench::make_vector_2d(blocks, 4, 8);
  void *src = nullptr, *dst = nullptr;
  vcuda::Malloc(&src, static_cast<std::size_t>(blocks) * 8 + 8);
  vcuda::Malloc(&dst, static_cast<std::size_t>(blocks) * 4);
  for (auto _ : state) {
    int position = 0;
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    MPI_Pack(src, 1, t, dst, static_cast<int>(blocks) * 4, &position,
             MPI_COMM_WORLD);
    state.SetIterationTime(vcuda::ns_to_s(vcuda::virtual_now() - t0));
  }
  state.counters["blocks"] = static_cast<double>(blocks);
  vcuda::Free(dst);
  vcuda::Free(src);
  MPI_Type_free(&t);
}
BENCHMARK(BM_BaselinePackPerBlock)->Arg(64)->Arg(512)->UseManualTime()->Iterations(50);

void BM_MemcpyD2H(benchmark::State &state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  void *dev = nullptr, *host = nullptr;
  vcuda::Malloc(&dev, bytes);
  vcuda::MallocHost(&host, bytes);
  for (auto _ : state) {
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    vcuda::MemcpyAsync(host, dev, bytes, vcuda::MemcpyKind::DeviceToHost,
                       vcuda::default_stream());
    vcuda::StreamSynchronize(vcuda::default_stream());
    state.SetIterationTime(vcuda::ns_to_s(vcuda::virtual_now() - t0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  vcuda::FreeHost(host);
  vcuda::Free(dev);
}
BENCHMARK(BM_MemcpyD2H)->Range(64, 4 << 20)->UseManualTime()->Iterations(50);

// --- wall-time benches (host-side work) ---------------------------------------

void BM_TypeCommitBaseline(benchmark::State &state) {
  sysmpi::ensure_self_context();
  for (auto _ : state) {
    MPI_Datatype t = nullptr;
    MPI_Type_vector(static_cast<int>(state.range(0)), 16, 64, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Type_free(&t);
  }
}
BENCHMARK(BM_TypeCommitBaseline)->Arg(16)->Arg(256);

void BM_TranslateAndCanonicalize(benchmark::State &state) {
  sysmpi::ensure_self_context();
  MPI_Datatype row = nullptr, plane = nullptr, cuboid = nullptr;
  MPI_Type_vector(1, 100, 1, MPI_FLOAT, &row);
  MPI_Type_create_hvector(13, 1, 512, row, &plane);
  MPI_Type_create_hvector(47, 1, 512 * 512, plane, &cuboid);
  for (auto _ : state) {
    auto ir = tempi::translate(cuboid, interpose::system_table());
    tempi::simplify(*ir);
    benchmark::DoNotOptimize(ir);
  }
  MPI_Type_free(&cuboid);
  MPI_Type_free(&plane);
  MPI_Type_free(&row);
}
BENCHMARK(BM_TranslateAndCanonicalize);

void BM_ModelChoose(benchmark::State &state) {
  const tempi::PerfModel model;
  std::size_t block = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.choose_transfer(block, 1 << 20));
    block = block % 512 + 1; // rotate keys: mix of hits and misses
  }
}
BENCHMARK(BM_ModelChoose);

} // namespace

BENCHMARK_MAIN();
