// Calibrated cost model for the virtual CUDA runtime.
//
// All constants are Summit-flavored, chosen so the *relative* performance
// structure the paper depends on is preserved:
//
//   * cudaMemcpyAsync has a multi-microsecond per-call CPU overhead, so a
//     per-contiguous-block copy loop (Spectrum MPI's baseline datatype path)
//     is latency-dominated: ~3.5 us per block regardless of block size.
//     4 MiB of 1-byte blocks => ~14 s, which against TEMPI's ~60 us single
//     kernel reproduces the paper's ~242,000x MPI_Pack headline.
//   * Kernel launch + stream synchronize costs ~10-12 us, giving the ~30 us
//     MPI_Send latency floor the paper attributes mostly to pack/unpack
//     kernels (Sec. 6.3).
//   * Device-memory (HBM2) bandwidth ~800 GB/s with 128 B coalescing
//     granularity: strided access efficiency rises with contiguous block
//     size and saturates at 128 B ("in-device performance at 128 B",
//     Sec. 6.3).
//   * CPU-GPU interconnect (NVLink2) ~45 GB/s with 32 B zero-copy
//     transaction granularity: one-shot efficiency saturates at 32 B
//     blocks ("one-shot performance is maximized at 32 B", Sec. 6.3).
//   * Non-contiguous *writes* are slower than non-contiguous reads, making
//     unpack slower than pack (Sec. 6.3).
//
// Absolute values are documented per-field; the figure benches (README
// "Build & test") reproduce the shapes, and bench_table1_summary prints
// them next to the paper's own numbers.
#pragma once

#include "vcuda/clock.hpp"

#include <cstddef>

namespace vcuda {

enum class MemorySpace {
  Pageable, ///< ordinary host memory, not GPU-visible
  Pinned,   ///< page-locked, GPU-mapped ("zero-copy") host memory
  Device,   ///< GPU device memory
};

enum class MemcpyKind {
  HostToHost,
  HostToDevice,
  DeviceToHost,
  DeviceToDevice,
  Default, ///< infer from pointer registry
};

/// Access pattern of one side of a packing kernel.
struct AccessPattern {
  std::size_t contiguous_bytes = 0; ///< length of each contiguous run
  bool is_write = false;            ///< non-contiguous writes are slower
  MemorySpace space = MemorySpace::Device;
};

/// Description of one simulated kernel, sufficient to cost it.
struct KernelCost {
  std::size_t total_bytes = 0; ///< payload moved by the kernel
  AccessPattern src;           ///< gather side
  AccessPattern dst;           ///< scatter side
  std::size_t reduce_ops = 0;  ///< elementwise combines (reduction kernels)
};

/// All tunable constants in one aggregate so tests/benches can construct
/// alternative models; the global instance is Summit-flavored.
struct CostParams {
  // --- CPU-visible API overheads (advance the caller's timeline) ---
  VirtualNs memcpy_async_call_ns = 1500; ///< driver cost per cudaMemcpyAsync
  VirtualNs kernel_launch_ns = 5000;     ///< cudaLaunchKernel driver cost
  VirtualNs stream_sync_ns = 4500;       ///< cudaStreamSynchronize wake-up
  VirtualNs stream_query_ns = 300;
  VirtualNs event_record_ns = 400;
  VirtualNs event_sync_ns = 1500;
  VirtualNs malloc_ns = 90'000;        ///< cudaMalloc (TEMPI caches these)
  VirtualNs malloc_host_ns = 180'000;  ///< cudaMallocHost: pins pages
  VirtualNs free_ns = 40'000;
  VirtualNs free_host_ns = 80'000;
  VirtualNs pointer_query_ns = 150;    ///< cudaPointerGetAttributes

  // --- copy engine (costs accrue on the stream) ---
  VirtualNs copy_engine_latency_ns = 2000; ///< DMA start cost per transfer
  /// 2-D (pitched) DMA: the engine walks a descriptor per row, and narrow
  /// rows underuse the wide transfer path. This is why packing kernels
  /// beat cudaMemcpy2D for fragmented objects (Wang et al. vs later work).
  VirtualNs dma_row_ns = 20;          ///< per-row descriptor processing
  double dma_row_saturation_b = 512;  ///< row width for full engine bw
  double h2d_gbps = 45.0;  ///< pinned host -> device over NVLink2
  double d2h_gbps = 45.0;  ///< device -> pinned host over NVLink2
  double d2d_gbps = 750.0; ///< device-to-device (HBM2 copy: read+write)
  double h2h_gbps = 20.0;  ///< host memcpy
  double pageable_penalty = 0.5; ///< pageable staging halves H2D/D2H bw

  // --- kernel memory system ---
  double device_gbps = 800.0;       ///< HBM2 streaming bandwidth
  double interconnect_gbps = 45.0;  ///< zero-copy loads/stores over NVLink2
  double device_coalesce_bytes = 128.0;  ///< full-efficiency block size, HBM
  double zero_copy_txn_bytes = 32.0;     ///< full-efficiency block size, NVLink
  double noncontig_write_penalty = 0.70; ///< unpack slower than pack
  /// Small kernels underutilize the GPU; utilization rises with payload and
  /// is ~50% at this many bytes.
  double utilization_half_bytes = 64.0 * 1024.0;
  VirtualNs kernel_fixed_ns = 1200; ///< scheduling floor per kernel

  // --- graph capture/replay (cudaGraph) ---
  // Capture is a one-time cost (TEMPI pays it at MPI_Send_init); replay
  // charges ONE launch overhead for the whole node chain instead of one
  // cudaLaunchKernel/cudaMemcpyAsync driver cost per node, and graph-
  // scheduled kernels dispatch with a smaller per-node floor than a cold
  // launch (the CUDA-graphs pitch: launch + inter-kernel gaps amortized).
  VirtualNs graph_capture_node_ns = 700; ///< per recorded node (one-time)
  VirtualNs graph_instantiate_ns = 25'000; ///< cudaGraphInstantiate (one-time)
  VirtualNs graph_launch_ns = 1000;      ///< cudaGraphLaunch, whole graph
  VirtualNs graph_node_sched_ns = 300;   ///< device dispatch floor per node
                                         ///< in a graph (vs kernel_fixed_ns)
  /// Completion fence a pre-built channel keeps armed (event + spin on
  /// EventQuery): folds the stream into the host clock without the cold
  /// cudaStreamSynchronize wake-up.
  VirtualNs stream_fence_ns = 600;

  // --- reduction kernels ---
  // Elementwise combines ride the same memory system as pack/unpack, but the
  // ALU work and the read-modify-write on the accumulator add a fixed setup
  // cost plus a throughput term on top of the bandwidth-bound transfer.
  VirtualNs reduce_fixed_ns = 800;  ///< extra scheduling floor per reduce
  double reduce_gops = 200.0;       ///< combine throughput (ops per ns)

  // --- misc ---
  VirtualNs host_touch_ns_per_byte = 0; ///< host loops cost real time instead
};

/// The process-wide model (Summit calibration).
const CostParams &cost_params();

/// Overrides the process-wide model; returns the previous one. Intended for
/// tests/ablations only — not thread-safe against concurrent vcuda traffic.
CostParams set_cost_params(const CostParams &params);

/// Efficiency in (0,1] of strided access with `contiguous_bytes`-long runs
/// against a memory system with `granularity`-byte transactions.
double strided_efficiency(std::size_t contiguous_bytes, double granularity);

/// Stream-side duration of an async memcpy of `bytes` with direction `kind`
/// (pageable flag set when either endpoint is pageable host memory).
VirtualNs memcpy_duration(const CostParams &p, std::size_t bytes,
                          MemcpyKind kind, bool pageable);

/// Stream-side duration of a packing/unpacking kernel.
VirtualNs kernel_duration(const CostParams &p, const KernelCost &cost);

} // namespace vcuda
