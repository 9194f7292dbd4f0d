// Parameterized GPU pack/unpack kernels (Sec. 3.3).
//
// Kernel selection follows the paper:
//   * 1-D (fully contiguous) objects use cudaMemcpyAsync + synchronize;
//   * 2-D objects map thread X to counts[0] and Y to counts[1], handling a
//     dynamic object count by growing grid Z;
//   * 3-D objects map X/Y/Z to counts[0..2] and apply the whole grid to
//     each object in turn;
//   * >3-D objects follow the 3-D pattern with extra outer loops.
// Each block dimension is the smallest power of two that encompasses the
// corresponding extent, capped by the 1024-thread block limit; the grid
// then covers the object. Each kernel is specialized on a word size W, the
// widest GPU-native type (16/8/4/2/1 bytes) that divides the contiguous
// block length and the object's alignment.
#pragma once

#include "tempi/strided_block.hpp"
#include "vcuda/runtime.hpp"

#include <cstddef>
#include <span>

namespace tempi {

/// Widest W in {16,8,4,2,1} dividing counts[0], all strides, and the start
/// offset (alignment to the object; the allocation base is checked at pack
/// time by the caller).
int select_word_size(const StridedBlock &sb);

/// Block/grid geometry per the paper's X->Z power-of-two fill rule.
/// `count` is the dynamic object count of the MPI call.
vcuda::LaunchConfig make_launch_config(const StridedBlock &sb, int word_size,
                                       int count);

/// Per-datatype launch plan, precomputed once at MPI_Type_commit (Sec. 5:
/// cached per-datatype resources amortize to "tens or hundreds of
/// nanoseconds"). The hot-path launch is table-driven: the only dynamic
/// parameter left is the object count of the MPI call, which 2-D kernels
/// absorb in grid Z.
struct PackPlan {
  int word_size = 1;              ///< frozen select_word_size(sb)
  vcuda::LaunchConfig config;     ///< geometry template for count == 1
  bool grid_z_per_object = false; ///< 2-D: grid Z scales with the count
  bool contiguous = false;        ///< 1-D object: MemcpyAsync per object

  // cudaMemcpy2D (DMA-engine) parameters, valid for 2-D blocks only.
  bool dma_capable = false;
  std::size_t dma_width = 0; ///< contiguous bytes per row
  std::size_t dma_rows = 0;  ///< rows per object
  std::size_t dma_pitch = 0; ///< byte stride between rows
  /// extent == rows * pitch: consecutive objects continue the row grid, so
  /// any count folds into a single tall Memcpy2DAsync instead of one DMA
  /// descriptor batch per object.
  bool dma_uniform = false;
};

/// Build the plan for a canonical block (called at commit time).
PackPlan make_pack_plan(const StridedBlock &sb, long long extent);

/// The plan's geometry with the dynamic `count` applied (grid Z for 2-D).
vcuda::LaunchConfig launch_config_for(const PackPlan &plan, int count);

/// Modeled cost descriptor for a pack (gather) kernel moving `count`
/// objects of `sb` from `src_space` into contiguous `dst_space` memory.
vcuda::KernelCost pack_cost(const StridedBlock &sb, int count,
                            vcuda::MemorySpace src_space,
                            vcuda::MemorySpace dst_space);

/// As pack_cost, with the non-contiguous (write) side on the destination.
vcuda::KernelCost unpack_cost(const StridedBlock &sb, int count,
                              vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space);

/// Plan-driven launches (the hot path): no word-size or geometry
/// recomputation per call; `sb`/`extent` only parameterize the kernel body.
vcuda::Error launch_pack(const PackPlan &plan, const StridedBlock &sb,
                         long long extent, void *dst, const void *src,
                         int count, vcuda::StreamHandle stream);
vcuda::Error launch_unpack(const PackPlan &plan, const StridedBlock &sb,
                           long long extent, void *dst, const void *src,
                           int count, vcuda::StreamHandle stream);

/// Ranged (chunked) launches over an element sub-range of the packed
/// stream, addressed in *global blocks* (dimension-0 rows, the packed
/// stream's natural unit: block g of a message is row g % rows_per_object
/// of object g / rows_per_object, and the stream concatenates blocks in
/// ascending g). launch_pack_range gathers blocks
/// [first_block, first_block + n_blocks) into `dst` (which receives
/// n_blocks * block_bytes packed bytes at offset 0); launch_unpack_range
/// scatters a chunk back into the same blocks of `dst`. These are the
/// per-chunk legs of the Pipelined method — block granularity lets one
/// large object (count == 1) split into many wire legs.
vcuda::Error launch_pack_range(const PackPlan &plan, const StridedBlock &sb,
                               long long extent, void *dst, const void *src,
                               long long first_block, long long n_blocks,
                               vcuda::StreamHandle stream);
vcuda::Error launch_unpack_range(const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *dst, const void *src,
                                 long long first_block, long long n_blocks,
                                 vcuda::StreamHandle stream);

/// One slice of a fused multi-peer pack/unpack pass (the collectives
/// engine): `count` objects whose first object lives `obj_offset` bytes
/// into the object-side buffer, with their packed bytes at `packed_offset`
/// of the staging buffer. Unlike launch_pack_range — whose single uniform
/// object stride addresses one message — a span table carries a distinct
/// (offset, count) pair per peer, so one kernel pass packs every outgoing
/// per-peer block of an Alltoallv-style exchange into one staging lease.
struct PackSpan {
  long long obj_offset = 0;    ///< byte offset of the first object
  long long packed_offset = 0; ///< byte offset into the packed staging
  int count = 0;               ///< objects in this span
};

/// Fused span launches: a single kernel pass (per the object-count-driven
/// geometry of the whole table) gathers every span into `dst`
/// (launch_pack_spans) or scatters the staging bytes back out
/// (launch_unpack_spans). Zero-count spans are skipped; an empty table is
/// a no-op. Asynchronous like the ranged launches.
vcuda::Error launch_pack_spans(const PackPlan &plan, const StridedBlock &sb,
                               long long extent, void *dst, const void *src,
                               std::span<const PackSpan> spans,
                               vcuda::StreamHandle stream);
vcuda::Error launch_unpack_spans(const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *dst, const void *src,
                                 std::span<const PackSpan> spans,
                                 vcuda::StreamHandle stream);

/// One message's unpack inside a fused batch (launch_unpack_batch). Unlike
/// a span table, which shares one datatype and one staging buffer, every
/// item carries its own plan and datatype and its own source buffer, in
/// device or mapped host memory.
///
/// A *pack* item (`pack`) runs the other way: it gathers the `count`
/// objects at `src` into their packed bytes at `dst`, as launch_pack does.
///
/// A *transcode* item also names a source layout (`src_sb`): `src` then
/// holds objects of that layout instead of packed bytes, and the item
/// copies the first size() * count bytes of their packed stream straight
/// into the `count` objects at `dst`, with no packed intermediate. Both
/// layouts are canonical strided blocks, so one walk maps every packed
/// byte to its address on either side (see transcode_cost).
struct UnpackItem {
  const PackPlan *plan = nullptr;
  const StridedBlock *sb = nullptr;
  long long extent = 0;
  void *dst = nullptr;
  const void *src = nullptr;
  int count = 0;
  const PackPlan *src_plan = nullptr; ///< transcode only: the source's
  const StridedBlock *src_sb = nullptr; ///< layout, whose objects `src`
  long long src_extent = 0;             ///< holds
  bool pack = false; ///< gather `src`'s objects into packed `dst`

  [[nodiscard]] bool transcode() const { return src_sb != nullptr; }
};

/// Modeled cost of a transcode moving `bytes` of packed stream from
/// objects of `src_sb` to objects of `dst_sb`: the source's run length on
/// the read side and the destination's on the write side, so
/// vcuda::kernel_duration prices it at the slower side. It is never more
/// than the pack plus the unpack it replaces.
vcuda::KernelCost transcode_cost(const StridedBlock &src_sb,
                                 const StridedBlock &dst_sb, std::size_t bytes,
                                 vcuda::MemorySpace src_space,
                                 vcuda::MemorySpace dst_space);

/// Scatter every item with one kernel launch (vcuda's multi-segment
/// LaunchKernel). Each item is one segment, with the geometry and cost
/// launch_unpack (or, for a pack item, launch_pack) would give it alone, so
/// a one-item batch costs exactly what that launch does. An unpack or pack
/// item must have a kernel plan (a
/// non-contiguous type); a transcode item's segment is priced by
/// transcode_cost, with the destination's geometry at the narrower of the
/// two plans' word sizes. An empty batch is a no-op. On a capturing stream
/// the batch records as one graph node that keeps its own copy of `items`.
vcuda::Error launch_unpack_batch(std::span<const UnpackItem> items,
                                 vcuda::StreamHandle stream);

/// Reduction operators the device combine kernels specialize on (the MPI
/// ops the reduction engine accelerates). Logical and bitwise ops are
/// integer-only: requesting them on a floating-point word is rejected with
/// Error::InvalidValue before any launch.
enum class ReduceOp : int { Sum, Prod, Min, Max, Lor, Land, Bor, Band };

/// Word type a combine kernel is specialized on. Signed integers only: the
/// reduction engine restricts itself to base types with a native device
/// word (int, long, long long, float, double).
enum class ReduceWord : int { I32, I64, F32, F64 };

/// Byte width of `word`.
std::size_t reduce_word_bytes(ReduceWord word);

/// Modeled cost descriptor for a combine touching `bytes` of accumulator
/// (reads both operands, writes one; reduce_ops = bytes / word_bytes feeds
/// the vcuda reduce cost terms).
vcuda::KernelCost reduce_cost(std::size_t bytes, std::size_t word_bytes,
                              vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space);

/// Contiguous elementwise combine over `count` words, asynchronous on
/// `stream`: inout[i] = op(inout[i], in[i]). Operand order within one
/// combine is fixed (accumulator on the left) so floating-point results
/// are reproducible for a given association order.
vcuda::Error launch_reduce(ReduceOp op, ReduceWord word, void *inout,
                           const void *in, std::size_t count,
                           vcuda::StreamHandle stream);

/// Span variant (the reduce-flavored launch_unpack_spans): one fused kernel
/// pass combines the packed contiguous stream `in` into the strided objects
/// of `inout` — for each span, the packed bytes at `packed_offset` fold
/// into the objects at `obj_offset`. Block bytes must be word-aligned.
vcuda::Error launch_reduce_spans(ReduceOp op, ReduceWord word,
                                 const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *inout, const void *in,
                                 std::span<const PackSpan> spans,
                                 vcuda::StreamHandle stream);

/// Recompute-per-call variants (the pre-plan path): build the plan on the
/// spot and launch. Kept as the reference the plan-driven launches are
/// tested and benchmarked against.
vcuda::Error launch_pack(const StridedBlock &sb, long long extent, void *dst,
                         const void *src, int count,
                         vcuda::StreamHandle stream);
vcuda::Error launch_unpack(const StridedBlock &sb, long long extent,
                           void *dst, const void *src, int count,
                           vcuda::StreamHandle stream);

} // namespace tempi
