// Per-datatype packer: the cached artifact MPI_Type_commit produces.
//
// Holds the canonical StridedBlock, the MPI extent/size of the committed
// type (needed to step across `count` objects and size packed buffers), the
// commit-time PackPlan (word size, launch-geometry template, DMA
// parameters), and a small memo of the perf model's method choice per
// object count. A strided packer keeps no metadata in (virtual) GPU
// memory: all parameters are kernel arguments, per the paper. Everything
// recomputable was computed at commit, so the per-message cost is a table
// lookup.
//
// A type with no canonical strided form may instead carry a block-list
// backend (the opt-in Sec. 8 fallback, blocklist_packer.hpp), whose
// offset/length tables do live in device memory. Such a packer is not
// strided(): its pack/unpack halves run the block-list kernel, and it has
// no block(), plan(), ranged, span or DMA halves, so the paths that need
// those (the Pipelined method, the fused Waitall unpack, the collectives
// engine) check strided() first. Every other path treats both alike.
#pragma once

#include "tempi/blocklist_packer.hpp"
#include "tempi/kernels.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/strided_block.hpp"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace tempi {

class Packer {
public:
  Packer(StridedBlock sb, long long type_extent, long long type_size)
      : sb_(std::move(sb)), extent_(type_extent), size_(type_size),
        plan_(make_pack_plan(sb_, extent_)) {}

  /// The block-list backend: an empty block(), so wire_block_bytes() is 0.
  explicit Packer(std::unique_ptr<const BlockListPacker> blocklist)
      : extent_(blocklist->type_extent()), size_(blocklist->type_size()),
        blocklist_(std::move(blocklist)) {}

  /// False for the block-list backend (see the file comment).
  [[nodiscard]] bool strided() const { return blocklist_ == nullptr; }

  [[nodiscard]] const StridedBlock &block() const { return sb_; }
  [[nodiscard]] long long type_extent() const { return extent_; }
  [[nodiscard]] long long type_size() const { return size_; }
  [[nodiscard]] int word_size() const { return plan_.word_size; }
  [[nodiscard]] bool contiguous() const { return sb_.ndims() == 1; }

  /// The commit-time launch plan (tests and the overhead bench).
  [[nodiscard]] const PackPlan &plan() const { return plan_; }

  /// Bytes produced by packing `count` objects.
  [[nodiscard]] std::size_t packed_bytes(int count) const {
    return static_cast<std::size_t>(size_) * static_cast<std::size_t>(count);
  }

  /// Gather `count` objects from `src` into contiguous `dst` and
  /// synchronize the stream (the paper's pack timing includes grid
  /// selection, execution, and synchronization).
  vcuda::Error pack(void *dst, const void *src, int count,
                    vcuda::StreamHandle stream) const;

  /// Scatter contiguous `src` into `count` objects at `dst`; synchronizes.
  vcuda::Error unpack(void *dst, const void *src, int count,
                      vcuda::StreamHandle stream) const;

  /// Asynchronous halves used by the non-blocking request engine: enqueue
  /// the kernel on `stream` and return without synchronizing, so several
  /// pack/unpack legs can pipeline on the stream before one host sync.
  vcuda::Error pack_async(void *dst, const void *src, int count,
                          vcuda::StreamHandle stream) const;
  vcuda::Error unpack_async(void *dst, const void *src, int count,
                            vcuda::StreamHandle stream) const;

  /// Ranged halves (the Pipelined method's per-chunk legs), addressed in
  /// global blocks of the packed stream (see launch_pack_range): pack
  /// blocks [first_block, first_block + n_blocks) into `dst` (a
  /// chunk-sized wire buffer), or scatter a chunk's packed bytes into the
  /// same blocks of `dst`. Asynchronous, like the _async halves above.
  vcuda::Error pack_range_async(void *dst, const void *src,
                                long long first_block, long long n_blocks,
                                vcuda::StreamHandle stream) const;
  vcuda::Error unpack_range_async(void *dst, const void *src,
                                  long long first_block, long long n_blocks,
                                  vcuda::StreamHandle stream) const;

  /// Fused span halves (the collectives engine's per-peer offset tables,
  /// see launch_pack_spans): one kernel pass gathers every peer's objects
  /// into one staging lease, or scatters a received staging lease back
  /// into every peer's objects. Asynchronous, like the _async halves.
  vcuda::Error pack_spans_async(void *dst, const void *src,
                                std::span<const PackSpan> spans,
                                vcuda::StreamHandle stream) const;
  vcuda::Error unpack_spans_async(void *dst, const void *src,
                                  std::span<const PackSpan> spans,
                                  vcuda::StreamHandle stream) const;

  /// Packed bytes per block (the chunking granularity) and blocks per
  /// `count` objects of the packed stream.
  [[nodiscard]] long long wire_block_bytes() const {
    return sb_.block_bytes();
  }
  [[nodiscard]] long long total_blocks(int count) const {
    return sb_.block_bytes() > 0
               ? static_cast<long long>(packed_bytes(count)) /
                     sb_.block_bytes()
               : 0;
  }

  /// Sec. 8 extension ("evaluate the use of the GPU DMA engine for
  /// non-contiguous data, e.g. cudaMemcpy2D"): pack/unpack a 2-D strided
  /// block through cudaMemcpy2DAsync instead of a kernel — the Wang et al.
  /// strategy. Valid only when dma_capable(). When the object stride is
  /// uniform (extent == rows * pitch) all objects fold into a single DMA
  /// call; otherwise one per object.
  [[nodiscard]] bool dma_capable() const { return plan_.dma_capable; }
  vcuda::Error pack_dma(void *dst, const void *src, int count,
                        vcuda::StreamHandle stream) const;
  vcuda::Error unpack_dma(void *dst, const void *src, int count,
                          vcuda::StreamHandle stream) const;

  /// Steady-state transfer memo: Auto-mode sends remember the perf
  /// model's answers per (count, model generation) — both the isolated
  /// and the burst answer of one query, with the Pipelined chunk size
  /// (TransferChoices) — so a repeat send skips the model entirely in
  /// either context: the hot path is one atomic load. A slot packs
  /// (generation, count, answers) into a single 64-bit word so a reader
  /// can never observe a torn pairing; a stale generation simply misses.
  /// Defined inline: this sits on the per-message critical path.
  [[nodiscard]] std::optional<TransferChoices>
  cached_transfers(int count, std::uint64_t model_generation) const {
    if (count <= 0 || count >= (1 << kMemoCountBits)) {
      return std::nullopt;
    }
    const std::uint64_t v =
        memo_[static_cast<std::size_t>(count) & (kMemoSlots - 1)].load(
            std::memory_order_acquire);
    if ((v & ~kMemoAnswerMask) != memo_key(count, model_generation)) {
      return std::nullopt;
    }
    return TransferChoices::unpack(v);
  }
  void remember_transfers(int count, std::uint64_t model_generation,
                          TransferChoices choices) const {
    if (count <= 0 || count >= (1 << kMemoCountBits)) {
      return;
    }
    memo_[static_cast<std::size_t>(count) & (kMemoSlots - 1)].store(
        memo_key(count, model_generation) | choices.pack(),
        std::memory_order_release);
  }

private:
  static constexpr int kMemoSlots = 8; // power of two, direct-mapped
  // Slot layout: [63:37] generation (27 bits) | [36:11] count (26 bits) |
  // bit 10 valid | [9:0] the packed TransferChoices. Counts >= 2^26
  // bypass the memo.
  static constexpr int kMemoAnswerBits = TransferChoices::kPackedBits;
  static constexpr std::uint64_t kMemoAnswerMask =
      (std::uint64_t{1} << kMemoAnswerBits) - 1;
  static constexpr int kMemoCountShift = kMemoAnswerBits + 1;
  static constexpr int kMemoCountBits = 26;
  static constexpr int kMemoGenShift = kMemoCountShift + kMemoCountBits;
  static constexpr std::uint64_t kMemoGenMask =
      (std::uint64_t{1} << (64 - kMemoGenShift)) - 1;
  static std::uint64_t memo_key(int count, std::uint64_t model_generation) {
    return ((model_generation & kMemoGenMask) << kMemoGenShift) |
           (static_cast<std::uint64_t>(count) << kMemoCountShift) |
           (std::uint64_t{1} << kMemoAnswerBits);
  }

  StridedBlock sb_;
  long long extent_ = 0;
  long long size_ = 0;
  PackPlan plan_;
  std::unique_ptr<const BlockListPacker> blocklist_;
  mutable std::array<std::atomic<std::uint64_t>, kMemoSlots> memo_{};
};

} // namespace tempi
