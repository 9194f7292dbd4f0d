// Generic blocklist packing — the paper's future-work extension (Sec. 8)
// for indexed/struct datatypes, built the way prior work does (Sec. 2/7):
// the datatype is flattened to a list of (offset, length) blocks whose
// metadata lives in GPU memory, and a generic kernel walks the list.
//
// This is exactly the representation whose cost the paper's canonical
// approach avoids: ~16 bytes of device metadata per contiguous block,
// which for fragmented types rivals the data itself (Sec. 2). TEMPI keeps
// it OFF by default — matching the paper's Summit deployment, where
// indexed types fall through to the system MPI — and exposes it as an
// opt-in extension (tempi::set_blocklist_fallback) evaluated by
// bench_abl_blocklist.
//
// A BlockListPacker is only a kernel backend: MPI_Type_commit wraps it in
// a tempi::Packer (packer.hpp), so block-list types ride the same send,
// receive, request, persistent and replay paths as canonical ones. The
// launches here are asynchronous; Packer::pack/unpack add the one sync.
#pragma once

#include "interpose/table.hpp"
#include "vcuda/runtime.hpp"

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

namespace tempi {

/// Flatten a committed datatype into (offset, length) runs using only the
/// MPI introspection interface (envelope/contents/extent). Supports every
/// combiner, including indexed, hindexed, indexed_block, and struct.
/// Returns nullopt for unknown combiners.
std::optional<std::vector<std::pair<long long, long long>>>
flatten_type(MPI_Datatype datatype, const interpose::MpiTable &sys);

class BlockListPacker {
public:
  /// Build from a committed datatype; returns nullptr if the type cannot
  /// be flattened. Allocates device metadata (the cost the canonical
  /// representation avoids).
  static std::unique_ptr<BlockListPacker>
  create(MPI_Datatype datatype, const interpose::MpiTable &sys);

  ~BlockListPacker();
  BlockListPacker(const BlockListPacker &) = delete;
  BlockListPacker &operator=(const BlockListPacker &) = delete;

  [[nodiscard]] std::size_t block_count() const { return offsets_.size(); }
  [[nodiscard]] long long type_size() const { return size_; }
  [[nodiscard]] long long type_extent() const { return extent_; }
  /// Device memory consumed by the metadata (offset+length per block).
  [[nodiscard]] std::size_t metadata_bytes() const {
    return offsets_.size() * 2 * sizeof(long long);
  }
  [[nodiscard]] std::size_t packed_bytes(int count) const {
    return static_cast<std::size_t>(size_) * static_cast<std::size_t>(count);
  }

  /// Enqueue the gather of `count` objects into contiguous `dst`.
  vcuda::Error pack_async(void *dst, const void *src, int count,
                          vcuda::StreamHandle stream) const;
  /// Enqueue the scatter of contiguous `src` into `count` objects at `dst`.
  vcuda::Error unpack_async(void *dst, const void *src, int count,
                            vcuda::StreamHandle stream) const;

private:
  BlockListPacker() = default;
  [[nodiscard]] vcuda::KernelCost kernel_cost(int count, bool is_pack,
                                              const void *noncontig,
                                              const void *contig) const;

  std::vector<long long> offsets_, lengths_; ///< host mirror
  void *dev_offsets_ = nullptr;              ///< device metadata
  void *dev_lengths_ = nullptr;
  long long size_ = 0;
  long long extent_ = 0;
  long long avg_block_ = 0;
};

} // namespace tempi
