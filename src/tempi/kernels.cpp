#include "tempi/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

namespace tempi {

namespace {

vcuda::MemorySpace space_of(const void *p) {
  return vcuda::memory_registry().space_of(p);
}

unsigned next_pow2_capped(long long n, unsigned cap) {
  if (n <= 1) {
    return 1;
  }
  const auto v = static_cast<unsigned long long>(n);
  const unsigned long long p = std::bit_ceil(v);
  return static_cast<unsigned>(std::min<unsigned long long>(p, cap));
}

/// Iterate every (object, dim>=1 index tuple) block and invoke
/// fn(src_block_offset, dst_linear_offset, block_bytes). Works for any
/// dimensionality; dimension 0 is the contiguous block.
template <typename Fn>
void for_each_kernel_block(const StridedBlock &sb, long long extent,
                           int count, Fn &&fn) {
  const int nd = sb.ndims();
  const long long block = sb.counts[0];
  if (block == 0) {
    return;
  }
  long long blocks_per_obj = 1;
  for (int d = 1; d < nd; ++d) {
    blocks_per_obj *= sb.counts[static_cast<std::size_t>(d)];
  }
  std::vector<long long> idx(static_cast<std::size_t>(std::max(nd - 1, 0)), 0);
  for (int obj = 0; obj < count; ++obj) {
    const long long obj_src = static_cast<long long>(obj) * extent + sb.start;
    const long long obj_dst =
        static_cast<long long>(obj) * blocks_per_obj * block;
    std::fill(idx.begin(), idx.end(), 0);
    for (long long b = 0; b < blocks_per_obj; ++b) {
      long long src_off = obj_src;
      for (int d = 1; d < nd; ++d) {
        src_off += idx[static_cast<std::size_t>(d - 1)] *
                   sb.strides[static_cast<std::size_t>(d)];
      }
      fn(src_off, obj_dst + b * block, block);
      // Advance the (dim 1, dim 2, ...) index tuple, dim 1 fastest.
      for (int d = 1; d < nd; ++d) {
        auto &i = idx[static_cast<std::size_t>(d - 1)];
        if (++i < sb.counts[static_cast<std::size_t>(d)]) {
          break;
        }
        i = 0;
      }
    }
  }
}

} // namespace

int select_word_size(const StridedBlock &sb) {
  for (const int w : {16, 8, 4, 2}) {
    if (sb.block_bytes() % w != 0 || sb.start % w != 0) {
      continue;
    }
    bool ok = true;
    for (std::size_t d = 1; d < sb.strides.size(); ++d) {
      if (sb.strides[d] % w != 0) {
        ok = false;
        break;
      }
    }
    if (ok) {
      return w;
    }
  }
  return 1;
}

vcuda::LaunchConfig make_launch_config(const StridedBlock &sb, int word_size,
                                       int count) {
  constexpr unsigned kBlockLimit = 1024;
  vcuda::LaunchConfig cfg;
  const int nd = sb.ndims();

  const long long x_extent =
      sb.block_bytes() / std::max(word_size, 1); // X loads words
  cfg.block.x = next_pow2_capped(x_extent, kBlockLimit);
  unsigned remaining = kBlockLimit / cfg.block.x;
  if (nd >= 2) {
    cfg.block.y = next_pow2_capped(sb.counts[1], std::max(remaining, 1u));
    remaining = std::max(remaining / cfg.block.y, 1u);
  }
  if (nd >= 3) {
    cfg.block.z = next_pow2_capped(sb.counts[2], std::max(remaining, 1u));
  }

  auto grid_for = [](long long total, unsigned block) {
    return static_cast<unsigned>((total + block - 1) / block);
  };
  cfg.grid.x = grid_for(std::max<long long>(x_extent, 1), cfg.block.x);
  if (nd >= 2) {
    cfg.grid.y = grid_for(sb.counts[1], cfg.block.y);
  }
  if (nd >= 3) {
    cfg.grid.z = grid_for(sb.counts[2], cfg.block.z);
  } else if (nd == 2 && count > 1) {
    // 2-D kernels absorb the dynamic object count in grid Z.
    cfg.grid.z = static_cast<unsigned>(count);
  }
  return cfg;
}

namespace {

/// The memory system that governs a kernel's throughput. When either end
/// is mapped host memory ("one-shot"), every transaction crosses the
/// CPU-GPU interconnect and its 32 B zero-copy granularity dominates;
/// otherwise the device memory system (128 B coalescing) governs. This is
/// how the paper's saturation points (32 B one-shot, 128 B in-device,
/// Sec. 6.3) arise.
vcuda::MemorySpace governing_space(vcuda::MemorySpace a,
                                   vcuda::MemorySpace b) {
  if (a == vcuda::MemorySpace::Pinned || b == vcuda::MemorySpace::Pinned) {
    return vcuda::MemorySpace::Pinned;
  }
  return vcuda::MemorySpace::Device;
}

} // namespace

vcuda::KernelCost pack_cost(const StridedBlock &sb, int count,
                            vcuda::MemorySpace src_space,
                            vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes = static_cast<std::size_t>(sb.size()) * count;
  const bool strided = sb.ndims() > 1;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  cost.src = {strided ? static_cast<std::size_t>(sb.block_bytes()) : 0,
              /*is_write=*/false, gov};
  cost.dst = {0, /*is_write=*/true, gov};
  return cost;
}

vcuda::KernelCost unpack_cost(const StridedBlock &sb, int count,
                              vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes = static_cast<std::size_t>(sb.size()) * count;
  const bool strided = sb.ndims() > 1;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  cost.src = {0, /*is_write=*/false, gov};
  cost.dst = {strided ? static_cast<std::size_t>(sb.block_bytes()) : 0,
              /*is_write=*/true, gov};
  return cost;
}

PackPlan make_pack_plan(const StridedBlock &sb, long long extent) {
  PackPlan plan;
  plan.contiguous = sb.ndims() == 1;
  if (plan.contiguous) {
    return plan;
  }
  plan.word_size = select_word_size(sb);
  plan.config = make_launch_config(sb, plan.word_size, 1);
  plan.grid_z_per_object = sb.ndims() == 2;
  if (sb.ndims() == 2) {
    plan.dma_capable = true;
    plan.dma_width = static_cast<std::size_t>(sb.counts[0]);
    plan.dma_rows = static_cast<std::size_t>(sb.counts[1]);
    plan.dma_pitch = static_cast<std::size_t>(sb.strides[1]);
    plan.dma_uniform =
        extent > 0 &&
        static_cast<std::size_t>(extent) == plan.dma_rows * plan.dma_pitch;
  }
  return plan;
}

vcuda::LaunchConfig launch_config_for(const PackPlan &plan, int count) {
  vcuda::LaunchConfig cfg = plan.config;
  if (plan.grid_z_per_object && count > 1) {
    cfg.grid.z = static_cast<unsigned>(count);
  }
  return cfg;
}

vcuda::Error launch_pack(const PackPlan &plan, const StridedBlock &sb,
                         long long extent, void *dst, const void *src,
                         int count, vcuda::StreamHandle stream) {
  assert(sb.ndims() >= 1);
  if (plan.contiguous) {
    // Contiguous object: a single async copy per object (per Sec. 3.3).
    const auto bytes = static_cast<std::size_t>(sb.counts[0]);
    auto *out = static_cast<std::byte *>(dst);
    const auto *in = static_cast<const std::byte *>(src) + sb.start;
    for (int i = 0; i < count; ++i) {
      const vcuda::Error e = vcuda::MemcpyAsync(
          out + static_cast<long long>(i) * sb.counts[0], in + i * extent,
          bytes, vcuda::MemcpyKind::Default, stream);
      if (e != vcuda::Error::Success) {
        return e;
      }
    }
    return vcuda::Error::Success;
  }
  const vcuda::LaunchConfig cfg = launch_config_for(plan, count);
  const vcuda::KernelCost cost =
      pack_cost(sb, count, space_of(src), space_of(dst));
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  return vcuda::LaunchKernel(cfg, cost, stream, [&sb, extent, count, out, in] {
    for_each_kernel_block(sb, extent, count,
                          [out, in](long long s, long long d, long long n) {
                            std::memcpy(out + d, in + s,
                                        static_cast<std::size_t>(n));
                          });
  });
}

vcuda::Error launch_unpack(const PackPlan &plan, const StridedBlock &sb,
                           long long extent, void *dst, const void *src,
                           int count, vcuda::StreamHandle stream) {
  assert(sb.ndims() >= 1);
  if (plan.contiguous) {
    const auto bytes = static_cast<std::size_t>(sb.counts[0]);
    auto *out = static_cast<std::byte *>(dst) + sb.start;
    const auto *in = static_cast<const std::byte *>(src);
    for (int i = 0; i < count; ++i) {
      const vcuda::Error e = vcuda::MemcpyAsync(
          out + i * extent, in + static_cast<long long>(i) * sb.counts[0],
          bytes, vcuda::MemcpyKind::Default, stream);
      if (e != vcuda::Error::Success) {
        return e;
      }
    }
    return vcuda::Error::Success;
  }
  const vcuda::LaunchConfig cfg = launch_config_for(plan, count);
  const vcuda::KernelCost cost =
      unpack_cost(sb, count, space_of(src), space_of(dst));
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  return vcuda::LaunchKernel(cfg, cost, stream, [&sb, extent, count, out, in] {
    for_each_kernel_block(sb, extent, count,
                          [out, in](long long s, long long d, long long n) {
                            std::memcpy(out + s, in + d,
                                        static_cast<std::size_t>(n));
                          });
  });
}

namespace {

/// Blocks (dimension-0 rows) per object: the packed stream is the
/// concatenation of these blocks in dimension-1-fastest order, so a
/// global block index addresses any aligned sub-range of the stream.
long long blocks_per_object(const StridedBlock &sb) {
  long long n = 1;
  for (int d = 1; d < sb.ndims(); ++d) {
    n *= sb.counts[static_cast<std::size_t>(d)];
  }
  return n;
}

/// Range variant of for_each_kernel_block: visit global blocks
/// [g0, g1), invoking fn(src_block_offset, range_relative_dst_offset,
/// block_bytes). Block g lives in object g / blocks_per_object at the
/// dimension-1-fastest index decomposition of g % blocks_per_object —
/// exactly the order the whole-message iteration emits, so a range's
/// packed bytes equal the same slice of the full pack.
template <typename Fn>
void for_each_kernel_block_range(const StridedBlock &sb, long long extent,
                                 long long g0, long long g1, Fn &&fn) {
  const long long block = sb.counts.empty() ? 0 : sb.counts[0];
  if (block == 0 || g1 <= g0) {
    return;
  }
  const long long per_obj = blocks_per_object(sb);
  for (long long g = g0; g < g1; ++g) {
    const long long obj = g / per_obj;
    long long rem = g % per_obj;
    long long src_off = obj * extent + sb.start;
    for (int d = 1; d < sb.ndims(); ++d) {
      const long long c = sb.counts[static_cast<std::size_t>(d)];
      src_off += (rem % c) * sb.strides[static_cast<std::size_t>(d)];
      rem /= c;
    }
    fn(src_off, (g - g0) * block, block);
  }
}

/// Geometry/cost for a ranged launch: the equivalent whole objects the
/// range spans (cost scales with bytes; geometry only shapes the model).
vcuda::KernelCost ranged_cost(const StridedBlock &sb, long long n_blocks,
                              bool is_pack, vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes =
      static_cast<std::size_t>(n_blocks) * static_cast<std::size_t>(
                                               sb.block_bytes());
  const bool strided = sb.ndims() > 1;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  const std::size_t stride_block =
      strided ? static_cast<std::size_t>(sb.block_bytes()) : 0;
  if (is_pack) {
    cost.src = {stride_block, /*is_write=*/false, gov};
    cost.dst = {0, /*is_write=*/true, gov};
  } else {
    cost.src = {0, /*is_write=*/false, gov};
    cost.dst = {stride_block, /*is_write=*/true, gov};
  }
  return cost;
}

} // namespace

vcuda::Error launch_pack_range(const PackPlan &plan, const StridedBlock &sb,
                               long long extent, void *dst, const void *src,
                               long long first_block, long long n_blocks,
                               vcuda::StreamHandle stream) {
  assert(first_block >= 0 && n_blocks >= 0);
  if (n_blocks == 0) {
    return vcuda::Error::Success;
  }
  if (plan.contiguous) {
    // 1-D objects: block g is the whole object g (one copy per block,
    // exactly as the whole-message contiguous path does).
    const auto bytes = static_cast<std::size_t>(sb.counts[0]);
    auto *out = static_cast<std::byte *>(dst);
    const auto *in = static_cast<const std::byte *>(src) + sb.start;
    for (long long g = first_block; g < first_block + n_blocks; ++g) {
      const vcuda::Error e = vcuda::MemcpyAsync(
          out + (g - first_block) * sb.counts[0], in + g * extent, bytes,
          vcuda::MemcpyKind::Default, stream);
      if (e != vcuda::Error::Success) {
        return e;
      }
    }
    return vcuda::Error::Success;
  }
  const long long per_obj = blocks_per_object(sb);
  const int eq_objs =
      static_cast<int>((n_blocks + per_obj - 1) / per_obj); // geometry only
  const vcuda::LaunchConfig cfg = launch_config_for(plan, eq_objs);
  const vcuda::KernelCost cost =
      ranged_cost(sb, n_blocks, /*is_pack=*/true, space_of(src),
                  space_of(dst));
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  return vcuda::LaunchKernel(
      cfg, cost, stream, [&sb, extent, first_block, n_blocks, out, in] {
        for_each_kernel_block_range(
            sb, extent, first_block, first_block + n_blocks,
            [out, in](long long s, long long d, long long n) {
              std::memcpy(out + d, in + s, static_cast<std::size_t>(n));
            });
      });
}

vcuda::Error launch_unpack_range(const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *dst, const void *src,
                                 long long first_block, long long n_blocks,
                                 vcuda::StreamHandle stream) {
  assert(first_block >= 0 && n_blocks >= 0);
  if (n_blocks == 0) {
    return vcuda::Error::Success;
  }
  if (plan.contiguous) {
    const auto bytes = static_cast<std::size_t>(sb.counts[0]);
    auto *out = static_cast<std::byte *>(dst) + sb.start;
    const auto *in = static_cast<const std::byte *>(src);
    for (long long g = first_block; g < first_block + n_blocks; ++g) {
      const vcuda::Error e = vcuda::MemcpyAsync(
          out + g * extent, in + (g - first_block) * sb.counts[0], bytes,
          vcuda::MemcpyKind::Default, stream);
      if (e != vcuda::Error::Success) {
        return e;
      }
    }
    return vcuda::Error::Success;
  }
  const long long per_obj = blocks_per_object(sb);
  const int eq_objs = static_cast<int>((n_blocks + per_obj - 1) / per_obj);
  const vcuda::LaunchConfig cfg = launch_config_for(plan, eq_objs);
  const vcuda::KernelCost cost =
      ranged_cost(sb, n_blocks, /*is_pack=*/false, space_of(src),
                  space_of(dst));
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  return vcuda::LaunchKernel(
      cfg, cost, stream, [&sb, extent, first_block, n_blocks, out, in] {
        for_each_kernel_block_range(
            sb, extent, first_block, first_block + n_blocks,
            [out, in](long long s, long long d, long long n) {
              std::memcpy(out + s, in + d, static_cast<std::size_t>(n));
            });
      });
}

namespace {

/// Shared shape computation for a span table: total objects (geometry) and
/// total packed bytes (cost). Zero-count spans contribute nothing.
void span_totals(const StridedBlock &sb, std::span<const PackSpan> spans,
                 long long *objects, std::size_t *bytes) {
  *objects = 0;
  *bytes = 0;
  for (const PackSpan &s : spans) {
    *objects += std::max(s.count, 0);
  }
  *bytes = static_cast<std::size_t>(*objects) *
           static_cast<std::size_t>(sb.size());
}

} // namespace

vcuda::Error launch_pack_spans(const PackPlan &plan, const StridedBlock &sb,
                               long long extent, void *dst, const void *src,
                               std::span<const PackSpan> spans,
                               vcuda::StreamHandle stream) {
  long long objects = 0;
  std::size_t bytes = 0;
  span_totals(sb, spans, &objects, &bytes);
  if (objects == 0) {
    return vcuda::Error::Success;
  }
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  if (plan.contiguous) {
    // 1-D objects: one async copy per object, continuing across spans —
    // the same shape as launch_pack's contiguous path.
    const auto blk = static_cast<std::size_t>(sb.counts[0]);
    for (const PackSpan &s : spans) {
      for (int i = 0; i < s.count; ++i) {
        const vcuda::Error e = vcuda::MemcpyAsync(
            out + s.packed_offset + static_cast<long long>(i) * sb.counts[0],
            in + s.obj_offset + i * extent + sb.start, blk,
            vcuda::MemcpyKind::Default, stream);
        if (e != vcuda::Error::Success) {
          return e;
        }
      }
    }
    return vcuda::Error::Success;
  }
  const int eq_objs = static_cast<int>(
      std::min<long long>(objects, std::numeric_limits<int>::max()));
  const vcuda::LaunchConfig cfg = launch_config_for(plan, eq_objs);
  vcuda::KernelCost cost = pack_cost(sb, 1, space_of(src), space_of(dst));
  cost.total_bytes = bytes;
  // The table is copied into the launch closure: the kernel body must not
  // reference caller-stack storage once enqueued.
  std::vector<PackSpan> table(spans.begin(), spans.end());
  return vcuda::LaunchKernel(
      cfg, cost, stream, [&sb, extent, out, in, table = std::move(table)] {
        for (const PackSpan &s : table) {
          for_each_kernel_block(
              sb, extent, s.count,
              [out, in, &s](long long so, long long d, long long n) {
                std::memcpy(out + s.packed_offset + d, in + s.obj_offset + so,
                            static_cast<std::size_t>(n));
              });
        }
      });
}

vcuda::Error launch_unpack_spans(const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *dst, const void *src,
                                 std::span<const PackSpan> spans,
                                 vcuda::StreamHandle stream) {
  long long objects = 0;
  std::size_t bytes = 0;
  span_totals(sb, spans, &objects, &bytes);
  if (objects == 0) {
    return vcuda::Error::Success;
  }
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  if (plan.contiguous) {
    const auto blk = static_cast<std::size_t>(sb.counts[0]);
    for (const PackSpan &s : spans) {
      for (int i = 0; i < s.count; ++i) {
        const vcuda::Error e = vcuda::MemcpyAsync(
            out + s.obj_offset + i * extent + sb.start,
            in + s.packed_offset + static_cast<long long>(i) * sb.counts[0],
            blk, vcuda::MemcpyKind::Default, stream);
        if (e != vcuda::Error::Success) {
          return e;
        }
      }
    }
    return vcuda::Error::Success;
  }
  const int eq_objs = static_cast<int>(
      std::min<long long>(objects, std::numeric_limits<int>::max()));
  const vcuda::LaunchConfig cfg = launch_config_for(plan, eq_objs);
  vcuda::KernelCost cost = unpack_cost(sb, 1, space_of(src), space_of(dst));
  cost.total_bytes = bytes;
  std::vector<PackSpan> table(spans.begin(), spans.end());
  return vcuda::LaunchKernel(
      cfg, cost, stream, [&sb, extent, out, in, table = std::move(table)] {
        for (const PackSpan &s : table) {
          for_each_kernel_block(
              sb, extent, s.count,
              [out, in, &s](long long so, long long d, long long n) {
                std::memcpy(out + s.obj_offset + so, in + s.packed_offset + d,
                            static_cast<std::size_t>(n));
              });
        }
      });
}

namespace {

/// A position in the packed stream of one layout's objects: the address of
/// the current block (a dimension-0 run) and how far into it the position
/// is. Blocks follow for_each_kernel_block's order.
class RunCursor {
public:
  RunCursor(const StridedBlock &sb, long long extent)
      : sb_(sb), extent_(extent), base_(sb.start),
        idx_(static_cast<std::size_t>(std::max(sb.ndims() - 1, 0)), 0) {}

  /// Byte offset of the position in the object buffer.
  [[nodiscard]] long long offset() const { return base_ + pos_; }
  /// Bytes left in the current block.
  [[nodiscard]] long long left() const { return sb_.counts[0] - pos_; }

  /// Move `n` <= left() bytes on; past a block's end, step to the next
  /// block (dimension 1 fastest), and past an object's last block to the
  /// next object.
  void advance(long long n) {
    pos_ += n;
    if (pos_ < sb_.counts[0]) {
      return;
    }
    pos_ = 0;
    for (std::size_t d = 1; d < sb_.counts.size(); ++d) {
      long long &i = idx_[d - 1];
      base_ += sb_.strides[d];
      if (++i < sb_.counts[d]) {
        return;
      }
      base_ -= i * sb_.strides[d];
      i = 0;
    }
    base_ = ++obj_ * extent_ + sb_.start;
  }

private:
  const StridedBlock &sb_;
  long long extent_;
  long long base_;
  long long pos_ = 0;
  long long obj_ = 0;
  std::vector<long long> idx_;
};

/// Copy a transcode item: walk both layouts over the same packed stream
/// and copy each piece where neither side's run breaks.
void run_transcode(const UnpackItem &it) {
  auto *out = static_cast<std::byte *>(it.dst);
  const auto *in = static_cast<const std::byte *>(it.src);
  RunCursor from(*it.src_sb, it.src_extent);
  RunCursor to(*it.sb, it.extent);
  for (long long left = it.sb->size() * it.count; left > 0;) {
    const long long n = std::min({from.left(), to.left(), left});
    std::memcpy(out + to.offset(), in + from.offset(),
                static_cast<std::size_t>(n));
    from.advance(n);
    to.advance(n);
    left -= n;
  }
}

/// The fused-launch segment of one batch item.
vcuda::KernelSegment batch_segment(const UnpackItem &it) {
  if (!it.transcode()) {
    assert(!it.plan->contiguous);
    const auto cost = it.pack ? pack_cost : unpack_cost;
    return {launch_config_for(*it.plan, it.count),
            cost(*it.sb, it.count, space_of(it.src), space_of(it.dst))};
  }
  const int word = std::min(it.plan->word_size, it.src_plan->word_size);
  return {make_launch_config(*it.sb, word, it.count),
          transcode_cost(*it.src_sb, *it.sb,
                         static_cast<std::size_t>(it.sb->size()) *
                             static_cast<std::size_t>(it.count),
                         space_of(it.src), space_of(it.dst))};
}

} // namespace

vcuda::KernelCost transcode_cost(const StridedBlock &src_sb,
                                 const StridedBlock &dst_sb, std::size_t bytes,
                                 vcuda::MemorySpace src_space,
                                 vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes = bytes;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  const auto run = [](const StridedBlock &sb) {
    return sb.ndims() > 1 ? static_cast<std::size_t>(sb.block_bytes()) : 0;
  };
  cost.src = {run(src_sb), /*is_write=*/false, gov};
  cost.dst = {run(dst_sb), /*is_write=*/true, gov};
  return cost;
}

vcuda::Error launch_unpack_batch(std::span<const UnpackItem> items,
                                 vcuda::StreamHandle stream) {
  if (items.empty()) {
    return vcuda::Error::Success;
  }
  std::vector<vcuda::KernelSegment> segments;
  segments.reserve(items.size());
  for (const UnpackItem &it : items) {
    segments.push_back(batch_segment(it));
  }
  const auto run = [](std::span<const UnpackItem> batch) {
    for (const UnpackItem &it : batch) {
      if (it.transcode()) {
        run_transcode(it);
        continue;
      }
      auto *out = static_cast<std::byte *>(it.dst);
      const auto *in = static_cast<const std::byte *>(it.src);
      const bool pack = it.pack;
      for_each_kernel_block(
          *it.sb, it.extent, it.count,
          [out, in, pack](long long s, long long d, long long n) {
            if (pack) {
              std::memcpy(out + d, in + s, static_cast<std::size_t>(n));
            } else {
              std::memcpy(out + s, in + d, static_cast<std::size_t>(n));
            }
          });
    }
  };
  // A live launch runs its body before LaunchKernel returns, so the body
  // may reference the caller's items; a captured one runs at every replay
  // and keeps a copy.
  if (vcuda::StreamIsCapturing(stream)) {
    return vcuda::LaunchKernel(
        segments, stream,
        [run, owned = std::vector<UnpackItem>(items.begin(), items.end())] {
          run(owned);
        });
  }
  return vcuda::LaunchKernel(segments, stream, [run, items] { run(items); });
}

namespace {

template <typename T>
void combine_typed(ReduceOp op, T *inout, const T *in, std::size_t n) {
  switch (op) {
  case ReduceOp::Sum:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = static_cast<T>(inout[i] + in[i]);
    return;
  case ReduceOp::Prod:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = static_cast<T>(inout[i] * in[i]);
    return;
  case ReduceOp::Min:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = std::min(inout[i], in[i]);
    return;
  case ReduceOp::Max:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = std::max(inout[i], in[i]);
    return;
  default:
    break;
  }
  if constexpr (std::is_integral_v<T>) {
    switch (op) {
    case ReduceOp::Lor:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>((inout[i] != 0 || in[i] != 0) ? 1 : 0);
      return;
    case ReduceOp::Land:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>((inout[i] != 0 && in[i] != 0) ? 1 : 0);
      return;
    case ReduceOp::Bor:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>(inout[i] | in[i]);
      return;
    case ReduceOp::Band:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>(inout[i] & in[i]);
      return;
    default:
      break;
    }
  }
  assert(false && "op/word combination validated before launch");
}

/// Combine `bytes` of payload, reinterpreted as `word`-typed arrays.
void combine_bytes(ReduceOp op, ReduceWord word, std::byte *inout,
                   const std::byte *in, std::size_t bytes) {
  const std::size_t n = bytes / reduce_word_bytes(word);
  switch (word) {
  case ReduceWord::I32:
    combine_typed(op, reinterpret_cast<std::int32_t *>(inout),
                  reinterpret_cast<const std::int32_t *>(in), n);
    return;
  case ReduceWord::I64:
    combine_typed(op, reinterpret_cast<std::int64_t *>(inout),
                  reinterpret_cast<const std::int64_t *>(in), n);
    return;
  case ReduceWord::F32:
    combine_typed(op, reinterpret_cast<float *>(inout),
                  reinterpret_cast<const float *>(in), n);
    return;
  case ReduceWord::F64:
    combine_typed(op, reinterpret_cast<double *>(inout),
                  reinterpret_cast<const double *>(in), n);
    return;
  }
}

bool reduce_op_valid(ReduceOp op, ReduceWord word) {
  if (word == ReduceWord::F32 || word == ReduceWord::F64) {
    return op == ReduceOp::Sum || op == ReduceOp::Prod ||
           op == ReduceOp::Min || op == ReduceOp::Max;
  }
  return true;
}

} // namespace

std::size_t reduce_word_bytes(ReduceWord word) {
  switch (word) {
  case ReduceWord::I32:
  case ReduceWord::F32:
    return 4;
  case ReduceWord::I64:
  case ReduceWord::F64:
    return 8;
  }
  return 1;
}

vcuda::KernelCost reduce_cost(std::size_t bytes, std::size_t word_bytes,
                              vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes = bytes;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  cost.src = {0, /*is_write=*/false, gov};
  // The accumulator side is read-modify-write; model it as the write side.
  cost.dst = {0, /*is_write=*/true, gov};
  cost.reduce_ops = word_bytes > 0 ? bytes / word_bytes : 0;
  return cost;
}

vcuda::Error launch_reduce(ReduceOp op, ReduceWord word, void *inout,
                           const void *in, std::size_t count,
                           vcuda::StreamHandle stream) {
  if (!reduce_op_valid(op, word)) {
    return vcuda::Error::InvalidValue;
  }
  if (count == 0) {
    return vcuda::Error::Success;
  }
  const std::size_t wb = reduce_word_bytes(word);
  const std::size_t bytes = count * wb;
  vcuda::LaunchConfig cfg;
  cfg.block.x = 256;
  cfg.grid.x = static_cast<unsigned>(
      std::min<std::size_t>((count + 255) / 256,
                            std::numeric_limits<unsigned>::max()));
  const vcuda::KernelCost cost =
      reduce_cost(bytes, wb, space_of(in), space_of(inout));
  auto *acc = static_cast<std::byte *>(inout);
  const auto *src = static_cast<const std::byte *>(in);
  return vcuda::LaunchKernel(cfg, cost, stream, [op, word, acc, src, bytes] {
    combine_bytes(op, word, acc, src, bytes);
  });
}

vcuda::Error launch_reduce_spans(ReduceOp op, ReduceWord word,
                                 const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *inout, const void *in,
                                 std::span<const PackSpan> spans,
                                 vcuda::StreamHandle stream) {
  if (!reduce_op_valid(op, word)) {
    return vcuda::Error::InvalidValue;
  }
  const std::size_t wb = reduce_word_bytes(word);
  assert(sb.block_bytes() % static_cast<long long>(wb) == 0);
  long long objects = 0;
  std::size_t bytes = 0;
  span_totals(sb, spans, &objects, &bytes);
  if (objects == 0) {
    return vcuda::Error::Success;
  }
  auto *out = static_cast<std::byte *>(inout);
  const auto *src = static_cast<const std::byte *>(in);
  const int eq_objs = static_cast<int>(
      std::min<long long>(objects, std::numeric_limits<int>::max()));
  const vcuda::LaunchConfig cfg =
      plan.contiguous ? make_launch_config(sb, plan.word_size, eq_objs)
                      : launch_config_for(plan, eq_objs);
  vcuda::KernelCost cost = unpack_cost(sb, 1, space_of(in), space_of(inout));
  cost.total_bytes = bytes;
  cost.reduce_ops = bytes / wb;
  // The table is copied into the launch closure: the kernel body must not
  // reference caller-stack storage once enqueued.
  std::vector<PackSpan> table(spans.begin(), spans.end());
  return vcuda::LaunchKernel(
      cfg, cost, stream,
      [op, word, &sb, extent, out, src, table = std::move(table)] {
        for (const PackSpan &s : table) {
          for_each_kernel_block(
              sb, extent, s.count,
              [op, word, out, src, &s](long long so, long long d,
                                       long long n) {
                combine_bytes(op, word, out + s.obj_offset + so,
                              src + s.packed_offset + d,
                              static_cast<std::size_t>(n));
              });
        }
      });
}

vcuda::Error launch_pack(const StridedBlock &sb, long long extent, void *dst,
                         const void *src, int count,
                         vcuda::StreamHandle stream) {
  return launch_pack(make_pack_plan(sb, extent), sb, extent, dst, src, count,
                     stream);
}

vcuda::Error launch_unpack(const StridedBlock &sb, long long extent,
                           void *dst, const void *src, int count,
                           vcuda::StreamHandle stream) {
  return launch_unpack(make_pack_plan(sb, extent), sb, extent, dst, src,
                       count, stream);
}

} // namespace tempi
