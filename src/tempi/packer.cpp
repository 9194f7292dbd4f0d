#include "tempi/packer.hpp"

#include <cassert>

namespace tempi {

vcuda::Error Packer::pack(void *dst, const void *src, int count,
                          vcuda::StreamHandle stream) const {
  const vcuda::Error e = pack_async(dst, src, count, stream);
  if (e != vcuda::Error::Success) {
    return e;
  }
  return vcuda::StreamSynchronize(stream);
}

vcuda::Error Packer::unpack(void *dst, const void *src, int count,
                            vcuda::StreamHandle stream) const {
  const vcuda::Error e = unpack_async(dst, src, count, stream);
  if (e != vcuda::Error::Success) {
    return e;
  }
  return vcuda::StreamSynchronize(stream);
}

vcuda::Error Packer::pack_async(void *dst, const void *src, int count,
                                vcuda::StreamHandle stream) const {
  if (blocklist_) {
    return blocklist_->pack_async(dst, src, count, stream);
  }
  return launch_pack(plan_, sb_, extent_, dst, src, count, stream);
}

vcuda::Error Packer::unpack_async(void *dst, const void *src, int count,
                                  vcuda::StreamHandle stream) const {
  if (blocklist_) {
    return blocklist_->unpack_async(dst, src, count, stream);
  }
  return launch_unpack(plan_, sb_, extent_, dst, src, count, stream);
}

vcuda::Error Packer::pack_range_async(void *dst, const void *src,
                                      long long first_block,
                                      long long n_blocks,
                                      vcuda::StreamHandle stream) const {
  assert(strided());
  return launch_pack_range(plan_, sb_, extent_, dst, src, first_block,
                           n_blocks, stream);
}

vcuda::Error Packer::unpack_range_async(void *dst, const void *src,
                                        long long first_block,
                                        long long n_blocks,
                                        vcuda::StreamHandle stream) const {
  assert(strided());
  return launch_unpack_range(plan_, sb_, extent_, dst, src, first_block,
                             n_blocks, stream);
}

vcuda::Error Packer::pack_spans_async(void *dst, const void *src,
                                      std::span<const PackSpan> spans,
                                      vcuda::StreamHandle stream) const {
  assert(strided());
  return launch_pack_spans(plan_, sb_, extent_, dst, src, spans, stream);
}

vcuda::Error Packer::unpack_spans_async(void *dst, const void *src,
                                        std::span<const PackSpan> spans,
                                        vcuda::StreamHandle stream) const {
  assert(strided());
  return launch_unpack_spans(plan_, sb_, extent_, dst, src, spans, stream);
}

vcuda::Error Packer::pack_dma(void *dst, const void *src, int count,
                              vcuda::StreamHandle stream) const {
  assert(dma_capable());
  const std::size_t width = plan_.dma_width;
  const std::size_t rows = plan_.dma_rows;
  const std::size_t spitch = plan_.dma_pitch;
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src) + sb_.start;
  if (plan_.dma_uniform && count > 0) {
    // Uniform object stride: the row grid continues across objects, so the
    // whole batch is one tall 2-D copy (one descriptor batch, one
    // copy-engine latency) instead of `count` of them.
    const vcuda::Error e = vcuda::Memcpy2DAsync(
        out, width, in, spitch, width, rows * static_cast<std::size_t>(count),
        vcuda::MemcpyKind::Default, stream);
    if (e != vcuda::Error::Success) {
      return e;
    }
    return vcuda::StreamSynchronize(stream);
  }
  for (int i = 0; i < count; ++i) {
    const vcuda::Error e = vcuda::Memcpy2DAsync(
        out + static_cast<long long>(i) * size_, width, in + i * extent_,
        spitch, width, rows, vcuda::MemcpyKind::Default, stream);
    if (e != vcuda::Error::Success) {
      return e;
    }
  }
  return vcuda::StreamSynchronize(stream);
}

vcuda::Error Packer::unpack_dma(void *dst, const void *src, int count,
                                vcuda::StreamHandle stream) const {
  assert(dma_capable());
  const std::size_t width = plan_.dma_width;
  const std::size_t rows = plan_.dma_rows;
  const std::size_t dpitch = plan_.dma_pitch;
  auto *out = static_cast<std::byte *>(dst) + sb_.start;
  const auto *in = static_cast<const std::byte *>(src);
  if (plan_.dma_uniform && count > 0) {
    const vcuda::Error e = vcuda::Memcpy2DAsync(
        out, dpitch, in, width, width, rows * static_cast<std::size_t>(count),
        vcuda::MemcpyKind::Default, stream);
    if (e != vcuda::Error::Success) {
      return e;
    }
    return vcuda::StreamSynchronize(stream);
  }
  for (int i = 0; i < count; ++i) {
    const vcuda::Error e = vcuda::Memcpy2DAsync(
        out + i * extent_, dpitch, in + static_cast<long long>(i) * size_,
        width, width, rows, vcuda::MemcpyKind::Default, stream);
    if (e != vcuda::Error::Success) {
      return e;
    }
  }
  return vcuda::StreamSynchronize(stream);
}

} // namespace tempi
