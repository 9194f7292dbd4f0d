// Shared helpers for the test suite: buffer fixtures in each virtual memory
// space, deterministic fill patterns, and a scalar reference packer used as
// the correctness oracle for every pack/unpack path.
#pragma once

#include "sysmpi/types.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace testing_helpers {

/// RAII buffer in a chosen virtual memory space.
class SpaceBuffer {
public:
  SpaceBuffer(vcuda::MemorySpace space, std::size_t bytes)
      : space_(space), bytes_(bytes) {
    switch (space) {
    case vcuda::MemorySpace::Device:
      vcuda::Malloc(&ptr_, bytes);
      break;
    case vcuda::MemorySpace::Pinned:
      vcuda::MallocHost(&ptr_, bytes);
      break;
    case vcuda::MemorySpace::Pageable:
      ptr_ = ::operator new(bytes);
      break;
    }
  }
  ~SpaceBuffer() {
    switch (space_) {
    case vcuda::MemorySpace::Device:
      vcuda::Free(ptr_);
      break;
    case vcuda::MemorySpace::Pinned:
      vcuda::FreeHost(ptr_);
      break;
    case vcuda::MemorySpace::Pageable:
      ::operator delete(ptr_);
      break;
    }
  }
  SpaceBuffer(const SpaceBuffer &) = delete;
  SpaceBuffer &operator=(const SpaceBuffer &) = delete;

  [[nodiscard]] void *get() const { return ptr_; }
  [[nodiscard]] std::byte *bytes() const {
    return static_cast<std::byte *>(ptr_);
  }
  [[nodiscard]] std::size_t size() const { return bytes_; }

private:
  vcuda::MemorySpace space_;
  std::size_t bytes_ = 0;
  void *ptr_ = nullptr;
};

/// Deterministic, position-dependent fill so any misplaced byte is caught.
inline void fill_pattern(void *p, std::size_t n, std::uint32_t seed = 1) {
  auto *b = static_cast<unsigned char *>(p);
  std::uint32_t x = seed * 2654435761u + 12345u;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<unsigned char>(x >> 24);
  }
}

/// Scalar reference pack: walk the datatype's canonical traversal order
/// with plain byte copies. The oracle against which both the baseline
/// engine and TEMPI's kernels are checked.
inline std::vector<std::byte> reference_pack(const void *src, int count,
                                             const sysmpi::Datatype &dt) {
  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(dt.size) * count);
  const auto *base = static_cast<const std::byte *>(src);
  for (int i = 0; i < count; ++i) {
    const std::byte *elem = base + static_cast<long long>(i) * dt.extent;
    sysmpi::for_each_block(dt, 0, [&](long long off, long long len) {
      const std::byte *p = elem + off;
      out.insert(out.end(), p, p + len);
    });
  }
  return out;
}

/// Scalar reference unpack (inverse of reference_pack).
inline void reference_unpack(void *dst, int count, const sysmpi::Datatype &dt,
                             const std::vector<std::byte> &packed) {
  auto *base = static_cast<std::byte *>(dst);
  std::size_t pos = 0;
  for (int i = 0; i < count; ++i) {
    std::byte *elem = base + static_cast<long long>(i) * dt.extent;
    sysmpi::for_each_block(dt, 0, [&](long long off, long long len) {
      std::memcpy(elem + off, packed.data() + pos,
                  static_cast<std::size_t>(len));
      pos += static_cast<std::size_t>(len);
    });
  }
}

/// Value of the registered trace counter or gauge `name`. Unlike
/// trace::counter_value, which reads an unknown name as 0, this fails the
/// calling test when `name` is not in the registry, so a mistyped name
/// cannot make an expected-zero assertion pass.
inline std::uint64_t counter(std::string_view name) {
  for (const auto &[registered, value] : tempi::trace::counter_snapshot()) {
    if (registered == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no counter or gauge named " << name << " is registered";
  return 0;
}

} // namespace testing_helpers
