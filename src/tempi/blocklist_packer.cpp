#include "tempi/blocklist_packer.hpp"

#include "support/log.hpp"

#include <bit>
#include <cstring>

namespace tempi {

namespace {

using Blocks = std::vector<std::pair<long long, long long>>;

struct Envelope {
  int combiner = 0;
  std::vector<int> ints;
  std::vector<MPI_Aint> aints;
  std::vector<MPI_Datatype> types;
  const interpose::MpiTable *sys = nullptr;
  ~Envelope() {
    for (MPI_Datatype t : types) {
      sys->Type_free(&t);
    }
  }
};

bool query(MPI_Datatype dt, const interpose::MpiTable &sys, Envelope &env) {
  env.sys = &sys;
  int ni = 0, na = 0, nd = 0;
  if (sys.Type_get_envelope(dt, &ni, &na, &nd, &env.combiner) !=
      MPI_SUCCESS) {
    return false;
  }
  if (env.combiner == MPI_COMBINER_NAMED) {
    return true;
  }
  env.ints.resize(static_cast<std::size_t>(ni));
  env.aints.resize(static_cast<std::size_t>(na));
  env.types.resize(static_cast<std::size_t>(nd));
  return sys.Type_get_contents(dt, ni, na, nd, env.ints.data(),
                               env.aints.data(), env.types.data()) ==
         MPI_SUCCESS;
}

MPI_Aint extent_of(MPI_Datatype dt, const interpose::MpiTable &sys) {
  MPI_Aint lb = 0, extent = 0;
  sys.Type_get_extent(dt, &lb, &extent);
  return extent;
}

void emit(Blocks &out, long long off, long long len) {
  if (len == 0) {
    return;
  }
  if (!out.empty() && out.back().first + out.back().second == off) {
    out.back().second += len; // merge adjacent runs
  } else {
    out.emplace_back(off, len);
  }
}

bool flatten_rec(MPI_Datatype dt, const interpose::MpiTable &sys,
                 long long base, Blocks &out) {
  Envelope env;
  if (!query(dt, sys, env)) {
    return false;
  }
  switch (env.combiner) {
  case MPI_COMBINER_NAMED: {
    int size = 0;
    sys.Type_size(dt, &size);
    emit(out, base, size);
    return true;
  }
  case MPI_COMBINER_DUP:
  case MPI_COMBINER_RESIZED:
    return flatten_rec(env.types[0], sys, base, out);
  case MPI_COMBINER_CONTIGUOUS: {
    const long long ext = extent_of(env.types[0], sys);
    for (int i = 0; i < env.ints[0]; ++i) {
      if (!flatten_rec(env.types[0], sys, base + i * ext, out)) {
        return false;
      }
    }
    return true;
  }
  case MPI_COMBINER_VECTOR:
  case MPI_COMBINER_HVECTOR: {
    const long long ext = extent_of(env.types[0], sys);
    const int count = env.ints[0];
    const int blocklen = env.ints[1];
    const long long step = env.combiner == MPI_COMBINER_VECTOR
                               ? static_cast<long long>(env.ints[2]) * ext
                               : env.aints[0];
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < blocklen; ++j) {
        if (!flatten_rec(env.types[0], sys, base + i * step + j * ext,
                         out)) {
          return false;
        }
      }
    }
    return true;
  }
  case MPI_COMBINER_INDEXED:
  case MPI_COMBINER_INDEXED_BLOCK:
  case MPI_COMBINER_HINDEXED: {
    const long long ext = extent_of(env.types[0], sys);
    const int count = env.ints[0];
    for (int i = 0; i < count; ++i) {
      long long displ = 0;
      int blocklen = 0;
      if (env.combiner == MPI_COMBINER_INDEXED) {
        blocklen = env.ints[1 + i];
        displ = static_cast<long long>(env.ints[1 + count + i]) * ext;
      } else if (env.combiner == MPI_COMBINER_INDEXED_BLOCK) {
        blocklen = env.ints[1];
        displ = static_cast<long long>(env.ints[2 + i]) * ext;
      } else {
        blocklen = env.ints[1 + i];
        displ = env.aints[static_cast<std::size_t>(i)];
      }
      for (int j = 0; j < blocklen; ++j) {
        if (!flatten_rec(env.types[0], sys, base + displ + j * ext, out)) {
          return false;
        }
      }
    }
    return true;
  }
  case MPI_COMBINER_STRUCT: {
    const int count = env.ints[0];
    for (int i = 0; i < count; ++i) {
      MPI_Datatype sub = env.types[static_cast<std::size_t>(i)];
      const long long ext = extent_of(sub, sys);
      for (int j = 0; j < env.ints[1 + i]; ++j) {
        if (!flatten_rec(sub, sys,
                         base + env.aints[static_cast<std::size_t>(i)] +
                             j * ext,
                         out)) {
          return false;
        }
      }
    }
    return true;
  }
  case MPI_COMBINER_SUBARRAY: {
    const int ndims = env.ints[0];
    const int *sizes = env.ints.data() + 1;
    const int *subsizes = env.ints.data() + 1 + ndims;
    const int *starts = env.ints.data() + 1 + 2 * ndims;
    const int order = env.ints[1 + 3 * ndims];
    const long long ext = extent_of(env.types[0], sys);
    std::vector<long long> stride(static_cast<std::size_t>(ndims));
    if (order == MPI_ORDER_C) {
      long long s = ext;
      for (int d = ndims - 1; d >= 0; --d) {
        stride[static_cast<std::size_t>(d)] = s;
        s *= sizes[d];
      }
    } else {
      long long s = ext;
      for (int d = 0; d < ndims; ++d) {
        stride[static_cast<std::size_t>(d)] = s;
        s *= sizes[d];
      }
    }
    std::vector<int> idx(static_cast<std::size_t>(ndims), 0);
    for (int d = 0; d < ndims; ++d) {
      if (subsizes[d] == 0) {
        return true;
      }
    }
    const int fastest = order == MPI_ORDER_C ? ndims - 1 : 0;
    while (true) {
      long long off = base;
      for (int d = 0; d < ndims; ++d) {
        off += (starts[d] + idx[static_cast<std::size_t>(d)]) *
               stride[static_cast<std::size_t>(d)];
      }
      if (!flatten_rec(env.types[0], sys, off, out)) {
        return false;
      }
      int d = fastest;
      while (true) {
        if (++idx[static_cast<std::size_t>(d)] < subsizes[d]) {
          break;
        }
        idx[static_cast<std::size_t>(d)] = 0;
        d = order == MPI_ORDER_C ? d - 1 : d + 1;
        if (d < 0 || d >= ndims) {
          return true;
        }
      }
    }
  }
  default:
    support::log_debug("blocklist: unknown combiner ", env.combiner);
    return false;
  }
}

} // namespace

std::optional<Blocks> flatten_type(MPI_Datatype datatype,
                                   const interpose::MpiTable &sys) {
  if (datatype == nullptr) {
    return std::nullopt;
  }
  Blocks out;
  if (!flatten_rec(datatype, sys, 0, out)) {
    return std::nullopt;
  }
  return out;
}

std::unique_ptr<BlockListPacker>
BlockListPacker::create(MPI_Datatype datatype,
                        const interpose::MpiTable &sys) {
  auto blocks = flatten_type(datatype, sys);
  if (!blocks || blocks->empty()) {
    return nullptr;
  }
  std::unique_ptr<BlockListPacker> p(new BlockListPacker());
  long long size = 0;
  p->offsets_.reserve(blocks->size());
  p->lengths_.reserve(blocks->size());
  for (const auto &[off, len] : *blocks) {
    p->offsets_.push_back(off);
    p->lengths_.push_back(len);
    size += len;
  }
  p->size_ = size;
  MPI_Aint lb = 0, extent = 0;
  sys.Type_get_extent(datatype, &lb, &extent);
  p->extent_ = extent;
  p->avg_block_ = size / static_cast<long long>(blocks->size());

  // The metadata lives in device memory, where the kernel reads it — the
  // footprint the canonical representation is designed to avoid (Sec. 2).
  const std::size_t bytes = p->offsets_.size() * sizeof(long long);
  if (vcuda::Malloc(&p->dev_offsets_, bytes) != vcuda::Error::Success ||
      vcuda::Malloc(&p->dev_lengths_, bytes) != vcuda::Error::Success) {
    return nullptr;
  }
  vcuda::Memcpy(p->dev_offsets_, p->offsets_.data(), bytes,
                vcuda::MemcpyKind::HostToDevice);
  vcuda::Memcpy(p->dev_lengths_, p->lengths_.data(), bytes,
                vcuda::MemcpyKind::HostToDevice);
  return p;
}

BlockListPacker::~BlockListPacker() {
  vcuda::Free(dev_offsets_);
  vcuda::Free(dev_lengths_);
}

vcuda::KernelCost BlockListPacker::kernel_cost(int count, bool is_pack,
                                               const void *noncontig,
                                               const void *contig) const {
  vcuda::KernelCost cost;
  cost.total_bytes = packed_bytes(count);
  const vcuda::MemorySpace nspace =
      vcuda::memory_registry().space_of(noncontig);
  const vcuda::MemorySpace cspace = vcuda::memory_registry().space_of(contig);
  const vcuda::MemorySpace gov =
      (nspace == vcuda::MemorySpace::Pinned ||
       cspace == vcuda::MemorySpace::Pinned)
          ? vcuda::MemorySpace::Pinned
          : vcuda::MemorySpace::Device;
  // Irregular blocks: efficiency follows the average block length, and the
  // per-thread metadata lookups cost an extra indirection (modeled as a
  // mild penalty on the effective block size).
  const auto eff_block =
      static_cast<std::size_t>(std::max<long long>(avg_block_ * 3 / 4, 1));
  if (is_pack) {
    cost.src = {eff_block, false, gov};
    cost.dst = {0, true, gov};
  } else {
    cost.src = {0, false, gov};
    cost.dst = {eff_block, true, gov};
  }
  return cost;
}

vcuda::Error BlockListPacker::pack_async(void *dst, const void *src,
                                         int count,
                                         vcuda::StreamHandle stream) const {
  vcuda::LaunchConfig cfg;
  cfg.block = {256, 1, 1};
  cfg.grid = {static_cast<unsigned>(
                  std::min<std::size_t>(offsets_.size(), 65535)),
              1, static_cast<unsigned>(count)};
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  return vcuda::LaunchKernel(
      cfg, kernel_cost(count, true, src, dst), stream, [this, out, in,
                                                        count] {
        std::byte *cursor = out;
        for (int obj = 0; obj < count; ++obj) {
          const std::byte *elem = in + static_cast<long long>(obj) * extent_;
          for (std::size_t b = 0; b < offsets_.size(); ++b) {
            std::memcpy(cursor, elem + offsets_[b],
                        static_cast<std::size_t>(lengths_[b]));
            cursor += lengths_[b];
          }
        }
      });
}

vcuda::Error BlockListPacker::unpack_async(void *dst, const void *src,
                                           int count,
                                           vcuda::StreamHandle stream) const {
  vcuda::LaunchConfig cfg;
  cfg.block = {256, 1, 1};
  cfg.grid = {static_cast<unsigned>(
                  std::min<std::size_t>(offsets_.size(), 65535)),
              1, static_cast<unsigned>(count)};
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  return vcuda::LaunchKernel(
      cfg, kernel_cost(count, false, dst, src), stream, [this, out, in,
                                                         count] {
        const std::byte *cursor = in;
        for (int obj = 0; obj < count; ++obj) {
          std::byte *elem = out + static_cast<long long>(obj) * extent_;
          for (std::size_t b = 0; b < offsets_.size(); ++b) {
            std::memcpy(elem + offsets_[b], cursor,
                        static_cast<std::size_t>(lengths_[b]));
            cursor += lengths_[b];
          }
        }
      });
}

} // namespace tempi
