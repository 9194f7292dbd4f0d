#include "sysmpi/types.hpp"

#include "support/log.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace sysmpi {

namespace {

struct NamedInfo {
  Named id;
  long long size;
};

constexpr std::array<NamedInfo, static_cast<std::size_t>(Named::Count_)>
    kNamedInfo = {{
        {Named::Byte, 1},
        {Named::Char, 1},
        {Named::SignedChar, 1},
        {Named::UnsignedChar, 1},
        {Named::Short, 2},
        {Named::UnsignedShort, 2},
        {Named::Int, 4},
        {Named::Unsigned, 4},
        {Named::Long, 8},
        {Named::UnsignedLong, 8},
        {Named::LongLong, 8},
        {Named::UnsignedLongLong, 8},
        {Named::Float, 4},
        {Named::Double, 8},
    }};

void init_named_datatype(Datatype &t, Named n) {
  t.combiner = MPI_COMBINER_NAMED;
  t.named = n;
  t.size = kNamedInfo[static_cast<std::size_t>(n)].size;
  t.lb = 0;
  t.extent = t.size;
  t.committed = true;
  t.set_flat(BlockList{{Block{0, t.size}}});
}

MPI_Datatype new_type() { return new Datatype(); }

void retain_children(Datatype &t) {
  for (MPI_Datatype c : t.subtypes) {
    type_retain(c);
  }
}

} // namespace

namespace {
struct NamedTable {
  std::array<Datatype, static_cast<std::size_t>(Named::Count_)> types;
  NamedTable() {
    for (std::size_t i = 0; i < types.size(); ++i) {
      init_named_datatype(types[i], static_cast<Named>(i));
    }
  }
};
} // namespace

MPI_Datatype named_type(Named n) {
  static NamedTable table;
  return &table.types[static_cast<std::size_t>(n)];
}

MPI_Op op_handle(OpKind k) {
  static std::array<Op, 8> ops = {{{OpKind::Sum},
                                   {OpKind::Max},
                                   {OpKind::Min},
                                   {OpKind::Prod},
                                   {OpKind::Lor},
                                   {OpKind::Land},
                                   {OpKind::Bor},
                                   {OpKind::Band}}};
  return &ops[static_cast<std::size_t>(k)];
}

void type_retain(MPI_Datatype t) {
  if (t != nullptr && t->combiner != MPI_COMBINER_NAMED) {
    t->refcount.fetch_add(1, std::memory_order_relaxed);
  }
}

void type_release(MPI_Datatype t) {
  if (t == nullptr || t->combiner == MPI_COMBINER_NAMED) {
    return;
  }
  if (t->refcount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (MPI_Datatype c : t->subtypes) {
      type_release(c);
    }
    delete t;
  }
}

MPI_Datatype make_contiguous(int count, MPI_Datatype oldtype) {
  assert(count >= 0 && oldtype != nullptr);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_CONTIGUOUS;
  t->ints = {count};
  t->subtypes = {oldtype};
  retain_children(*t);
  t->size = static_cast<long long>(count) * oldtype->size;
  t->lb = oldtype->lb;
  t->extent = static_cast<long long>(count) * oldtype->extent;
  return t;
}

namespace {

/// lb/extent of `count` blocks of `block` bytes whose starts step by
/// `step` (possibly negative) from `base_lb`. Block starts are linear in
/// the block index, so the first and the last block bound the span: this
/// is the per-block min/max walk in closed form, O(1) for any count.
void set_block_span(Datatype &t, long long base_lb, int count, long long step,
                    long long block) {
  const long long last_begin = static_cast<long long>(count - 1) * step;
  const long long first = std::min(0LL, last_begin);
  const long long last = std::max(0LL, std::max(0LL, last_begin) + block);
  t.lb = base_lb + first;
  t.extent = last - first;
}

} // namespace

MPI_Datatype make_vector(int count, int blocklength, int stride,
                         MPI_Datatype oldtype) {
  assert(count >= 0 && blocklength >= 0 && oldtype != nullptr);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_VECTOR;
  t->ints = {count, blocklength, stride};
  t->subtypes = {oldtype};
  retain_children(*t);
  t->size = static_cast<long long>(count) * blocklength * oldtype->size;
  t->lb = oldtype->lb;
  if (count == 0 || blocklength == 0) {
    t->extent = 0;
  } else {
    // Span from first block start to last block end; stride may be negative.
    const long long step = static_cast<long long>(stride) * oldtype->extent;
    const long long block = static_cast<long long>(blocklength) * oldtype->extent;
    set_block_span(*t, oldtype->lb, count, step, block);
  }
  return t;
}

MPI_Datatype make_hvector(int count, int blocklength, MPI_Aint stride_bytes,
                          MPI_Datatype oldtype) {
  assert(count >= 0 && blocklength >= 0 && oldtype != nullptr);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_HVECTOR;
  t->ints = {count, blocklength};
  t->aints = {stride_bytes};
  t->subtypes = {oldtype};
  retain_children(*t);
  t->size = static_cast<long long>(count) * blocklength * oldtype->size;
  t->lb = oldtype->lb;
  if (count == 0 || blocklength == 0) {
    t->extent = 0;
  } else {
    const long long block = static_cast<long long>(blocklength) * oldtype->extent;
    set_block_span(*t, oldtype->lb, count, stride_bytes, block);
  }
  return t;
}

namespace {

MPI_Datatype make_indexed_like(int combiner, int count, const int *blocklens,
                               const long long *displs_in_elems,
                               const MPI_Aint *displs_in_bytes,
                               MPI_Datatype oldtype) {
  MPI_Datatype t = new_type();
  t->combiner = combiner;
  t->subtypes = {oldtype};
  retain_children(*t);
  long long size = 0;
  long long first = 0, last = 0;
  bool any = false;
  for (int i = 0; i < count; ++i) {
    const long long bl = blocklens[i];
    size += bl * oldtype->size;
    if (bl == 0) {
      continue;
    }
    const long long begin = displs_in_elems != nullptr
                                ? displs_in_elems[i] * oldtype->extent
                                : displs_in_bytes[i];
    const long long end = begin + bl * oldtype->extent;
    if (!any) {
      first = begin;
      last = end;
      any = true;
    } else {
      first = std::min(first, begin);
      last = std::max(last, end);
    }
  }
  t->size = size;
  t->lb = oldtype->lb + (any ? first : 0);
  t->extent = any ? last - first : 0;
  return t;
}

} // namespace

MPI_Datatype make_indexed(int count, const int *blocklengths,
                          const int *displacements, MPI_Datatype oldtype) {
  assert(count >= 0 && oldtype != nullptr);
  std::vector<long long> displs(displacements, displacements + count);
  MPI_Datatype t = make_indexed_like(MPI_COMBINER_INDEXED, count, blocklengths,
                                     displs.data(), nullptr, oldtype);
  t->ints.reserve(1 + 2 * count);
  t->ints.push_back(count);
  t->ints.insert(t->ints.end(), blocklengths, blocklengths + count);
  t->ints.insert(t->ints.end(), displacements, displacements + count);
  return t;
}

MPI_Datatype make_hindexed(int count, const int *blocklengths,
                           const MPI_Aint *displacements,
                           MPI_Datatype oldtype) {
  assert(count >= 0 && oldtype != nullptr);
  MPI_Datatype t = make_indexed_like(MPI_COMBINER_HINDEXED, count,
                                     blocklengths, nullptr, displacements,
                                     oldtype);
  t->ints.reserve(1 + count);
  t->ints.push_back(count);
  t->ints.insert(t->ints.end(), blocklengths, blocklengths + count);
  t->aints.assign(displacements, displacements + count);
  return t;
}

MPI_Datatype make_indexed_block(int count, int blocklength,
                                const int *displacements,
                                MPI_Datatype oldtype) {
  assert(count >= 0 && oldtype != nullptr);
  std::vector<int> blocklens(static_cast<std::size_t>(std::max(count, 0)),
                             blocklength);
  std::vector<long long> displs(displacements, displacements + count);
  MPI_Datatype t = make_indexed_like(MPI_COMBINER_INDEXED_BLOCK, count,
                                     blocklens.data(), displs.data(), nullptr,
                                     oldtype);
  t->ints.reserve(2 + count);
  t->ints.push_back(count);
  t->ints.push_back(blocklength);
  t->ints.insert(t->ints.end(), displacements, displacements + count);
  return t;
}

MPI_Datatype make_subarray(int ndims, const int *sizes, const int *subsizes,
                           const int *starts, int order,
                           MPI_Datatype oldtype) {
  assert(ndims >= 1 && oldtype != nullptr);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_SUBARRAY;
  t->ints.reserve(2 + 3 * ndims);
  t->ints.push_back(ndims);
  t->ints.insert(t->ints.end(), sizes, sizes + ndims);
  t->ints.insert(t->ints.end(), subsizes, subsizes + ndims);
  t->ints.insert(t->ints.end(), starts, starts + ndims);
  t->ints.push_back(order);
  t->subtypes = {oldtype};
  retain_children(*t);
  long long nsub = 1, nfull = 1;
  for (int d = 0; d < ndims; ++d) {
    nsub *= subsizes[d];
    nfull *= sizes[d];
  }
  t->size = nsub * oldtype->size;
  t->lb = 0; // MPI defines subarray lb = 0, extent = whole array
  t->extent = nfull * oldtype->extent;
  return t;
}

MPI_Datatype make_struct(int count, const int *blocklengths,
                         const MPI_Aint *displacements,
                         const MPI_Datatype *types) {
  assert(count >= 0);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_STRUCT;
  t->ints.reserve(1 + count);
  t->ints.push_back(count);
  t->ints.insert(t->ints.end(), blocklengths, blocklengths + count);
  t->aints.assign(displacements, displacements + count);
  t->subtypes.assign(types, types + count);
  retain_children(*t);
  long long size = 0;
  long long first = 0, last = 0;
  bool any = false;
  for (int i = 0; i < count; ++i) {
    const long long bl = blocklengths[i];
    size += bl * types[i]->size;
    if (bl == 0) {
      continue;
    }
    const long long begin = displacements[i] + types[i]->lb;
    const long long end = displacements[i] + bl * types[i]->extent;
    if (!any) {
      first = begin;
      last = end;
      any = true;
    } else {
      first = std::min(first, begin);
      last = std::max(last, end);
    }
  }
  t->size = size;
  t->lb = any ? first : 0;
  t->extent = any ? last - first : 0;
  return t;
}

MPI_Datatype make_resized(MPI_Datatype oldtype, MPI_Aint lb, MPI_Aint extent) {
  assert(oldtype != nullptr);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_RESIZED;
  t->aints = {lb, extent};
  t->subtypes = {oldtype};
  retain_children(*t);
  t->size = oldtype->size;
  t->lb = lb;
  t->extent = extent;
  return t;
}

MPI_Datatype make_dup(MPI_Datatype oldtype) {
  assert(oldtype != nullptr);
  MPI_Datatype t = new_type();
  t->combiner = MPI_COMBINER_DUP;
  t->subtypes = {oldtype};
  retain_children(*t);
  t->size = oldtype->size;
  t->lb = oldtype->lb;
  t->extent = oldtype->extent;
  t->committed = oldtype->committed;
  return t;
}

void for_each_block(const Datatype &t, long long base, const BlockFn &fn) {
  switch (t.combiner) {
  case MPI_COMBINER_NAMED:
    fn(base, t.size);
    return;
  case MPI_COMBINER_DUP:
  case MPI_COMBINER_RESIZED:
    for_each_block(*t.subtypes[0], base, fn);
    return;
  case MPI_COMBINER_CONTIGUOUS: {
    const Datatype &old = *t.subtypes[0];
    const int count = t.ints[0];
    for (int i = 0; i < count; ++i) {
      for_each_block(old, base + static_cast<long long>(i) * old.extent, fn);
    }
    return;
  }
  case MPI_COMBINER_VECTOR: {
    const Datatype &old = *t.subtypes[0];
    const int count = t.ints[0], blocklen = t.ints[1], stride = t.ints[2];
    const long long step = static_cast<long long>(stride) * old.extent;
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < blocklen; ++j) {
        for_each_block(old,
                       base + static_cast<long long>(i) * step +
                           static_cast<long long>(j) * old.extent,
                       fn);
      }
    }
    return;
  }
  case MPI_COMBINER_HVECTOR: {
    const Datatype &old = *t.subtypes[0];
    const int count = t.ints[0], blocklen = t.ints[1];
    const long long step = t.aints[0];
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < blocklen; ++j) {
        for_each_block(old,
                       base + static_cast<long long>(i) * step +
                           static_cast<long long>(j) * old.extent,
                       fn);
      }
    }
    return;
  }
  case MPI_COMBINER_INDEXED: {
    const Datatype &old = *t.subtypes[0];
    const int count = t.ints[0];
    const int *bl = t.ints.data() + 1;
    const int *displ = t.ints.data() + 1 + count;
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < bl[i]; ++j) {
        for_each_block(old,
                       base + (static_cast<long long>(displ[i]) + j) *
                                  old.extent,
                       fn);
      }
    }
    return;
  }
  case MPI_COMBINER_HINDEXED: {
    const Datatype &old = *t.subtypes[0];
    const int count = t.ints[0];
    const int *bl = t.ints.data() + 1;
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < bl[i]; ++j) {
        for_each_block(old,
                       base + t.aints[i] +
                           static_cast<long long>(j) * old.extent,
                       fn);
      }
    }
    return;
  }
  case MPI_COMBINER_INDEXED_BLOCK: {
    const Datatype &old = *t.subtypes[0];
    const int count = t.ints[0], blocklen = t.ints[1];
    const int *displ = t.ints.data() + 2;
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < blocklen; ++j) {
        for_each_block(old,
                       base + (static_cast<long long>(displ[i]) + j) *
                                  old.extent,
                       fn);
      }
    }
    return;
  }
  case MPI_COMBINER_SUBARRAY: {
    const Datatype &old = *t.subtypes[0];
    const int ndims = t.ints[0];
    const int *sizes = t.ints.data() + 1;
    const int *subsizes = t.ints.data() + 1 + ndims;
    const int *starts = t.ints.data() + 1 + 2 * ndims;
    const int order = t.ints[1 + 3 * ndims];
    // Per-dimension byte strides of the full array.
    std::vector<long long> stride(static_cast<std::size_t>(ndims));
    if (order == MPI_ORDER_C) {
      // C order: dimension ndims-1 varies fastest.
      long long s = old.extent;
      for (int d = ndims - 1; d >= 0; --d) {
        stride[static_cast<std::size_t>(d)] = s;
        s *= sizes[d];
      }
    } else {
      // Fortran order: dimension 0 varies fastest.
      long long s = old.extent;
      for (int d = 0; d < ndims; ++d) {
        stride[static_cast<std::size_t>(d)] = s;
        s *= sizes[d];
      }
    }
    // Iterate index tuples with the fastest dimension innermost.
    std::vector<int> idx(static_cast<std::size_t>(ndims), 0);
    const auto fastest = order == MPI_ORDER_C ? ndims - 1 : 0;
    bool done = false;
    // Guard against empty subarrays.
    for (int d = 0; d < ndims; ++d) {
      if (subsizes[d] == 0) {
        done = true;
      }
    }
    while (!done) {
      long long off = 0;
      for (int d = 0; d < ndims; ++d) {
        off += (static_cast<long long>(starts[d]) + idx[static_cast<std::size_t>(d)]) *
               stride[static_cast<std::size_t>(d)];
      }
      for_each_block(old, base + off, fn);
      // Increment the tuple, fastest dimension first.
      int d = fastest;
      while (true) {
        ++idx[static_cast<std::size_t>(d)];
        if (idx[static_cast<std::size_t>(d)] < subsizes[d]) {
          break;
        }
        idx[static_cast<std::size_t>(d)] = 0;
        d = order == MPI_ORDER_C ? d - 1 : d + 1;
        if (d < 0 || d >= ndims) {
          done = true;
          break;
        }
      }
    }
    return;
  }
  case MPI_COMBINER_STRUCT: {
    const int count = t.ints[0];
    const int *bl = t.ints.data() + 1;
    for (int i = 0; i < count; ++i) {
      const Datatype &old = *t.subtypes[static_cast<std::size_t>(i)];
      for (int j = 0; j < bl[i]; ++j) {
        for_each_block(old,
                       base + t.aints[i] +
                           static_cast<long long>(j) * old.extent,
                       fn);
      }
    }
    return;
  }
  default:
    assert(false && "unknown combiner");
  }
}

namespace {

/// Commit-time validation: walk the constructor tree (not the typemap) and
/// recompute the data size from the recorded arguments; a mismatch means a
/// corrupted handle. O(constructor nodes), independent of element count.
long long recompute_size(const Datatype &t) {
  switch (t.combiner) {
  case MPI_COMBINER_NAMED:
    return t.size;
  case MPI_COMBINER_DUP:
  case MPI_COMBINER_RESIZED:
    return recompute_size(*t.subtypes[0]);
  case MPI_COMBINER_CONTIGUOUS:
    return t.ints[0] * recompute_size(*t.subtypes[0]);
  case MPI_COMBINER_VECTOR:
  case MPI_COMBINER_HVECTOR:
    return static_cast<long long>(t.ints[0]) * t.ints[1] *
           recompute_size(*t.subtypes[0]);
  case MPI_COMBINER_INDEXED:
  case MPI_COMBINER_HINDEXED: {
    long long blocks = 0;
    for (int i = 0; i < t.ints[0]; ++i) {
      blocks += t.ints[1 + i];
    }
    return blocks * recompute_size(*t.subtypes[0]);
  }
  case MPI_COMBINER_INDEXED_BLOCK:
    return static_cast<long long>(t.ints[0]) * t.ints[1] *
           recompute_size(*t.subtypes[0]);
  case MPI_COMBINER_SUBARRAY: {
    const int ndims = t.ints[0];
    long long n = 1;
    for (int d = 0; d < ndims; ++d) {
      n *= t.ints[1 + ndims + d]; // subsizes
    }
    return n * recompute_size(*t.subtypes[0]);
  }
  case MPI_COMBINER_STRUCT: {
    long long total = 0;
    for (int i = 0; i < t.ints[0]; ++i) {
      total += static_cast<long long>(t.ints[1 + i]) *
               recompute_size(*t.subtypes[static_cast<std::size_t>(i)]);
    }
    return total;
  }
  default:
    return -1;
  }
}

} // namespace

void commit(MPI_Datatype t) {
  assert(t != nullptr);
  if (t->committed) {
    return;
  }
  // Commit-time work, as the MPI standard suggests: validate the handle by
  // recomputing its size from the constructor record. The flattened form
  // materializes lazily at first data movement.
  if (recompute_size(*t) != t->size) {
    support::log_error("sysmpi: inconsistent datatype constructor record");
    return;
  }
  t->committed = true;
}

const BlockList &Datatype::flat_list() const {
  if (!flat_built_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(flat_mutex_);
    if (!flat_built_.load(std::memory_order_relaxed)) {
      BlockList list;
      for_each_block(*this, 0, [&list](long long off, long long len) {
        if (len == 0) {
          return;
        }
        if (!list.blocks.empty() &&
            list.blocks.back().offset + list.blocks.back().length == off) {
          list.blocks.back().length += len; // merge traversal-adjacent runs
        } else {
          list.blocks.push_back(Block{off, len});
        }
      });
      flat_ = std::move(list);
      flat_built_.store(true, std::memory_order_release);
    }
  }
  return flat_;
}

std::size_t block_count(const Datatype &t) {
  assert(t.committed);
  return t.flat_list().blocks.size();
}

} // namespace sysmpi
