// Pointer registry for the virtual CUDA runtime.
//
// All three memory spaces are backed by ordinary host allocations; the
// registry records which *virtual* space each allocation belongs to so that
// (a) cudaPointerGetAttributes-style queries work (TEMPI checks whether user
// buffers are GPU-resident on every Send/Pack), and (b) the cost model can
// price accesses by space. Lookups accept interior pointers.
#pragma once

#include "vcuda/costmodel.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>

namespace vcuda {

/// One registered allocation.
struct Allocation {
  std::uintptr_t base = 0;
  std::size_t size = 0;
  MemorySpace space = MemorySpace::Pageable;
  int device = -1; ///< owning device for Device space, else -1
};

/// Thread-safe interval map from pointer to allocation metadata. Lookups
/// that hit an allocation this thread found recently are answered from a
/// per-thread memo without touching the shared lock, so steady-state
/// queries on concurrent threads do not contend; any insert or erase
/// invalidates every thread's memo.
class MemoryRegistry {
public:
  MemoryRegistry();

  void insert(const Allocation &a);

  /// Remove the allocation based at exactly `base`; returns it if present.
  std::optional<Allocation> erase(std::uintptr_t base);

  /// Find the allocation containing `p` (interior pointers OK).
  [[nodiscard]] std::optional<Allocation> find(const void *p) const;

  /// Space of `p`; unregistered pointers are Pageable host memory.
  [[nodiscard]] MemorySpace space_of(const void *p) const;

  [[nodiscard]] std::size_t count() const;

  /// Total registered bytes in `space`.
  [[nodiscard]] std::size_t bytes_in(MemorySpace space) const;

private:
  mutable std::shared_mutex mutex_;
  /// Process-unique stamp of the current contents, replaced on every
  /// insert/erase; the per-thread lookup memo is valid only while it holds.
  std::atomic<std::uint64_t> generation_;
  std::map<std::uintptr_t, Allocation> by_base_;
};

/// The process-wide registry used by the vcuda API.
MemoryRegistry &memory_registry();

} // namespace vcuda
