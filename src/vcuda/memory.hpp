// Pointer registry for the virtual CUDA runtime.
//
// All three memory spaces are backed by ordinary host allocations; the
// registry records which *virtual* space each allocation belongs to so that
// (a) cudaPointerGetAttributes-style queries work (TEMPI checks whether user
// buffers are GPU-resident at every Send/Pack gate), (b) the cost model can
// price accesses by space, and (c) residency caches above vcuda learn of
// every allocation event through generation(). Lookups accept interior
// pointers.
#pragma once

#include "vcuda/costmodel.hpp"

#include <array>
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

/// A thread's memo of the last N registered allocations it found, valid
/// while a registry's generation() still reads the value the memo was
/// filled under. Only registered allocations are stored: an address
/// outside every allocation has no range to remember.
template <std::size_t N> class AllocationMemo {
public:
  /// The remembered allocation containing `addr`, if the memo was filled
  /// under `generation`; a memo filled under another generation is emptied
  /// and retagged, and finds nothing.
  const Allocation *find(std::uint64_t generation, std::uintptr_t addr) {
    if (generation_ != generation) {
      *this = AllocationMemo{};
      generation_ = generation;
      return nullptr;
    }
    for (const Allocation &a : hits_) {
      if (addr - a.base < a.size) {
        return &a;
      }
    }
    return nullptr;
  }

  /// Remember `a`, replacing the oldest entry.
  void remember(const Allocation &a) {
    hits_[next_] = a;
    next_ = (next_ + 1) % N;
  }

private:
  std::uint64_t generation_ = 0; ///< 0: never filled (no stamp reads 0)
  std::array<Allocation, N> hits_{}; ///< size 0: empty slot
  std::size_t next_ = 0;
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

  /// The allocation-event stamp: a process-unique value replaced on every
  /// insert and erase, so on every Malloc, MallocHost, Free, FreeHost,
  /// HostRegister and HostUnregister of any thread. A cache of pointer
  /// residency is valid while the stamp it was filled under still reads
  /// here (one acquire load) — the role the CUDA allocation hooks of a
  /// real interposer play. A stamp is never 0.
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

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
