#include "vcuda/memory.hpp"

#include <cassert>
#include <iterator>
#include <mutex>

namespace vcuda {

namespace {

/// Generations are unique across registries, so a memo filled from one
/// registry can never validate against another.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The last few allocations this thread found, tagged with the generation
/// of the registry they came from.
thread_local AllocationMemo<8> t_memo;

bool contains(const Allocation &a, std::uintptr_t addr) {
  return addr >= a.base && addr < a.base + a.size;
}

} // namespace

MemoryRegistry::MemoryRegistry() : generation_(next_generation()) {}

void MemoryRegistry::insert(const Allocation &a) {
  assert(a.size > 0);
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  // A memo holds only registered ranges, so a range disjoint from every
  // registered one leaves each memo's answers true; one that replaces or
  // overlaps a registered range moves the stamp.
  const auto it = by_base_.lower_bound(a.base);
  const bool overlaps =
      (it != by_base_.end() && it->first < a.base + a.size) ||
      (it != by_base_.begin() && contains(std::prev(it)->second, a.base));
  by_base_[a.base] = a;
  if (overlaps) {
    generation_.store(next_generation(), std::memory_order_release);
  }
}

std::optional<Allocation> MemoryRegistry::erase(std::uintptr_t base) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto it = by_base_.find(base);
  if (it == by_base_.end()) {
    return std::nullopt;
  }
  Allocation a = it->second;
  by_base_.erase(it);
  generation_.store(next_generation(), std::memory_order_release);
  return a;
}

std::optional<Allocation> MemoryRegistry::find(const void *p) const {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  // Loaded before the locked lookup: a mutation racing with it leaves the
  // memo tagged with a stale generation, so the next call starts over.
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (const Allocation *hit = t_memo.find(generation, addr)) {
    return *hit;
  }
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) {
    return std::nullopt;
  }
  --it;
  const Allocation &a = it->second;
  if (!contains(a, addr)) {
    return std::nullopt;
  }
  t_memo.remember(a);
  return a;
}

MemorySpace MemoryRegistry::space_of(const void *p) const {
  const auto a = find(p);
  return a ? a->space : MemorySpace::Pageable;
}

std::size_t MemoryRegistry::count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return by_base_.size();
}

std::size_t MemoryRegistry::bytes_in(MemorySpace space) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto &[base, a] : by_base_) {
    if (a.space == space) {
      total += a.size;
    }
  }
  return total;
}

MemoryRegistry &memory_registry() {
  static MemoryRegistry registry;
  return registry;
}

} // namespace vcuda
