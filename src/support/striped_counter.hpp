// A relaxed event counter split into cache-line-sized stripes. Each
// thread adds to the stripe it was assigned (round-robin) on its first
// increment, so threads bumping the same counter, or counters that would
// otherwise share a cache line, stop bouncing that line between cores;
// value() sums the stripes. Like a single relaxed atomic, it orders
// nothing, and value()/reset() are not atomic with respect to concurrent
// adds.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace support {

class StripedCounter {
public:
  StripedCounter() = default;
  StripedCounter(const StripedCounter &) = delete;
  StripedCounter &operator=(const StripedCounter &) = delete;

  void add(std::uint64_t n = 1) {
    stripes_[this_thread_stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe &s : stripes_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (Stripe &s : stripes_) {
      s.v.store(0, std::memory_order_relaxed);
    }
  }

private:
  static constexpr std::size_t kStripes = 8;
  static constexpr std::size_t kLineBytes = 64;

  struct alignas(kLineBytes) Stripe {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t this_thread_stripe() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  std::array<Stripe, kStripes> stripes_{};
};

} // namespace support
