// Per-layer metrics of a traced run, and the reference measurements the
// traced run takes after its loop.
#pragma once

#include "probe.hpp"
#include "ranks.hpp"

#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bm {

/// Registry counters and gauges plus the vcuda counters, at one instant.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> registry;
  vcuda::Counters device{};
};
CounterSnapshot snapshot_counters();

struct TracedRun {
  std::vector<ThreadSpans> threads; ///< every run's spans
  int run = 0;                      ///< the run that holds the traced loop
  std::uint64_t ops = 0;            ///< ops in the traced loop
  CounterSnapshot before, after;    ///< around the traced loop
  CounterSnapshot tuner_before;     ///< at the start of the untraced loop
  tempi::trace::Snapshot tempi;     ///< TEMPI's own tracer, traced loop
  double host_cpu_ns_per_op = 0;    ///< untraced loop, both threads
  double host_ops_per_s = 0;        ///< untraced loop, wall clock
  double traced_cpu_ns = 0;         ///< thread CPU of the traced loop
  double reference_cpu_ns = 0;      ///< same loop length, untraced
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t leased_at_end = 0;
  double choose_host_ns = 0;
  double choice_regret = 0;
  double wire_floor_us = 0;
};

/// Every per-layer metric, by name.
std::vector<std::pair<std::string, double>>
layer_metrics(const TracedRun &run);

/// Host ns per PerfModel::choose_transfer call on the given operands.
double choose_host_ns(const std::vector<Operand> &operands);

/// Geometric mean over a seeded sample of the operands of the auto-mode
/// receive latency over the best forced monolithic method's.
double choice_regret(const std::vector<Operand> &operands,
                     std::uint64_t seed);

/// How the contiguous wire floor is measured.
enum class FloorShape : std::uint8_t {
  Exchange,  ///< both ranks send `bytes` to each other at once
  OneWay,    ///< rank 0 sends each size to rank 1; mean latency
  SelfCycle, ///< one thread's two self-messages of `bytes`
};
/// Virtual us of moving the same packed bytes as contiguous device
/// messages: the floor the strided op cannot beat.
double wire_floor_us(FloorShape shape, const std::vector<std::size_t> &bytes);

} // namespace bm
