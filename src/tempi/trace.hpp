// Operation tracing + metrics registry.
//
// A per-rank, lock-free ring-buffer tracer that records *spans* — intervals
// [t0, t1) on the vcuda virtual clock — for every phase of every operation
// the interposer runs: pack launches, wire legs, unpacks, graph
// capture/replay, buffer-lease acquires, and model choices, each tagged
// with op kind, peer, tag, bytes, and the chosen Method. The vcuda runtime
// reports modeled device-side kernel/memcpy execution intervals through
// vcuda::set_trace_hook, so host-lane op spans and device-lane stream spans
// land in the same timeline.
//
// Tracing is always compiled in. The disabled path costs one relaxed
// atomic load per potential span (bench_abl_trace gates it at <= 5 ns/op)
// and allocates nothing: a rank's ring is created lazily on its first
// *armed* emit. Rings are single-writer (the owning rank thread) and
// drop-new when full, counting drops instead of crashing or blocking.
//
// Exports:
//   - TEMPI_TRACE=<path>  writes Chrome trace-event JSON at finalize /
//     uninstall (one pid per rank, one tid per stream/op lane); load it at
//     https://ui.perfetto.dev.
//   - TEMPI_STATS=1       prints a finalize-time report: counters plus
//     per-phase histogram trimeans (support::Sampler).
//   - tempi::trace_snapshot() gives tests/benches programmatic access.
//
// The metrics registry half is the library's only stats surface:
// trace::Counter is a named, self-registering atomic counter (every
// module's decision counts are built from it, e.g. tempi.send.oneshot or
// tempi.coll.peer_legs), and read-only sources that keep their own storage
// (the tempi.lock.* contention counts) register gauges. Tests, benches and
// the TEMPI_STATS report all read it by name through counter_value() /
// counter_snapshot(), and reset_counters() zeroes it.
#pragma once

#include "support/contended_mutex.hpp"
#include "support/striped_counter.hpp"
#include "vcuda/clock.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tempi::trace {

/// What part of an operation a span covers.
enum class Phase : std::uint8_t {
  PackLaunch = 0, ///< pack kernel issue + host wait for pack completion
  Wire,           ///< system-MPI leg: Send/Recv wait or Isend/Irecv post
  Unpack,         ///< unpack issue and/or host wait for unpack completion
  GraphCapture,   ///< persistent path: record + instantiate a graph
  GraphReplay,    ///< persistent path: one-launch replay (+ fence)
  LeaseAcquire,   ///< intermediate-buffer lease from the buffer cache
  ModelChoice,    ///< perf-model method/leg selection (uncached)
  KernelExec,     ///< vcuda: modeled device-side kernel execution
  MemcpyExec,     ///< vcuda: modeled device-side copy/memset execution
  kCount
};
inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Which MPI-facing operation the span belongs to.
enum class OpKind : std::uint8_t {
  None = 0,   ///< shared machinery (leases, batched syncs)
  Send,
  Recv,
  Isend,
  Irecv,
  Coll,       ///< collectives engine per-peer legs and fused passes
  Persistent, ///< Send_init/Recv_init channels
  Runtime,    ///< vcuda device-lane spans
  Pack,       ///< interposed MPI_Pack/MPI_Unpack calls
  kCount
};

const char *phase_name(Phase p);
const char *kind_name(OpKind k);

/// One recorded span. POD; rings store these by value.
struct SpanRecord {
  vcuda::VirtualNs t0 = 0;
  vcuda::VirtualNs t1 = 0;
  std::uint64_t bytes = 0;
  std::int32_t peer = -1;
  std::int32_t tag = -1;
  std::int32_t rank = 0;
  Phase phase = Phase::PackLaunch;
  OpKind kind = OpKind::None;
  std::int8_t method = -1; ///< static_cast from tempi::Method; -1 = n/a
  std::uint8_t lane = 0;   ///< 0 = host op lane, 1+N = device stream N
};

namespace detail {
extern std::atomic<std::uint32_t> g_armed; // nonzero while tracing is on
void emit_slow(const SpanRecord &rec);
} // namespace detail

/// True while tracing is armed. One relaxed load — this is the entire
/// disabled-path cost of every instrumentation point.
inline bool enabled() {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// Arm/disarm span recording (TEMPI_TRACE / TEMPI_STATS arm it via
/// configure_from_env; tests and benches call this directly).
void set_enabled(bool on);

/// Record a completed interval. No-op (one relaxed load) when disabled.
inline void emit(Phase phase, OpKind kind, vcuda::VirtualNs t0,
                 vcuda::VirtualNs t1, std::uint64_t bytes = 0,
                 std::int32_t peer = -1, std::int32_t tag = -1,
                 std::int8_t method = -1, std::uint8_t lane = 0) {
  if (!enabled()) {
    return;
  }
  SpanRecord rec;
  rec.t0 = t0;
  rec.t1 = t1;
  rec.bytes = bytes;
  rec.peer = peer;
  rec.tag = tag;
  rec.phase = phase;
  rec.kind = kind;
  rec.method = method;
  rec.lane = lane;
  detail::emit_slow(rec);
}

/// RAII span on the calling rank's virtual clock: t0 at construction, t1
/// at destruction. When tracing is disabled the constructor is one relaxed
/// load and the destructor a predictable not-taken branch.
class ScopedSpan {
public:
  explicit ScopedSpan(Phase phase, OpKind kind, std::uint64_t bytes = 0,
                      std::int32_t peer = -1, std::int32_t tag = -1,
                      std::int8_t method = -1)
      : armed_(enabled()) {
    if (armed_) {
      rec_.t0 = vcuda::virtual_now();
      rec_.bytes = bytes;
      rec_.peer = peer;
      rec_.tag = tag;
      rec_.phase = phase;
      rec_.kind = kind;
      rec_.method = method;
    }
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (armed_) {
      rec_.t1 = vcuda::virtual_now();
      detail::emit_slow(rec_);
    }
  }
  /// Re-tag mid-span, for fields known only after construction.
  void set_method(std::int8_t m) { rec_.method = m; }
  void set_bytes(std::uint64_t b) { rec_.bytes = b; }

private:
  bool armed_;
  SpanRecord rec_{};
};

// --- metrics registry --------------------------------------------------------

/// A named, self-registering counter. Construct as a (static-lifetime)
/// member; increments are one relaxed fetch_add on the calling thread's
/// stripe (support::StripedCounter), so concurrent hot paths do not share
/// a cache line through their counters. The registry keeps a pointer, so
/// the counter must outlive any snapshot call.
class Counter {
public:
  explicit Counter(const char *name);
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;
  void add(std::uint64_t n = 1) { v_.add(n); }
  [[nodiscard]] std::uint64_t value() const { return v_.value(); }
  void reset() { v_.reset(); }
  [[nodiscard]] const char *name() const { return name_; }

private:
  const char *name_;
  support::StripedCounter v_;
};

/// Register a read-only named value computed at snapshot time (for sources
/// that keep their own storage, e.g. the tempi.lock.* contention counts).
/// Re-registering a name replaces the previous gauge.
using GaugeFn = std::uint64_t (*)();
void register_gauge(const char *name, GaugeFn fn);

/// Value of one registered counter or gauge; 0 if the name is unknown.
std::uint64_t counter_value(std::string_view name);

/// Zero every registered Counter; gauges keep their own storage and are
/// left alone (tests/benches; not atomic with respect to concurrent adds).
void reset_counters();

/// All registered counters and gauges, name -> value, sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot();

// --- snapshot / export -------------------------------------------------------

/// log2 duration histogram: bucket i counts spans with (t1 - t0) in
/// [2^i, 2^(i+1)) ns; bucket 0 additionally holds sub-ns (0-duration) spans.
inline constexpr std::size_t kHistBuckets = 40;

/// Aggregated per-phase statistics, derived from recorded spans.
struct PhaseSummary {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double trimean_us = 0.0; ///< support::Sampler trimean of span durations
  double mean_us = 0.0;
  double min_us = 0.0;
  std::array<std::uint64_t, kHistBuckets> log2_hist{};
};

struct Snapshot {
  std::vector<SpanRecord> spans; ///< all ranks/lanes, ring order per rank
  std::uint64_t dropped = 0;     ///< spans lost to full rings
  std::array<PhaseSummary, kPhaseCount> phases{};
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Copy out everything recorded so far (thread-safe vs concurrent emits).
Snapshot snapshot();

/// Write Chrome trace-event JSON ("X" complete events, ts/dur in us, pid =
/// rank, tid = lane) to `path`. Returns false if the file cannot be opened.
bool write_chrome_trace(const std::string &path);

/// Print the counters + per-phase report to `out` (default stderr).
void print_stats_report(std::FILE *out = nullptr);

/// Finalize/uninstall hook: write the trace file (if TEMPI_TRACE is set)
/// and print the stats report (if TEMPI_STATS requested). Idempotent: a
/// call with no new spans or counter activity since the last flush is a
/// no-op, so MPI_Finalize on every rank plus a trailing uninstall() don't
/// spam duplicate reports.
void flush();

/// Read TEMPI_TRACE / TEMPI_STATS and arm tracing if either is set; also
/// installs the vcuda device-span hook. Called by tempi::install().
void configure_from_env();

/// Trace-file destination ("" = unset) and stats-report request flag.
const std::string &trace_path();
void set_trace_path(std::string path);
bool stats_requested();
void set_stats_requested(bool on);

/// Drop all recorded spans, histogram buckets, and the drop count
/// (tests/benches; safe only when no rank threads are emitting).
void reset();

/// Number of rank rings allocated so far (tests: disabled-path emits must
/// not create rings).
std::size_t ring_count();

/// Capacity for rings created after this call (tests exercise wraparound
/// with tiny rings). Returns the previous value. Default: 16384 spans.
std::size_t set_default_ring_capacity(std::size_t cap);

/// Acquire/contention counters of the ring-registry mutex (taken at lazy
/// ring creation and snapshot/reset — never on the emit path). Exported as
/// the tempi.lock.trace_rings.* gauges.
support::LockStats rings_lock_stats();

} // namespace tempi::trace

namespace tempi {
/// Programmatic access for tests/benches (tentpole export (c)).
trace::Snapshot trace_snapshot();
} // namespace tempi
