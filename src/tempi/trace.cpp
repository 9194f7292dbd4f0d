#include "tempi/trace.hpp"

#include "support/contended_mutex.hpp"
#include "support/stats.hpp"
#include "sysmpi/world.hpp"
#include "tempi/perf_model.hpp"
#include "vcuda/runtime.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace tempi::trace {

namespace detail {
std::atomic<std::uint32_t> g_armed{0};
} // namespace detail

namespace {

// --- span rings --------------------------------------------------------------
//
// One ring per rank thread, single-writer: only the owning thread stores
// records and publishes them with a release store of the new size, so
// snapshot() can read [0, size) from any thread without locking the emit
// path. The registry owns rings through unique_ptr so spans survive rank
// threads exiting (sysmpi ranks are threads that die at run_ranks end).
// reset() bumps an epoch instead of freeing in place, so a stale
// thread_local pointer from a previous epoch is re-created, not followed.

struct Ring {
  Ring(std::int32_t rank, std::size_t cap) : rank(rank), slots(cap) {}
  const std::int32_t rank;
  std::atomic<std::size_t> size{0};
  std::vector<SpanRecord> slots;
};

/// Counted (tempi.lock.trace_rings.*): emits never take it — only lazy
/// ring creation (once per rank thread per epoch) and the snapshot/reset
/// walks do, so its contended count should stay ~0 even thread-multiple.
support::ContendedMutex g_rings_mutex;
std::vector<std::unique_ptr<Ring>> &rings() {
  static std::vector<std::unique_ptr<Ring>> r;
  return r;
}
std::atomic<std::uint64_t> g_epoch{1};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::size_t> g_ring_capacity{16384};

thread_local Ring *t_ring = nullptr;
thread_local std::uint64_t t_ring_epoch = 0;

Ring &this_ring() {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (t_ring == nullptr || t_ring_epoch != epoch) {
    const std::lock_guard<support::ContendedMutex> lock(g_rings_mutex);
    auto ring = std::make_unique<Ring>(
        sysmpi::this_rank().world_rank,
        g_ring_capacity.load(std::memory_order_relaxed));
    t_ring = ring.get();
    t_ring_epoch = g_epoch.load(std::memory_order_relaxed);
    rings().push_back(std::move(ring));
  }
  return *t_ring;
}

// --- per-phase log2 duration histograms --------------------------------------

std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kPhaseCount>
    g_hist;

std::size_t hist_bucket(vcuda::VirtualNs dur_ns) {
  if (dur_ns == 0) {
    return 0;
  }
  const std::size_t b = static_cast<std::size_t>(std::bit_width(dur_ns)) - 1;
  return std::min(b, kHistBuckets - 1);
}

// --- counter / gauge registry ------------------------------------------------

struct Registry {
  std::mutex mutex;
  std::vector<Counter *> counters;
  std::unordered_map<std::string, GaugeFn> gauges;
};
Registry &registry() {
  static Registry r;
  return r;
}

// --- device-lane hook --------------------------------------------------------
//
// vcuda reports each modeled device-side execution interval here. Lanes
// are small per-thread ids: 0 is the host "ops" lane, 1+N is the N-th
// distinct stream this rank touched (default stream, pool streams,
// channel streams) in first-use order.

std::uint8_t lane_for(const vcuda::Stream *stream) {
  thread_local std::vector<const vcuda::Stream *> seen;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] == stream) {
      return static_cast<std::uint8_t>(i + 1);
    }
  }
  if (seen.size() < 254) {
    seen.push_back(stream);
    return static_cast<std::uint8_t>(seen.size());
  }
  return 255;
}

void runtime_hook(vcuda::TraceOp op, vcuda::VirtualNs t0, vcuda::VirtualNs t1,
                  std::size_t bytes, const vcuda::Stream *stream) {
  emit(op == vcuda::TraceOp::Kernel ? Phase::KernelExec : Phase::MemcpyExec,
       OpKind::Runtime, t0, t1, bytes, -1, -1, -1, lane_for(stream));
}

void install_runtime_hook() {
  static std::once_flag once;
  std::call_once(once, [] { vcuda::set_trace_hook(&runtime_hook); });
}

// --- export configuration ----------------------------------------------------

std::mutex g_config_mutex;
std::string &trace_path_storage() {
  static std::string p;
  return p;
}
std::atomic<bool> g_stats_requested{false};

// flush() idempotence: generation = spans emitted (retained + dropped) +
// sum of counter values; re-flushing an unchanged world is a no-op. The
// tempi.lock.* gauges are excluded: computing the generation itself takes
// the rings lock (and snapshot/report paths take others), so counting lock
// acquires would perturb the generation on every read and defeat the
// idempotence check.
std::mutex g_flush_mutex;
std::uint64_t g_last_flush_generation = ~std::uint64_t{0};

std::uint64_t generation() {
  std::uint64_t gen = g_dropped.load(std::memory_order_relaxed);
  {
    const std::lock_guard<support::ContendedMutex> lock(g_rings_mutex);
    for (const auto &ring : rings()) {
      gen += ring->size.load(std::memory_order_acquire);
    }
  }
  for (const auto &[name, value] : counter_snapshot()) {
    constexpr std::string_view kLockPrefix = "tempi.lock.";
    if (std::string_view(name).substr(0, kLockPrefix.size()) ==
        kLockPrefix) {
      continue;
    }
    gen += value;
  }
  return gen;
}

/// Pretty 2^i ns bucket bound for the report ("4us" etc.).
std::string human_ns(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3gs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3gms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3gus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3gns", ns);
  }
  return buf;
}

} // namespace

const char *phase_name(Phase p) {
  switch (p) {
  case Phase::PackLaunch:
    return "PackLaunch";
  case Phase::Wire:
    return "Wire";
  case Phase::Unpack:
    return "Unpack";
  case Phase::GraphCapture:
    return "GraphCapture";
  case Phase::GraphReplay:
    return "GraphReplay";
  case Phase::LeaseAcquire:
    return "LeaseAcquire";
  case Phase::ModelChoice:
    return "ModelChoice";
  case Phase::KernelExec:
    return "KernelExec";
  case Phase::MemcpyExec:
    return "MemcpyExec";
  case Phase::kCount:
    break;
  }
  return "?";
}

const char *kind_name(OpKind k) {
  switch (k) {
  case OpKind::None:
    return "none";
  case OpKind::Send:
    return "Send";
  case OpKind::Recv:
    return "Recv";
  case OpKind::Isend:
    return "Isend";
  case OpKind::Irecv:
    return "Irecv";
  case OpKind::Coll:
    return "Coll";
  case OpKind::Persistent:
    return "Persistent";
  case OpKind::Runtime:
    return "Runtime";
  case OpKind::Pack:
    return "Pack";
  case OpKind::kCount:
    break;
  }
  return "?";
}

void set_enabled(bool on) {
  if (on) {
    install_runtime_hook();
  }
  detail::g_armed.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace detail {

void emit_slow(const SpanRecord &rec) {
  Ring &ring = this_ring();
  const std::size_t n = ring.size.load(std::memory_order_relaxed);
  if (n >= ring.slots.size()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord &slot = ring.slots[n];
  slot = rec;
  slot.rank = ring.rank;
  ring.size.store(n + 1, std::memory_order_release);
  g_hist[static_cast<std::size_t>(rec.phase)][hist_bucket(
      rec.t1 > rec.t0 ? rec.t1 - rec.t0 : 0)]
      .fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

Counter::Counter(const char *name) : name_(name) {
  Registry &reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.counters.push_back(this);
}

void register_gauge(const char *name, GaugeFn fn) {
  Registry &reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.gauges[name] = fn;
}

std::uint64_t counter_value(std::string_view name) {
  Registry &reg = registry();
  GaugeFn gauge = nullptr;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const Counter *c : reg.counters) {
      if (c->name() == name) {
        return c->value();
      }
    }
    const auto it = reg.gauges.find(std::string(name));
    if (it != reg.gauges.end()) {
      gauge = it->second;
    }
  }
  return gauge != nullptr ? gauge() : 0;
}

void reset_counters() {
  Registry &reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (Counter *c : reg.counters) {
    c->reset();
  }
}

std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot() {
  Registry &reg = registry();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::vector<GaugeFn> gauge_fns;
  std::vector<std::string> gauge_names;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    out.reserve(reg.counters.size() + reg.gauges.size());
    for (const Counter *c : reg.counters) {
      out.emplace_back(c->name(), c->value());
    }
    for (const auto &[name, fn] : reg.gauges) {
      gauge_names.push_back(name);
      gauge_fns.push_back(fn);
    }
  }
  // Gauges run outside the registry lock: they may take other locks.
  for (std::size_t i = 0; i < gauge_fns.size(); ++i) {
    out.emplace_back(gauge_names[i], gauge_fns[i]());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Snapshot snapshot() {
  Snapshot snap;
  {
    const std::lock_guard<support::ContendedMutex> lock(g_rings_mutex);
    for (const auto &ring : rings()) {
      const std::size_t n = ring->size.load(std::memory_order_acquire);
      snap.spans.insert(snap.spans.end(), ring->slots.begin(),
                        ring->slots.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  snap.dropped = g_dropped.load(std::memory_order_relaxed);
  std::array<support::Sampler, kPhaseCount> samplers;
  for (const SpanRecord &rec : snap.spans) {
    const auto p = static_cast<std::size_t>(rec.phase);
    const vcuda::VirtualNs dur = rec.t1 > rec.t0 ? rec.t1 - rec.t0 : 0;
    samplers[p].add(vcuda::ns_to_us(dur));
    snap.phases[p].log2_hist[hist_bucket(dur)] += 1;
  }
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    PhaseSummary &ps = snap.phases[p];
    ps.count = static_cast<std::uint64_t>(samplers[p].count());
    if (!samplers[p].empty()) {
      ps.total_us = samplers[p].mean() * static_cast<double>(ps.count);
      ps.trimean_us = samplers[p].trimean();
      ps.mean_us = samplers[p].mean();
      ps.min_us = samplers[p].min();
    }
  }
  snap.counters = counter_snapshot();
  return snap;
}

bool write_chrome_trace(const std::string &path) {
  const Snapshot snap = snapshot();
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  const auto sep = [&] {
    std::fprintf(f, first ? "\n" : ",\n");
    first = false;
  };
  // Metadata: one process per rank, one named thread per lane seen.
  std::vector<std::pair<std::int32_t, std::uint8_t>> lanes;
  for (const SpanRecord &rec : snap.spans) {
    const std::pair<std::int32_t, std::uint8_t> key{rec.rank, rec.lane};
    if (std::find(lanes.begin(), lanes.end(), key) == lanes.end()) {
      lanes.push_back(key);
    }
  }
  std::sort(lanes.begin(), lanes.end());
  std::int32_t last_pid = -1;
  for (const auto &[pid, tid] : lanes) {
    if (pid != last_pid) {
      sep();
      std::fprintf(f,
                   "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                   "\"tid\":0,\"args\":{\"name\":\"rank %d\"}}",
                   pid, pid);
      last_pid = pid;
    }
    sep();
    char lane_name[24];
    if (tid == 0) {
      std::snprintf(lane_name, sizeof lane_name, "ops");
    } else {
      std::snprintf(lane_name, sizeof lane_name, "stream %d", tid - 1);
    }
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 pid, tid, lane_name);
  }
  for (const SpanRecord &rec : snap.spans) {
    sep();
    const vcuda::VirtualNs dur = rec.t1 > rec.t0 ? rec.t1 - rec.t0 : 0;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"tempi\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                 "\"args\":{\"kind\":\"%s\",\"peer\":%d,\"tag\":%d,"
                 "\"bytes\":%llu,\"method\":\"%s\"}}",
                 phase_name(rec.phase), vcuda::ns_to_us(rec.t0),
                 vcuda::ns_to_us(dur), rec.rank, rec.lane,
                 kind_name(rec.kind), rec.peer, rec.tag,
                 static_cast<unsigned long long>(rec.bytes),
                 rec.method >= 0 && rec.method <= 3
                     ? method_name(static_cast<Method>(rec.method))
                     : "-");
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  std::fclose(f);
  return true;
}

void print_stats_report(std::FILE *out) {
  if (out == nullptr) {
    out = stderr;
  }
  const Snapshot snap = snapshot();
  std::size_t nrings = 0;
  {
    const std::lock_guard<support::ContendedMutex> lock(g_rings_mutex);
    nrings = rings().size();
  }
  std::fprintf(out, "== TEMPI stats "
                    "=============================================\n");
  std::fprintf(out,
               "spans: %zu retained, %llu dropped, %zu rank rings\n",
               snap.spans.size(),
               static_cast<unsigned long long>(snap.dropped), nrings);
  std::fprintf(out, "%-13s %8s %12s %12s %12s %10s\n", "phase", "count",
               "total_us", "trimean_us", "mean_us", "mode");
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseSummary &ps = snap.phases[p];
    if (ps.count == 0) {
      continue;
    }
    std::size_t mode = 0;
    for (std::size_t b = 1; b < kHistBuckets; ++b) {
      if (ps.log2_hist[b] > ps.log2_hist[mode]) {
        mode = b;
      }
    }
    std::fprintf(out, "%-13s %8llu %12.1f %12.2f %12.2f %10s\n",
                 phase_name(static_cast<Phase>(p)),
                 static_cast<unsigned long long>(ps.count), ps.total_us,
                 ps.trimean_us, ps.mean_us,
                 human_ns(std::pow(2.0, static_cast<double>(mode))).c_str());
  }
  std::fprintf(out, "counters:\n");
  for (const auto &[name, value] : snap.counters) {
    if (value != 0) {
      std::fprintf(out, "  %-42s %12llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    }
  }
  std::fprintf(out, "================================================="
                    "============\n");
}

void flush() {
  const std::lock_guard<std::mutex> lock(g_flush_mutex);
  const std::string path = trace_path();
  const bool stats = stats_requested();
  if (path.empty() && !stats) {
    return;
  }
  const std::uint64_t gen = generation();
  if (gen == g_last_flush_generation) {
    return;
  }
  g_last_flush_generation = gen;
  if (!path.empty()) {
    write_chrome_trace(path);
  }
  if (stats) {
    print_stats_report();
  }
}

void configure_from_env() {
  install_runtime_hook();
  if (const char *p = std::getenv("TEMPI_TRACE");
      p != nullptr && p[0] != '\0') {
    set_trace_path(p);
  }
  if (const char *s = std::getenv("TEMPI_STATS");
      s != nullptr && (s[0] == '1' || s[0] == 't' || s[0] == 'y')) {
    set_stats_requested(true);
  }
  if (!trace_path().empty() || stats_requested()) {
    set_enabled(true);
  }
}

const std::string &trace_path() {
  const std::lock_guard<std::mutex> lock(g_config_mutex);
  return trace_path_storage();
}

void set_trace_path(std::string path) {
  const std::lock_guard<std::mutex> lock(g_config_mutex);
  trace_path_storage() = std::move(path);
}

bool stats_requested() {
  return g_stats_requested.load(std::memory_order_relaxed);
}

void set_stats_requested(bool on) {
  g_stats_requested.store(on, std::memory_order_relaxed);
}

void reset() {
  const std::lock_guard<support::ContendedMutex> lock(g_rings_mutex);
  rings().clear();
  g_epoch.fetch_add(1, std::memory_order_release);
  g_dropped.store(0, std::memory_order_relaxed);
  for (auto &phase_hist : g_hist) {
    for (auto &bucket : phase_hist) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t ring_count() {
  const std::lock_guard<support::ContendedMutex> lock(g_rings_mutex);
  return rings().size();
}

std::size_t set_default_ring_capacity(std::size_t cap) {
  return g_ring_capacity.exchange(cap == 0 ? 1 : cap,
                                  std::memory_order_relaxed);
}

support::LockStats rings_lock_stats() { return g_rings_mutex.stats(); }

} // namespace tempi::trace

namespace tempi {

trace::Snapshot trace_snapshot() { return trace::snapshot(); }

} // namespace tempi
