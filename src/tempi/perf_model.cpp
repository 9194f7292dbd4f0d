#include "tempi/perf_model.hpp"

#include "support/contended_mutex.hpp"
#include "sysmpi/netmodel.hpp"
#include "tempi/kernels.hpp"
#include "tempi/trace.hpp"
#include "vcuda/costmodel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <fstream>
#include <mutex>

namespace tempi {

const char *method_name(Method m) {
  switch (m) {
  case Method::OneShot: return "one-shot";
  case Method::Device: return "device";
  case Method::Staged: return "staged";
  case Method::Pipelined: return "pipelined";
  }
  return "?";
}

// --- pipeline configuration --------------------------------------------------

namespace {

std::atomic<std::size_t> g_wire_chunk_limit{kMaxWireBytes};
std::atomic<std::size_t> g_chunk_bytes_override{0};
std::atomic<std::uint64_t> g_transfer_config_gen{1};

} // namespace

std::size_t wire_chunk_limit() {
  return g_wire_chunk_limit.load(std::memory_order_relaxed);
}

std::size_t set_wire_chunk_limit(std::size_t bytes) {
  bytes = std::clamp<std::size_t>(bytes, 1, kMaxWireBytes);
  const std::size_t prev =
      g_wire_chunk_limit.exchange(bytes, std::memory_order_relaxed);
  g_transfer_config_gen.fetch_add(1, std::memory_order_release);
  return prev;
}

std::size_t chunk_bytes_override() {
  return g_chunk_bytes_override.load(std::memory_order_relaxed);
}

void set_chunk_bytes_override(std::size_t bytes) {
  g_chunk_bytes_override.store(bytes, std::memory_order_relaxed);
  g_transfer_config_gen.fetch_add(1, std::memory_order_release);
}

std::uint64_t transfer_config_generation() {
  return g_transfer_config_gen.load(std::memory_order_acquire);
}

std::size_t fallback_chunk_bytes(std::size_t total_bytes) {
  const std::size_t limit = wire_chunk_limit();
  if (const std::size_t o = chunk_bytes_override(); o != 0) {
    return std::min(o, limit);
  }
  const std::size_t quarter = std::max<std::size_t>(total_bytes / 4, 1);
  const std::size_t target = std::bit_floor(quarter);
  const std::size_t floor = std::min<std::size_t>(64 * 1024, limit);
  return std::clamp(target, floor, limit);
}

namespace {

/// Piecewise-linear interpolation of y over log(x). Clamps outside the
/// sampled range (measurements are sparse by necessity, Sec. 6.3).
double interp_log(const std::vector<double> &xs, const std::vector<double> &ys,
                  double x) {
  assert(!xs.empty() && xs.size() == ys.size());
  if (x <= xs.front()) {
    return ys.front();
  }
  if (x >= xs.back()) {
    // Extrapolate the bandwidth regime linearly in x beyond the last
    // sample: latency grows proportionally with size there.
    return ys.back() * (x / xs.back());
  }
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double lx = std::log2(std::max(x, 1.0));
  const double l0 = std::log2(std::max(xs[lo], 1.0));
  const double l1 = std::log2(std::max(xs[hi], 1.0));
  const double f = l1 > l0 ? (lx - l0) / (l1 - l0) : 0.0;
  return ys[lo] * (1.0 - f) + ys[hi] * f;
}

} // namespace

double Table1D::query(double b) const { return interp_log(bytes, us, b); }

double Table2D::query(double block, double total) const {
  assert(!block_bytes.empty() && !total_bytes.empty());
  // Interpolate along the block axis at each bracketing block row, then
  // between rows (bilinear in log-log space with clamping).
  const auto row = [this](std::size_t bi, double t) {
    std::vector<double>::const_iterator begin =
        us.begin() + static_cast<long>(bi * total_bytes.size());
    const std::vector<double> slice(begin,
                                    begin + static_cast<long>(total_bytes.size()));
    return interp_log(total_bytes, slice, t);
  };
  if (block <= block_bytes.front()) {
    return row(0, total);
  }
  if (block >= block_bytes.back()) {
    return row(block_bytes.size() - 1, total);
  }
  const auto it =
      std::upper_bound(block_bytes.begin(), block_bytes.end(), block);
  const std::size_t hi = static_cast<std::size_t>(it - block_bytes.begin());
  const std::size_t lo = hi - 1;
  const double l = std::log2(std::max(block, 1.0));
  const double l0 = std::log2(std::max(block_bytes[lo], 1.0));
  const double l1 = std::log2(std::max(block_bytes[hi], 1.0));
  const double f = l1 > l0 ? (l - l0) / (l1 - l0) : 0.0;
  return row(lo, total) * (1.0 - f) + row(hi, total) * f;
}

namespace {

// --- serialization -----------------------------------------------------------

void write_1d(std::ostream &os, const char *name, const Table1D &t) {
  os << name << ' ' << t.bytes.size() << '\n';
  for (std::size_t i = 0; i < t.bytes.size(); ++i) {
    os << t.bytes[i] << ' ' << t.us[i] << '\n';
  }
}

void write_2d(std::ostream &os, const char *name, const Table2D &t) {
  os << name << ' ' << t.block_bytes.size() << ' ' << t.total_bytes.size()
     << '\n';
  for (const double b : t.block_bytes) {
    os << b << ' ';
  }
  os << '\n';
  for (const double b : t.total_bytes) {
    os << b << ' ';
  }
  os << '\n';
  for (const double v : t.us) {
    os << v << ' ';
  }
  os << '\n';
}

bool read_1d(std::istream &is, const std::string &name, Table1D &t) {
  std::string tag;
  std::size_t n = 0;
  if (!(is >> tag >> n) || tag != name) {
    return false;
  }
  t.bytes.resize(n);
  t.us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> t.bytes[i] >> t.us[i])) {
      return false;
    }
  }
  return true;
}

bool read_2d(std::istream &is, const std::string &name, Table2D &t) {
  std::string tag;
  std::size_t nb = 0, nt = 0;
  if (!(is >> tag >> nb >> nt) || tag != name) {
    return false;
  }
  t.block_bytes.resize(nb);
  t.total_bytes.resize(nt);
  t.us.resize(nb * nt);
  for (double &v : t.block_bytes) {
    if (!(is >> v)) return false;
  }
  for (double &v : t.total_bytes) {
    if (!(is >> v)) return false;
  }
  for (double &v : t.us) {
    if (!(is >> v)) return false;
  }
  return true;
}

} // namespace

bool save_perf(const SystemPerf &perf, const std::string &path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os.precision(17); // lossless double round trip
  os << "tempi_perf_v1\n";
  write_1d(os, "cpu_cpu", perf.cpu_cpu);
  write_1d(os, "gpu_gpu", perf.gpu_gpu);
  write_1d(os, "d2h", perf.d2h);
  write_1d(os, "h2d", perf.h2d);
  write_2d(os, "device_pack", perf.device_pack);
  write_2d(os, "device_unpack", perf.device_unpack);
  write_2d(os, "oneshot_pack", perf.oneshot_pack);
  write_2d(os, "oneshot_unpack", perf.oneshot_unpack);
  return static_cast<bool>(os);
}

std::optional<SystemPerf> load_perf(const std::string &path) {
  std::ifstream is(path);
  if (!is) {
    return std::nullopt;
  }
  std::string header;
  if (!(is >> header) || header != "tempi_perf_v1") {
    return std::nullopt;
  }
  SystemPerf p;
  if (read_1d(is, "cpu_cpu", p.cpu_cpu) && read_1d(is, "gpu_gpu", p.gpu_gpu) &&
      read_1d(is, "d2h", p.d2h) && read_1d(is, "h2d", p.h2d) &&
      read_2d(is, "device_pack", p.device_pack) &&
      read_2d(is, "device_unpack", p.device_unpack) &&
      read_2d(is, "oneshot_pack", p.oneshot_pack) &&
      read_2d(is, "oneshot_unpack", p.oneshot_unpack)) {
    return p;
  }
  return std::nullopt;
}

namespace {

std::vector<double> pow2_sizes(double lo, double hi) {
  std::vector<double> v;
  for (double s = lo; s <= hi; s *= 2.0) {
    v.push_back(s);
  }
  return v;
}

/// Analytic latency (us) of one pack/unpack kernel incl. launch + sync.
double analytic_kernel_us(double block, double total,
                          vcuda::MemorySpace noncontig_space, bool is_pack) {
  const vcuda::CostParams &cp = vcuda::cost_params();
  vcuda::KernelCost cost;
  cost.total_bytes = static_cast<std::size_t>(total);
  const auto blk = static_cast<std::size_t>(block);
  // Both sides are priced in the governing space, mirroring
  // tempi::pack_cost/unpack_cost (see kernels.cpp: governing_space).
  if (is_pack) {
    cost.src = {blk, false, noncontig_space};
    cost.dst = {0, true, noncontig_space};
  } else {
    cost.src = {0, false, noncontig_space};
    cost.dst = {blk, true, noncontig_space};
  }
  const vcuda::VirtualNs ns = cp.kernel_launch_ns +
                              vcuda::kernel_duration(cp, cost) +
                              cp.stream_sync_ns;
  return static_cast<double>(ns) / 1000.0;
}

} // namespace

SystemPerf builtin_perf() {
  const sysmpi::NetParams &net = sysmpi::net_params();
  const vcuda::CostParams &cp = vcuda::cost_params();
  SystemPerf p;

  const std::vector<double> sizes = pow2_sizes(1.0, 16.0 * 1024 * 1024);
  for (const double s : sizes) {
    const auto b = static_cast<std::size_t>(s);
    p.cpu_cpu.bytes.push_back(s);
    p.cpu_cpu.us.push_back(
        vcuda::ns_to_us(transfer_duration(net, b, false, false, false)) +
        2.0 * net.host_overhead_us);
    p.gpu_gpu.bytes.push_back(s);
    p.gpu_gpu.us.push_back(
        vcuda::ns_to_us(transfer_duration(net, b, true, true, false)) +
        2.0 * net.host_overhead_us);
    const double copy_us = vcuda::ns_to_us(
        cp.memcpy_async_call_ns +
        vcuda::memcpy_duration(cp, b, vcuda::MemcpyKind::DeviceToHost, false) +
        cp.stream_sync_ns);
    p.d2h.bytes.push_back(s);
    p.d2h.us.push_back(copy_us);
    p.h2d.bytes.push_back(s);
    p.h2d.us.push_back(copy_us);
  }

  const std::vector<double> blocks = pow2_sizes(1.0, 1024.0);
  const std::vector<double> totals = pow2_sizes(64.0, 4.0 * 1024 * 1024);
  for (Table2D *t : {&p.device_pack, &p.device_unpack, &p.oneshot_pack,
                     &p.oneshot_unpack}) {
    t->block_bytes = blocks;
    t->total_bytes = totals;
    t->us.resize(blocks.size() * totals.size());
  }
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    for (std::size_t ti = 0; ti < totals.size(); ++ti) {
      const double blk = std::min(blocks[bi], totals[ti]);
      p.device_pack.at(bi, ti) = analytic_kernel_us(
          blk, totals[ti], vcuda::MemorySpace::Device, true);
      p.device_unpack.at(bi, ti) = analytic_kernel_us(
          blk, totals[ti], vcuda::MemorySpace::Device, false);
      p.oneshot_pack.at(bi, ti) = analytic_kernel_us(
          blk, totals[ti], vcuda::MemorySpace::Pinned, true);
      p.oneshot_unpack.at(bi, ti) = analytic_kernel_us(
          blk, totals[ti], vcuda::MemorySpace::Pinned, false);
    }
  }
  return p;
}

// --- choice cache ------------------------------------------------------------

/// Fixed-size, 2-way set-associative, lock-free cache of transfer
/// decisions. Each slot is one 64-bit atomic: bits [63:11] tag | bit 10
/// valid | [9:0] the packed TransferChoices. Key bits [9:1] pick a set of
/// two adjacent slots, and a key may sit in either, so two hot keys of one
/// set do not evict each other. A miss fills an invalid way first, else
/// the way key bit 10 picks. A tag collision can only mispick a method,
/// never corrupt bytes. Concurrent writers race benignly (last store
/// wins).
struct PerfModel::ChoiceCache {
  static constexpr std::size_t kSlots = 1024; // power of two
  std::array<std::atomic<std::uint64_t>, kSlots> slots{};
};

namespace {

constexpr std::uint64_t kValidBit = std::uint64_t{1}
                                    << TransferChoices::kPackedBits;
constexpr std::uint64_t kTagMask = ~(kValidBit | (kValidBit - 1));

/// splitmix64 finalizer: the key hash for the choice cache.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The choice-cache key: three salted families, one per decision shape.
/// Multi-leg and Leg keys fold in the transfer config generation (a knob
/// change strands old entries); Leg keys also the peer's placement and
/// the injection queue's log2 bucket (an empty queue is bucket 0).
std::uint64_t choice_key(std::size_t block_bytes, std::size_t total_bytes,
                         const TransferOperands &ops, bool multi_leg) {
  constexpr std::uint64_t kTotalSalt = 0x9e3779b97f4a7c15ull;
  constexpr std::uint64_t kGenMul = 0xff51afd7ed558ccdull;
  const auto total = static_cast<std::uint64_t>(total_bytes) + kTotalSalt;
  if (ops.kind == TransferKind::Leg) {
    constexpr std::uint64_t kLegSalt = 0x3CB5ECF3C7A1D52Bull;
    const std::uint64_t queue_bucket =
        ops.queued_bytes == 0
            ? 0
            : static_cast<std::uint64_t>(std::bit_width(ops.queued_bytes));
    return mix64(mix64(total_bytes ^ kLegSalt) ^
                 (ops.same_node ? 0x9E3779B97F4A7C15ull
                                : 0x85EBCA6B0F1BBCDDull) ^
                 (queue_bucket * 0xC2B2AE3D27D4EB4Full) ^
                 (transfer_config_generation() * kGenMul));
  }
  if (!multi_leg) {
    return mix64(mix64(block_bytes) ^ total);
  }
  constexpr std::uint64_t kTransferSalt = 0xA5A5A5A55A5A5A5Aull;
  return mix64(mix64(block_bytes ^ kTransferSalt) ^ total ^
               (transfer_config_generation() * kGenMul));
}

} // namespace

std::uint64_t choice_cache_key(std::size_t block_bytes,
                               std::size_t total_bytes,
                               const TransferOperands &ops) {
  return choice_key(block_bytes, total_bytes, ops,
                    total_bytes > wire_chunk_limit());
}

namespace {

/// Process-wide choice-cache traffic, summed over every PerfModel.
trace::Counter g_model_cache_hits{"tempi.model.cache_hits"};
trace::Counter g_model_cache_misses{"tempi.model.cache_misses"};

} // namespace

PerfModel::PerfModel(SystemPerf perf)
    : perf_(std::move(perf)), cache_(std::make_unique<ChoiceCache>()) {}

PerfModel::PerfModel(const PerfModel &other)
    : perf_(other.perf_), cache_(std::make_unique<ChoiceCache>()) {}

PerfModel &PerfModel::operator=(const PerfModel &other) {
  if (this != &other) {
    perf_ = other.perf_;
    cache_ = std::make_unique<ChoiceCache>(); // cold: tables changed
  }
  return *this;
}

PerfModel::PerfModel(PerfModel &&other) noexcept = default;
PerfModel &PerfModel::operator=(PerfModel &&other) noexcept = default;
PerfModel::~PerfModel() = default;

double PerfModel::estimate_us(Method m, double block_bytes,
                              double total_bytes) const {
  switch (m) {
  case Method::Device:
    return perf_.device_pack.query(block_bytes, total_bytes) +
           perf_.gpu_gpu.query(total_bytes) +
           perf_.device_unpack.query(block_bytes, total_bytes);
  case Method::OneShot:
    return perf_.oneshot_pack.query(block_bytes, total_bytes) +
           perf_.cpu_cpu.query(total_bytes) +
           perf_.oneshot_unpack.query(block_bytes, total_bytes);
  case Method::Staged:
    return perf_.device_pack.query(block_bytes, total_bytes) +
           perf_.d2h.query(total_bytes) + perf_.cpu_cpu.query(total_bytes) +
           perf_.h2d.query(total_bytes) +
           perf_.device_unpack.query(block_bytes, total_bytes);
  case Method::Pipelined:
    return best_pipelined(block_bytes, total_bytes).us;
  }
  return 0.0;
}

double PerfModel::estimate_pipelined_us(double block_bytes, double total_bytes,
                                        double chunk_bytes) const {
  if (chunk_bytes <= 0.0 || total_bytes <= 0.0) {
    return 0.0;
  }
  chunk_bytes = std::min(chunk_bytes, total_bytes);
  const double legs = std::ceil(total_bytes / chunk_bytes);
  const double p = perf_.device_pack.query(block_bytes, chunk_bytes);
  const double w = perf_.gpu_gpu.query(chunk_bytes);
  const double u = perf_.device_unpack.query(block_bytes, chunk_bytes);
  return p + w + u + (legs - 1.0) * std::max({p, w, u});
}

PerfModel::PipelinedEstimate PerfModel::best_pipelined(double block_bytes,
                                                       double total_bytes,
                                                       bool dense) const {
  const std::size_t limit = wire_chunk_limit();
  PipelinedEstimate best{0, 0.0};
  const auto consider = [&](std::size_t chunk) {
    if (chunk > limit) {
      return;
    }
    const double us =
        estimate_pipelined_us(block_bytes, total_bytes,
                              static_cast<double>(chunk));
    if (best.chunk_bytes == 0 || us < best.us) {
      best = {chunk, us};
    }
  };
  if (const std::size_t o = chunk_bytes_override(); o != 0) {
    // The override is authoritative: model only the forced chunk size.
    const std::size_t forced = std::min(o, limit);
    consider(dense ? forced : std::bit_floor(forced));
    return best;
  }
  // Power-of-two candidates from 64 KiB up to the wire-chunk limit (the
  // chunk may not exceed one leg); ~2x steps keep the miss-path cost at a
  // few dozen interpolations, amortized by the choice cache. The dense
  // grid adds the 3/2 midpoints the doubling steps skip.
  const std::size_t first =
      std::min<std::size_t>(64 * 1024, std::bit_floor(limit));
  for (std::size_t chunk = first; chunk <= limit; chunk *= 2) {
    consider(chunk);
    if (dense) {
      consider(chunk + chunk / 2);
    }
    if (static_cast<double>(chunk) >= total_bytes) {
      break; // larger chunks degenerate to a single leg
    }
  }
  return best;
}

TransferChoices PerfModel::choose_transfers(std::size_t block_bytes,
                                            std::size_t total_bytes,
                                            TransferOperands ops) const {
  const std::size_t limit = wire_chunk_limit();
  const bool multi_leg = total_bytes > limit;
  vcuda::Timeline &clock = vcuda::this_thread_timeline();
  if (ops.kind == TransferKind::Persistent) {
    // Exact and uncached; the multi-leg chunk sweep is a second query.
    clock.advance(multi_leg ? 2 * kModelQueryUncachedNs
                            : kModelQueryUncachedNs);
    return decide(block_bytes, total_bytes, ops, limit);
  }
  // Sec. 6.3: "results are cached so future invocations ... do not
  // require a redundant expensive interpolation".
  const std::uint64_t h =
      choice_key(block_bytes, total_bytes, ops, multi_leg);
  const std::size_t set = h & (ChoiceCache::kSlots - 2);
  std::atomic<std::uint64_t> *ways = &cache_->slots[set];
  const std::uint64_t tag = h & kTagMask;
  std::uint64_t seen[2];
  for (std::size_t w = 0; w < 2; ++w) {
    const std::uint64_t v = ways[w].load(std::memory_order_acquire);
    if ((v & kTagMask) == tag && (v & kValidBit) != 0) {
      clock.advance(kModelQueryCachedNs);
      g_model_cache_hits.add();
      return TransferChoices::unpack(v);
    }
    seen[w] = v;
  }
  const std::size_t fill = (seen[0] & kValidBit) == 0   ? 0
                           : (seen[1] & kValidBit) == 0 ? 1
                                                        : (h >> 10) & 1;
  std::atomic<std::uint64_t> &slot = ways[fill];
  clock.advance(kModelQueryUncachedNs);
  g_model_cache_misses.add();
  const TransferChoices choices = decide(block_bytes, total_bytes, ops, limit);
  slot.store(tag | kValidBit | choices.pack(), std::memory_order_release);
  return choices;
}

namespace {

/// The monolithic argmin (Eqs. 1-3) over the three estimates; ties go to
/// device, then one-shot.
Method monolithic_argmin(double device_us, double oneshot_us,
                         double staged_us) {
  Method best = Method::Device;
  double best_us = device_us;
  if (oneshot_us < best_us) {
    best = Method::OneShot;
    best_us = oneshot_us;
  }
  return staged_us < best_us ? Method::Staged : best;
}

} // namespace

TransferChoices PerfModel::decide(std::size_t block_bytes,
                                  std::size_t total_bytes,
                                  const TransferOperands &ops,
                                  std::size_t limit) const {
  const auto b = static_cast<double>(block_bytes);
  const auto t = static_cast<double>(total_bytes);
  const auto both = [](TransferChoice c) { return TransferChoices{c, c}; };
  if (total_bytes > limit) {
    // Only multi-leg framing can carry this payload. A packed leg's
    // sub-slices pay only per-leg floors, so the largest chunk wins.
    if (ops.kind == TransferKind::Leg) {
      return both({Method::Pipelined, std::bit_floor(limit)});
    }
    const PipelinedEstimate pipe =
        best_pipelined(b, t, ops.kind == TransferKind::Persistent);
    return both(
        {Method::Pipelined, std::max<std::size_t>(pipe.chunk_bytes, 1)});
  }
  if (ops.kind == TransferKind::Leg) {
    const sysmpi::NetParams &net = sysmpi::net_params();
    // Injection-queue drain ahead of this leg (inter-node only): the
    // device wire starts after it, the staged D2H copy overlaps it.
    const double queue_us =
        ops.same_node || ops.queued_bytes == 0
            ? 0.0
            : static_cast<double>(ops.queued_bytes) /
                  (net.gpu_gbps_inter * 1e3);
    const double device_us =
        queue_us + vcuda::ns_to_us(sysmpi::transfer_duration(
                       net, total_bytes, true, true, ops.same_node));
    const double staged_us =
        std::max(queue_us, perf_.d2h.query(t)) +
        vcuda::ns_to_us(sysmpi::transfer_duration(net, total_bytes, false,
                                                  false, ops.same_node)) +
        perf_.h2d.query(t);
    return both({device_us <= staged_us ? Method::Device : Method::Staged, 0});
  }
  const double device_us = estimate_us(Method::Device, b, t);
  const double oneshot_us = estimate_us(Method::OneShot, b, t);
  const double staged_us = estimate_us(Method::Staged, b, t);
  const TransferChoice isolated{
      monolithic_argmin(device_us, oneshot_us, staged_us), 0};
  if (ops.kind == TransferKind::Persistent) {
    return both(isolated); // a frozen channel runs alone or in Startall
  }
  // Burst pricing: each wire term drops its table's 1-byte query, the
  // latency floor a burst's overlapping wires hide (see choose_transfers).
  const double gpu_floor = perf_.gpu_gpu.query(1.0);
  const double cpu_floor = perf_.cpu_cpu.query(1.0);
  return TransferChoices{
      isolated,
      {monolithic_argmin(device_us - gpu_floor, oneshot_us - cpu_floor,
                         staged_us - cpu_floor),
       0}};
}

// --- self-tuning observation sink (Sec. 6.3 feedback) ------------------------

namespace tune {

namespace {

// One EWMA per power-of-two cell. `state` packs [63:32] sample count and
// [31:0] the float EWMA bits so a sample is a single-word CAS; `applied`
// is the value the live tables last folded (<= 0: never folded), the
// drift baseline for the hysteresis check.
struct Cell {
  std::atomic<std::uint64_t> state{0};
  std::atomic<float> applied{-1.0f};
};

constexpr int kSizeCells = 32;  // message/total bytes 2^0 .. 2^31
constexpr int kBlockCells = 21; // block bytes 2^0 .. 2^20
constexpr std::size_t kAxes1D = 4;
constexpr std::size_t kAxes2D = 4;
constexpr float kEwmaAlpha = 0.5f; // weight of the newest sample
constexpr std::uint32_t kMinSamples = 2;
constexpr float kDriftThreshold = 0.25f; // relative drift forcing a refresh

Cell g_cells_1d[kAxes1D][kSizeCells];
Cell g_cells_2d[kAxes2D][kBlockCells][kSizeCells];

std::atomic<bool> g_tune_enabled{true};
std::atomic<bool> g_drift_pending{false};
std::atomic<ApplyFn> g_apply_hook{nullptr};
std::atomic<std::uint64_t> g_refresh_gen{1};
/// Counted (tempi.lock.tune_refresh.*): refresh_now's try_to_lock means a
/// contended count here is a refresh another thread already ran, not a
/// stall — the loser returns immediately.
support::ContendedMutex g_refresh_mutex;

struct TuneCounters {
  trace::Counter observations{"tempi.model.observations"};
  trace::Counter updates{"tempi.model.updates"};
  trace::Counter generation_bumps{"tempi.model.generation_bumps"};
  trace::Counter refreezes{"tempi.model.refreezes"};
};

/// Namespace scope, so the counters register at static initialisation.
TuneCounters g_counters;

/// Nearest power-of-two cell index for `v` (geometric rounding via the
/// 1.5x arithmetic midpoint), clamped to the grid; -1 drops the sample.
int log2_cell(std::size_t v, int cells) {
  if (v == 0) {
    return -1;
  }
  int idx = std::bit_width(v) - 1;
  if (idx >= 1 && (v >> (idx - 1)) >= 3) {
    ++idx; // v >= 1.5 * 2^idx: round up
  }
  return std::min(idx, cells - 1);
}

Cell *cell_for(Axis axis, std::size_t block_bytes, std::size_t total_bytes) {
  const auto a = static_cast<std::size_t>(axis);
  const int ti = log2_cell(total_bytes, kSizeCells);
  if (ti < 0) {
    return nullptr;
  }
  if (a < kAxes1D) {
    return &g_cells_1d[a][ti];
  }
  const int bi = log2_cell(block_bytes, kBlockCells);
  if (bi < 0) {
    return nullptr;
  }
  return &g_cells_2d[a - kAxes1D][bi][ti];
}

std::uint32_t count_of(std::uint64_t s) {
  return static_cast<std::uint32_t>(s >> 32);
}

float ewma_of(std::uint64_t s) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(s));
}

std::uint64_t pack_state(std::uint32_t n, float ewma) {
  return (static_cast<std::uint64_t>(n) << 32) |
         std::bit_cast<std::uint32_t>(ewma);
}

bool drifted(float value, float applied) {
  if (applied <= 0.0f) {
    return true; // never folded: any converged value is news
  }
  return std::fabs(value - applied) > kDriftThreshold * applied;
}

/// Insert-or-overwrite an exact knot. Cell coordinates are powers of two,
/// so the double equality against existing knots is exact.
void set_knot_1d(Table1D &t, double x, double v) {
  const auto it = std::lower_bound(t.bytes.begin(), t.bytes.end(), x);
  const auto i = static_cast<std::size_t>(it - t.bytes.begin());
  if (it != t.bytes.end() && *it == x) {
    t.us[i] = v;
    return;
  }
  t.bytes.insert(it, x);
  t.us.insert(t.us.begin() + static_cast<std::ptrdiff_t>(i), v);
}

/// Ensure a block row exists, seeding new rows from the pre-insertion
/// interpolation so untouched totals keep their modeled values.
std::size_t ensure_block_row(Table2D &t, double block) {
  const auto it =
      std::lower_bound(t.block_bytes.begin(), t.block_bytes.end(), block);
  const auto bi = static_cast<std::size_t>(it - t.block_bytes.begin());
  if (it != t.block_bytes.end() && *it == block) {
    return bi;
  }
  std::vector<double> row(t.total_bytes.size());
  for (std::size_t ti = 0; ti < row.size(); ++ti) {
    row[ti] = t.query(block, t.total_bytes[ti]);
  }
  t.block_bytes.insert(it, block);
  t.us.insert(t.us.begin() +
                  static_cast<std::ptrdiff_t>(bi * t.total_bytes.size()),
              row.begin(), row.end());
  return bi;
}

std::size_t ensure_total_col(Table2D &t, double total) {
  const auto it =
      std::lower_bound(t.total_bytes.begin(), t.total_bytes.end(), total);
  const auto ti = static_cast<std::size_t>(it - t.total_bytes.begin());
  if (it != t.total_bytes.end() && *it == total) {
    return ti;
  }
  const std::size_t nb = t.block_bytes.size();
  const std::size_t nt = t.total_bytes.size();
  std::vector<double> col(nb);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    col[bi] = t.query(t.block_bytes[bi], total);
  }
  std::vector<double> us2;
  us2.reserve(nb * (nt + 1));
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t j = 0; j < nt; ++j) {
      if (j == ti) {
        us2.push_back(col[bi]);
      }
      us2.push_back(t.us[bi * nt + j]);
    }
    if (ti == nt) {
      us2.push_back(col[bi]);
    }
  }
  t.total_bytes.insert(it, total);
  t.us = std::move(us2);
  return ti;
}

/// Fold one converged cell's EWMA through `set`; true if it drifted.
template <typename Set>
bool fold_cell(Cell &c, bool mark_applied, Set &&set) {
  const std::uint64_t s = c.state.load(std::memory_order_relaxed);
  if (count_of(s) < kMinSamples) {
    return false;
  }
  const float v = ewma_of(s);
  const bool moved = drifted(v, c.applied.load(std::memory_order_relaxed));
  set(static_cast<double>(v));
  if (mark_applied) {
    if (moved) {
      g_counters.updates.add();
    }
    c.applied.store(v, std::memory_order_relaxed);
  }
  return moved;
}

bool fold_1d(Cell (&cells)[kSizeCells], Table1D &t, bool mark_applied) {
  bool changed = false;
  // An empty table has nothing to anchor the interpolation: leave it.
  for (int i = 0; i < kSizeCells && !t.bytes.empty(); ++i) {
    changed |= fold_cell(cells[i], mark_applied, [&](double v) {
      set_knot_1d(t, static_cast<double>(std::uint64_t{1} << i), v);
    });
  }
  return changed;
}

bool fold_2d(Cell (&cells)[kBlockCells][kSizeCells], Table2D &t,
             bool mark_applied) {
  if (t.block_bytes.empty() || t.total_bytes.empty()) {
    return false;
  }
  bool changed = false;
  for (int bi = 0; bi < kBlockCells; ++bi) {
    for (int ti = 0; ti < kSizeCells; ++ti) {
      changed |= fold_cell(cells[bi][ti], mark_applied, [&](double v) {
        const std::size_t row =
            ensure_block_row(t, static_cast<double>(std::uint64_t{1} << bi));
        const std::size_t col =
            ensure_total_col(t, static_cast<double>(std::uint64_t{1} << ti));
        t.at(row, col) = v;
      });
    }
  }
  return changed;
}

} // namespace

bool enabled() { return g_tune_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_tune_enabled.store(on, std::memory_order_relaxed);
}

void observe(Axis axis, std::size_t block_bytes, std::size_t total_bytes,
             vcuda::VirtualNs dur) {
  if (!enabled()) {
    return;
  }
  Cell *c = cell_for(axis, block_bytes, total_bytes);
  if (c == nullptr) {
    return;
  }
  const auto us = static_cast<float>(vcuda::ns_to_us(dur));
  std::uint64_t old = c->state.load(std::memory_order_relaxed);
  const std::uint32_t n = count_of(old);
  const float next =
      n == 0 ? us : ewma_of(old) + kEwmaAlpha * (us - ewma_of(old));
  const std::uint32_t n1 = n == 0xffffffffu ? n : n + 1;
  // Single CAS attempt: a contended sample is dropped, never retried —
  // the observation path must stay wait-free.
  c->state.compare_exchange_weak(old, pack_state(n1, next),
                                 std::memory_order_relaxed,
                                 std::memory_order_relaxed);
  g_counters.observations.add();
  if (n1 >= kMinSamples &&
      drifted(next, c->applied.load(std::memory_order_relaxed))) {
    g_drift_pending.store(true, std::memory_order_relaxed);
  }
}

bool wire_observable(std::size_t bytes) {
  // enabled() first: the disabled path must stay one relaxed load.
  return enabled() && bytes > sysmpi::net_params().eager_bytes;
}

bool fold_into(SystemPerf &perf, bool mark_applied) {
  // In Axis order.
  Table1D *const tables_1d[kAxes1D] = {&perf.gpu_gpu, &perf.cpu_cpu,
                                       &perf.d2h, &perf.h2d};
  Table2D *const tables_2d[kAxes2D] = {&perf.device_pack, &perf.device_unpack,
                                       &perf.oneshot_pack,
                                       &perf.oneshot_unpack};
  bool changed = false;
  for (std::size_t a = 0; a < kAxes1D; ++a) {
    changed |= fold_1d(g_cells_1d[a], *tables_1d[a], mark_applied);
  }
  for (std::size_t a = 0; a < kAxes2D; ++a) {
    changed |= fold_2d(g_cells_2d[a], *tables_2d[a], mark_applied);
  }
  return changed;
}

bool drift_pending() {
  return g_drift_pending.load(std::memory_order_relaxed);
}

void set_apply_hook(ApplyFn fn) {
  g_apply_hook.store(fn, std::memory_order_release);
}

bool refresh_now() {
  const ApplyFn hook = g_apply_hook.load(std::memory_order_acquire);
  if (hook == nullptr) {
    return false;
  }
  std::unique_lock<support::ContendedMutex> lk(g_refresh_mutex,
                                               std::try_to_lock);
  if (!lk.owns_lock()) {
    return false; // another thread is already refreshing
  }
  g_drift_pending.store(false, std::memory_order_relaxed);
  hook();
  return true;
}

bool maybe_refresh() {
  if (!g_drift_pending.load(std::memory_order_relaxed)) {
    return false;
  }
  return refresh_now();
}

support::LockStats refresh_lock_stats() { return g_refresh_mutex.stats(); }

std::uint64_t refresh_generation() {
  return g_refresh_gen.load(std::memory_order_acquire);
}

void note_refresh_applied() {
  g_transfer_config_gen.fetch_add(1, std::memory_order_release);
  g_refresh_gen.fetch_add(1, std::memory_order_release);
  g_counters.generation_bumps.add();
}

void note_refreeze() { g_counters.refreezes.add(); }

void reset() {
  const auto clear = [](Cell &c) {
    c.state.store(0, std::memory_order_relaxed);
    c.applied.store(-1.0f, std::memory_order_relaxed);
  };
  for (auto &axis : g_cells_1d) {
    std::ranges::for_each(axis, clear);
  }
  for (auto &axis : g_cells_2d) {
    for (auto &row : axis) {
      std::ranges::for_each(row, clear);
    }
  }
  g_drift_pending.store(false, std::memory_order_relaxed);
  g_counters.observations.reset();
  g_counters.updates.reset();
  g_counters.generation_bumps.reset();
  g_counters.refreezes.reset();
}

} // namespace tune

} // namespace tempi
