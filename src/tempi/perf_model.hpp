// Empirical performance model (Sec. 4, Sec. 6.3).
//
// TEMPI estimates the latency of the three packing methods from measured
// system properties:
//   T_device  = T_gpu-pack  + T_gpu-gpu  + T_gpu-unpack        (Eq. 1)
//   T_oneshot = T_host-pack + T_cpu-cpu  + T_host-unpack       (Eq. 2)
//   T_staged  = T_gpu-pack + T_d2h + T_cpu-cpu + T_h2d + T_gpu-unpack (Eq.3)
// Transfers are estimated by 1-D interpolation over message size;
// pack/unpack kernels by 2-D interpolation over {contiguous block length,
// object size}. A transfer decision is a pure function of its operands,
// so each PerfModel instance carries a fixed-size, lock-free, 2-way
// set-associative cache of its choose_transfer() results: a hit is one
// probe of a two-slot set (~277 ns per the paper), a miss runs the
// interpolation (~2 us) and publishes the winner. Process-wide hit/miss
// counts are the tempi.model.cache_hits / tempi.model.cache_misses trace
// counters.
#pragma once

#include "support/contended_mutex.hpp"
#include "vcuda/clock.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace tempi {

/// The paper's three monolithic methods plus the chunked Pipelined path
/// (device-space chunk buffers, one wire leg per chunk, pack/wire/unpack
/// overlapped). Values fit in 2 bits: the choice cache and the packer
/// method memo store Methods in the packed answer word of
/// TransferChoices::pack.
enum class Method { OneShot, Device, Staged, Pipelined };
const char *method_name(Method m);

/// Largest packed payload one contiguous wire leg can carry: the system
/// MPI transfer count is a C int. Monolithic methods fail with
/// MPI_ERR_COUNT beyond the (possibly lowered, see set_wire_chunk_limit)
/// limit instead of silently wrapping; the Pipelined method carries such
/// messages as multiple ordered wire legs instead.
inline constexpr std::size_t kMaxWireBytes = 2147483647u; // INT_MAX

/// The effective per-leg wire ceiling. Defaults to kMaxWireBytes;
/// injectable (clamped to [1, kMaxWireBytes]) so tests can exercise the
/// multi-leg >limit path with tiny messages instead of allocating
/// gigabytes. Returns the previous value. Changing it bumps the transfer
/// config generation, invalidating memoized transfer choices.
std::size_t wire_chunk_limit();
std::size_t set_wire_chunk_limit(std::size_t bytes);

/// TEMPI_CHUNK_BYTES override for the Pipelined chunk size (0 = none:
/// the model picks). Clamped to the wire-chunk limit at use time.
std::size_t chunk_bytes_override();
void set_chunk_bytes_override(std::size_t bytes);

/// Bumped by set_wire_chunk_limit / set_chunk_bytes_override so cached
/// transfer choices (choice cache slots, packer memos) keyed on an older
/// generation miss and re-consult the model.
std::uint64_t transfer_config_generation();

/// A transfer decision: the method, and for Pipelined the model-chosen
/// target wire-leg size (a power of two; the send path rounds it to whole
/// contiguous blocks and clamps it to the wire-chunk limit). chunk_bytes
/// is 0 for the monolithic methods.
struct TransferChoice {
  Method method = Method::Device;
  std::size_t chunk_bytes = 0;
};

/// What a transfer decision is made for (see PerfModel::choose_transfer).
enum class TransferKind : std::uint8_t {
  P2P,        ///< one Send/Isend message: cached
  Persistent, ///< a channel freeze (Send_init/Recv_init): exact, uncached
  Leg,        ///< one pre-packed collective wire leg: cached, by placement
};

/// The operands of a transfer decision besides its block and total bytes.
struct TransferOperands {
  TransferKind kind = TransferKind::P2P;
  bool same_node = false;       ///< Leg: the peer shares this rank's node
  std::size_t queued_bytes = 0; ///< Leg: bytes queued on the injection port
};

/// Both answers of one decision: the message alone and the message inside
/// a burst of non-blocking calls (burst pricing, see choose_transfers).
/// One model query fills both, so the choice cache and the packer memo
/// serve either context without a second query.
struct TransferChoices {
  TransferChoice isolated;
  TransferChoice overlapped;

  /// The answer word the choice cache and the packer memo both store in
  /// their low kPackedBits: [9:4] log2(chunk) | [3:2] the burst Method |
  /// [1:0] the isolated Method. One chunk field serves both answers: they
  /// can differ only below the wire-chunk limit, where neither is
  /// Pipelined, and above it both are the same Pipelined choice.
  static constexpr int kPackedBits = 10;
  [[nodiscard]] std::uint64_t pack() const {
    std::uint64_t chunk_log2 = 0;
    if (isolated.method == Method::Pipelined && isolated.chunk_bytes > 0) {
      chunk_log2 =
          static_cast<std::uint64_t>(std::bit_width(isolated.chunk_bytes) - 1);
    }
    return (chunk_log2 & 0x3F) << 4 |
           static_cast<std::uint64_t>(overlapped.method) << 2 |
           static_cast<std::uint64_t>(isolated.method);
  }
  [[nodiscard]] static TransferChoices unpack(std::uint64_t word) {
    const std::size_t chunk = std::size_t{1} << ((word >> 4) & 0x3F);
    const auto answer = [chunk](std::uint64_t bits) {
      const auto m = static_cast<Method>(bits & 0x3);
      return TransferChoice{m, m == Method::Pipelined ? chunk : 0};
    };
    return TransferChoices{answer(word), answer(word >> 2)};
  }
};

/// The choice-cache key of a decision; bits [9:1] pick its cache set
/// (tests: finding operands that share a set).
std::uint64_t choice_cache_key(std::size_t block_bytes,
                               std::size_t total_bytes,
                               const TransferOperands &ops);

/// Model-free chunk target for forced-Pipelined sends (TEMPI_METHOD=
/// pipelined or a forced monolithic method upgraded above the wire-chunk
/// limit): the override if set, else ~4 legs rounded down to a power of
/// two, clamped to [64 KiB, wire_chunk_limit()].
std::size_t fallback_chunk_bytes(std::size_t total_bytes);

/// Piecewise-linear interpolation table over message size (log-spaced).
struct Table1D {
  std::vector<double> bytes; ///< ascending sample sizes
  std::vector<double> us;    ///< measured latency at each size
  [[nodiscard]] double query(double b) const;
};

/// Bilinear interpolation over {contiguous block length, object size}.
struct Table2D {
  std::vector<double> block_bytes; ///< ascending
  std::vector<double> total_bytes; ///< ascending
  std::vector<double> us;          ///< row-major [block][total]
  [[nodiscard]] double query(double block, double total) const;
  [[nodiscard]] double &at(std::size_t bi, std::size_t ti) {
    return us[bi * total_bytes.size() + ti];
  }
};

/// The measurement set the paper's system-measurement binary records.
struct SystemPerf {
  Table1D cpu_cpu; ///< Send/Recv ping-pong, pinned host buffers
  Table1D gpu_gpu; ///< Send/Recv ping-pong, device buffers (CUDA-aware)
  Table1D d2h;     ///< cudaMemcpyAsync device->host + synchronize
  Table1D h2d;     ///< cudaMemcpyAsync host->device + synchronize
  Table2D device_pack, device_unpack;   ///< kernel into device memory
  Table2D oneshot_pack, oneshot_unpack; ///< kernel into mapped host memory
};

/// Serialize/deserialize the measurement file (TEMPI_PERF_FILE).
bool save_perf(const SystemPerf &perf, const std::string &path);
std::optional<SystemPerf> load_perf(const std::string &path);

/// Built-in calibration: the same quantities evaluated analytically from
/// the substrate cost models, used when no measurement file exists.
SystemPerf builtin_perf();

class PerfModel {
public:
  PerfModel() : PerfModel(builtin_perf()) {}
  explicit PerfModel(SystemPerf perf);
  PerfModel(const PerfModel &other);            ///< copies start cache-cold
  PerfModel &operator=(const PerfModel &other); ///< ditto
  PerfModel(PerfModel &&other) noexcept;        ///< moves keep the cache
  PerfModel &operator=(PerfModel &&other) noexcept;
  ~PerfModel();

  /// Estimated end-to-end Send/Recv latency (us) of `m` for objects with
  /// `block_bytes`-long contiguous blocks totalling `total_bytes`. For
  /// Method::Pipelined this is the best pipelined estimate over the
  /// candidate chunk sizes (see estimate_pipelined_us).
  [[nodiscard]] double estimate_us(Method m, double block_bytes,
                                   double total_bytes) const;

  /// Pipelined (chunked) estimate with an explicit chunk size: a 3-stage
  /// pipeline of per-chunk pack, wire, and unpack legs,
  ///   T = p + w + u + (C-1) * max(p, w, u),   C = ceil(total / chunk),
  /// where the per-chunk stage times come from the device-method tables
  /// (pipelined chunks ride device-space buffers and the CUDA-aware wire).
  /// The per-chunk latency floors (kernel launch/sync, the ~6 us GPU wire
  /// floor) are inside the table queries, so shrinking chunks naturally
  /// stops paying off.
  [[nodiscard]] double estimate_pipelined_us(double block_bytes,
                                             double total_bytes,
                                             double chunk_bytes) const;

  /// The transfer decision: every method choice goes through here.
  /// Within the wire-chunk limit a message gets the argmin of estimate_us
  /// over the monolithic methods: their one-message framing is what lets
  /// a peer that fell through to the system path still reassemble, so
  /// under-limit pipelining stays an explicit opt-in
  /// (SendMode::ForcePipelined). Above the limit it is Pipelined with the
  /// best_pipelined chunk. A Leg is a packed contiguous collective slice
  /// (block_bytes unused): Device wire vs Staged through pinned host
  /// memory, priced from the netmodel's intra/inter-node terms and the
  /// copy tables; the device wire waits behind `queued_bytes` while the
  /// staged D2H overlaps its drain. Above the limit a Leg is Pipelined at
  /// the largest in-limit power of two (the fewest legs win).
  ///
  /// P2P and Leg decisions go through this instance's lock-free choice
  /// cache (a hit is one atomic load, kModelQueryCachedNs; a miss costs
  /// kModelQueryUncachedNs). A Persistent decision is made once per
  /// channel: exact, bypassing the cache both ways (a quantized hit could
  /// shadow the exact argmin; a freeze must not evict hot entries), with
  /// the dense chunk grid and a second uncached charge above the limit.
  /// This is the isolated answer of choose_transfers.
  [[nodiscard]] TransferChoice
  choose_transfer(std::size_t block_bytes, std::size_t total_bytes,
                  TransferOperands ops = {}) const {
    return choose_transfers(block_bytes, total_bytes, ops).isolated;
  }

  /// Both answers of one decision, charged and cached like one
  /// choose_transfer: a cache slot holds the pair, so one miss serves
  /// both answers.
  ///
  /// Isolated vs burst pricing (P2P only). Eqs. 1-3 price a message as if
  /// it ran alone: pack + wire + unpack, the wire paying its table's
  /// latency floor (the 1-byte query). That is right for one ping-pong. In
  /// a burst (an Isend/Irecv posted after another non-blocking call,
  /// before the completion call) the eager wires overlap and hide each
  /// other's floors, while each post still pays its own pack fence; in
  /// LogGP terms a burst pays the per-message overhead and gap, not the
  /// latency L (Alexandrov et al., SPAA 1995). So the burst answer prices
  /// the monolithic candidates as pack + (wire - the wire table's 1-byte
  /// query) + unpack, which moves halo-sized messages from one-shot's
  /// serialized host packs to device packs (README's method-selection
  /// section has the traced evidence). Persistent and Leg decisions, and anything
  /// above the wire-chunk limit, carry the isolated answer twice.
  [[nodiscard]] TransferChoices
  choose_transfers(std::size_t block_bytes, std::size_t total_bytes,
                   TransferOperands ops = {}) const;

  /// The best pipelined chunk size and its estimate for this message:
  /// power-of-two chunks from 64 KiB up to the wire-chunk limit, plus
  /// their 3/2 midpoints when `dense`. A TEMPI_CHUNK_BYTES override is
  /// the only candidate (rounded down to a power of two unless dense).
  /// Benches sweep it to compare against the monolithic estimates.
  struct PipelinedEstimate {
    std::size_t chunk_bytes = 0;
    double us = 0.0;
  };
  [[nodiscard]] PipelinedEstimate best_pipelined(double block_bytes,
                                                 double total_bytes,
                                                 bool dense = false) const;

  [[nodiscard]] const SystemPerf &perf() const { return perf_; }

private:
  struct ChoiceCache; // fixed-size lock-free cache, defined in the .cpp
  /// The uncached decision behind choose_transfers.
  [[nodiscard]] TransferChoices decide(std::size_t block_bytes,
                                       std::size_t total_bytes,
                                       const TransferOperands &ops,
                                       std::size_t limit) const;
  SystemPerf perf_;
  std::unique_ptr<ChoiceCache> cache_;
};

/// Virtual cost charged per cached / uncached model selection, and per
/// packer-level method-memo hit (steady-state sends that skip the model
/// entirely; see Packer::cached_transfer).
inline constexpr vcuda::VirtualNs kModelQueryCachedNs = 277;
inline constexpr vcuda::VirtualNs kModelQueryUncachedNs = 2000;
inline constexpr vcuda::VirtualNs kMethodMemoHitNs = 60;

// ---------------------------------------------------------------------------
// Closed-loop self-tuning (Sec. 6.3 feedback).
//
// The interposer's op-completion sites report measured pack/wire/unpack
// durations here, keyed by the same {block, total} / {bytes} axes as the
// interpolation tables above. Observations land in a fixed grid of
// power-of-two cells (one EWMA per cell, lock-free); when a cell's value
// drifts past a hysteresis threshold relative to what the live tables
// last saw, a refresh is flagged. The refresh itself is deferred off the
// completion path: the interposer folds the drifted cells into a copy of
// the live SystemPerf, swaps the model, and bumps both the model and
// transfer-config generations so the choice cache and per-packer memos
// re-consult the tables. Persistent channels watch refresh_generation()
// and lazily re-run their exhaustive search at the next MPI_Start.
// ---------------------------------------------------------------------------
namespace tune {

/// Which table a measured duration feeds. The first four are 1-D (by
/// message bytes); the rest are 2-D (by {block bytes, total bytes}).
enum class Axis : std::uint8_t {
  GpuWire,  ///< SystemPerf::gpu_gpu
  CpuWire,  ///< SystemPerf::cpu_cpu
  D2H,      ///< SystemPerf::d2h
  H2D,      ///< SystemPerf::h2d
  DevicePack,
  DeviceUnpack,
  OneshotPack,
  OneshotUnpack,
};

/// Master switch (TEMPI_TUNE, default on). enabled() is one relaxed load:
/// it is the entire per-op cost when tuning is off.
bool enabled();
void set_enabled(bool on);

/// Record one measured duration. block_bytes is ignored (pass 0) for the
/// 1-D axes; zero total_bytes (or zero block_bytes on a 2-D axis) drops
/// the sample. Lock-free: one CAS attempt on the cell's EWMA word — a
/// contended sample is dropped, never retried.
void observe(Axis axis, std::size_t block_bytes, std::size_t total_bytes,
             vcuda::VirtualNs dur);

/// RAII observation around an op-completion region: stamps the virtual
/// clock at construction and observe()s the elapsed virtual time at
/// destruction. Construction with tuning disabled (or armed=false) costs
/// exactly one relaxed load. total may be bound late via set_total()
/// (e.g. once the pack pipeline reports its packed byte count); a still-
/// zero total drops the sample.
class ScopedObservation {
public:
  ScopedObservation(Axis axis, std::size_t block_bytes,
                    std::size_t total_bytes, bool armed = true)
      : armed_(armed && enabled()), axis_(axis), block_(block_bytes),
        total_(total_bytes) {
    if (armed_) {
      t0_ = vcuda::virtual_now();
    }
  }
  ~ScopedObservation() {
    if (armed_) {
      observe(axis_, block_, total_, vcuda::virtual_now() - t0_);
    }
  }
  ScopedObservation(const ScopedObservation &) = delete;
  ScopedObservation &operator=(const ScopedObservation &) = delete;
  void set_total(std::size_t total_bytes) { total_ = total_bytes; }
  void disarm() { armed_ = false; }

private:
  bool armed_;
  Axis axis_;
  std::size_t block_;
  std::size_t total_;
  vcuda::VirtualNs t0_ = 0;
};

/// True when sender-side wire durations for `bytes` are trustworthy: the
/// system transport returns immediately from eager sends (the duration
/// would measure host overhead, not the wire), so only rendezvous-sized
/// payloads observe. Receiver-side wire durations are never observed —
/// Recv waits include sender skew. Short-circuits on enabled() first so
/// the disabled path stays one relaxed load.
bool wire_observable(std::size_t bytes);

/// Fold every converged cell into `perf` as an exact knot at the cell's
/// power-of-two coordinates (inserting rows/columns seeded from the
/// pre-insertion interpolation where needed). Returns true if any knot
/// changed. With mark_applied (the live-model refresh path) the folded
/// values become the new drift baseline and the updates counter advances;
/// without it (TEMPI_TUNE_SAVE) the fold is a read-only export.
bool fold_into(SystemPerf &perf, bool mark_applied = true);

/// True when some cell has drifted past the hysteresis threshold since
/// the last refresh.
bool drift_pending();

/// The interposer's refresh callback: fold observations into the live
/// model, swap it, bump generations (install() registers it; it runs
/// outside any tune-internal lock).
using ApplyFn = void (*)();
void set_apply_hook(ApplyFn fn);

/// Hot-path refresh check: one relaxed load when nothing drifted. When a
/// drift is pending (and a hook is registered), clears the flag and runs
/// the hook; concurrent callers skip instead of queueing. Returns whether
/// the hook ran.
bool maybe_refresh();

/// Unconditional refresh (benches/tests): runs the hook regardless of the
/// drift flag. Returns whether the hook ran.
bool refresh_now();

/// Bumped (via note_refresh_applied) each time a tuned model is actually
/// swapped in. Persistent channels snapshot this at freeze time and
/// re-choose lazily when it moves — at most one re-search per bump.
std::uint64_t refresh_generation();

/// Called by the apply hook after a successful model swap: bumps
/// refresh_generation(), the transfer-config generation, and the
/// tempi.model.generation_bumps counter.
void note_refresh_applied();

/// Called by the persistent engine when a channel actually re-freezes
/// (re-records its program) after a generation bump.
void note_refreeze();

/// Clear every cell, the drift flag, and the counters (not the
/// generations). Tests call this for isolation.
void reset();

/// Acquire/contention counters of the refresh mutex. refresh_now() only
/// try-locks it, so `contended` counts refreshes skipped because another
/// thread was already folding — never a stall. Exported as the
/// tempi.lock.tune_refresh.* gauges.
support::LockStats refresh_lock_stats();

} // namespace tune

} // namespace tempi
