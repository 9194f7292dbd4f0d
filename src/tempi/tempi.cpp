// TEMPI's interposed MPI entry points (Sec. 5).
//
// Each tempi_* function either adds datatype acceleration or forwards to
// the saved system table (the dlsym(RTLD_NEXT) pointers captured at
// install time).
#include "tempi/tempi.hpp"

#include "support/log.hpp"
#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/blocklist_packer.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/canonicalize.hpp"
#include "tempi/collectives.hpp"
#include "tempi/measure.hpp"
#include "tempi/methods.hpp"
#include "tempi/reduce.hpp"
#include "tempi/replay.hpp"
#include "tempi/schedule.hpp"
#include "tempi/strided_block.hpp"
#include "tempi/topology.hpp"
#include "tempi/trace.hpp"
#include "tempi/translate.hpp"
#include "vcuda/runtime.hpp"

#include <array>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string_view>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tempi {

namespace {

/// One slot of the open-addressed datatype-handle cache (the per-send fast
/// path). Slots are seqlock-published: `seq` is even when stable, odd while
/// a writer owns the slot, so a reader that sees consistent even `seq`
/// around its field loads got an untorn (dt, packer, gen) triple. Any
/// commit or free bumps the global generation, invalidating every slot at
/// once; raw packer pointers stay safe because freed packers are retired,
/// not destroyed (see State::retired_packers).
struct HandleSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<MPI_Datatype> dt{nullptr};
  std::atomic<const Packer *> packer{nullptr};
  std::atomic<std::uint64_t> gen{0};
};

constexpr std::size_t kHandleSlots = 64; // power of two
constexpr std::size_t kHandleProbes = 4;

std::uint64_t mix_handle(MPI_Datatype dt) {
  // One xor-multiply round: enough dispersion for 64 slots, and this runs
  // on every interposed send.
  auto x = reinterpret_cast<std::uintptr_t>(dt) >> 4; // drop alignment bits
  x = (x ^ (x >> 33)) * 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

struct State {
  interpose::MpiTable next; ///< the system MPI (dlsym view)
  bool installed = false;

  std::shared_mutex packers_mutex;
  std::unordered_map<MPI_Datatype, std::shared_ptr<const Packer>> packers;
  /// Packers of freed datatypes, kept alive so raw pointers held by the
  /// handle cache and in-flight ops never dangle. Drained only at the
  /// quiescent points (Finalize, uninstall); a strided Packer is ~200
  /// bytes, so even commit/free-heavy runs retire kilobytes, not
  /// megabytes. A retired block-list packer (the opt-in Sec. 8 fallback)
  /// also keeps its device metadata, 16 B per block, until then.
  std::vector<std::shared_ptr<const Packer>> retired_packers;
  std::atomic<bool> blocklist_fallback{false};

  std::array<HandleSlot, kHandleSlots> handle_cache;
  std::atomic<std::uint64_t> handle_gen{1};

  std::shared_mutex model_mutex;
  PerfModel model;
  /// Bumped whenever the model is replaced; packer method memos keyed on
  /// an older generation miss and re-consult the model.
  std::atomic<std::uint64_t> model_gen{1};

  std::atomic<SendMode> mode{SendMode::Auto};
  std::atomic<bool> persistent_enabled{true};

  // Interposer counters live in the metrics registry (trace.hpp): each is
  // a named self-registering atomic, read by name through
  // trace::counter_value().
  trace::Counter method_memo_hits{"tempi.model.memo_hits"};
  /// Auto P2P decisions served with burst pricing (memo or model).
  trace::Counter overlapped_choices{"tempi.model.overlapped_choices"};
  trace::Counter persistent_forwarded{"tempi.persistent.forwarded"};

  /// Accelerated sends, indexed by Method.
  std::array<trace::Counter, 4> sends{trace::Counter{"tempi.send.oneshot"},
                                      trace::Counter{"tempi.send.device"},
                                      trace::Counter{"tempi.send.staged"},
                                      trace::Counter{"tempi.send.pipelined"}};
  trace::Counter sends_forwarded{"tempi.send.forwarded"};

  /// Accelerated Isends, indexed by Method.
  std::array<trace::Counter, 4> isends{trace::Counter{"tempi.isend.oneshot"},
                                       trace::Counter{"tempi.isend.device"},
                                       trace::Counter{"tempi.isend.staged"},
                                       trace::Counter{"tempi.isend.pipelined"}};
  trace::Counter isends_forwarded{"tempi.isend.forwarded"};
  trace::Counter irecvs_accelerated{"tempi.irecv.accelerated"};
  trace::Counter irecvs_forwarded{"tempi.irecv.forwarded"};

  // The repeated MPI_Pack/MPI_Unpack replay table (see pack_call).
  trace::Counter pack_replays{"tempi.pack.replays"};
  trace::Counter pack_captures{"tempi.pack.captures"};
  trace::Counter pack_evictions{"tempi.pack.evictions"};

  std::once_flag perf_loaded; ///< install(): TEMPI_PERF_FILE bootstrap
  std::once_flag env_loaded;  ///< first Init: method/chunk env knobs

  /// Self-tuning bootstrap state, written once under perf_loaded by
  /// install() (before any interposed traffic) and read-only afterwards.
  std::string calibration = "builtin";
  std::string tune_save; ///< TEMPI_TUNE_SAVE target ("" = don't persist)
};

State &state() {
  static State s;
  return s;
}

// --- self-tuning loop glue (see perf_model.hpp, namespace tune) --------------

/// tune:: apply hook: fold the converged observation cells into a copy of
/// the live tables and swap the model. The PerfModel copy starts
/// cache-cold, so every cached choice is invalidated by the swap itself;
/// bumping model_gen + the transfer-config/refresh generations makes the
/// per-packer memos and persistent channels re-consult it too.
void apply_tuned_model() {
  State &s = state();
  SystemPerf perf;
  {
    const std::shared_lock<std::shared_mutex> lock(s.model_mutex);
    perf = s.model.perf();
  }
  if (!tune::fold_into(perf)) {
    return; // nothing converged or drifted: keep the live model
  }
  {
    const std::unique_lock<std::shared_mutex> lock(s.model_mutex);
    s.model = PerfModel(std::move(perf));
    s.model_gen.fetch_add(1, std::memory_order_release);
  }
  tune::note_refresh_applied();
}

/// TEMPI_TUNE_SAVE: persist the live tables plus any not-yet-applied
/// observations. The fold is read-only (mark_applied=false) so saving
/// never changes the tuner's drift baselines — benches that save per
/// MPI_Finalize must still see their later refresh_now() apply.
void save_tuned_tables(State &s) {
  if (s.tune_save.empty()) {
    return;
  }
  SystemPerf perf;
  {
    const std::shared_lock<std::shared_mutex> lock(s.model_mutex);
    perf = s.model.perf();
  }
  tune::fold_into(perf, /*mark_applied=*/false);
  if (save_perf(perf, s.tune_save)) {
    support::log_info("tempi: saved tuned tables to ", s.tune_save);
  } else {
    support::log_warn("tempi: could not save tuned tables to ", s.tune_save);
  }
}

std::shared_ptr<const Packer> lookup_packer(MPI_Datatype dt) {
  State &s = state();
  const std::shared_lock<std::shared_mutex> lock(s.packers_mutex);
  const auto it = s.packers.find(dt);
  return it == s.packers.end() ? nullptr : it->second;
}

/// The per-send fast path: probe the handle cache (a couple of loads on a
/// hit, absences included), fall back to the authoritative map and refresh
/// a slot on a miss.
const Packer *lookup_packer_fast(MPI_Datatype dt) {
  State &s = state();
  const std::uint64_t gen = s.handle_gen.load(std::memory_order_acquire);
  const std::size_t home =
      static_cast<std::size_t>(mix_handle(dt)) & (kHandleSlots - 1);
  for (std::size_t p = 0; p < kHandleProbes; ++p) {
    HandleSlot &slot = s.handle_cache[(home + p) & (kHandleSlots - 1)];
    const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if ((s1 & 1) != 0) {
      continue; // mid-write
    }
    // Acquire loads keep the seq re-check below after the field loads.
    const MPI_Datatype d = slot.dt.load(std::memory_order_acquire);
    const Packer *pk = slot.packer.load(std::memory_order_acquire);
    const std::uint64_t g = slot.gen.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s1) {
      continue; // torn by a concurrent writer
    }
    if (d == dt && g == gen) {
      return pk; // pk may be nullptr: cached absence
    }
  }
  const Packer *pk = nullptr;
  {
    const std::shared_lock<std::shared_mutex> lock(s.packers_mutex);
    const auto it = s.packers.find(dt);
    pk = it == s.packers.end() ? nullptr : it->second.get();
  }
  // Refresh the first reusable probe slot — one already holding this
  // handle or invalidated by a generation bump — so hot handles sharing a
  // home do not evict each other; fall back to the home slot when the
  // whole window is live with other current-generation handles.
  std::size_t victim = home;
  for (std::size_t p = 0; p < kHandleProbes; ++p) {
    const std::size_t idx = (home + p) & (kHandleSlots - 1);
    const HandleSlot &slot = s.handle_cache[idx];
    if (slot.dt.load(std::memory_order_relaxed) == dt ||
        slot.gen.load(std::memory_order_relaxed) != gen) {
      victim = idx;
      break;
    }
  }
  HandleSlot &slot = s.handle_cache[victim];
  std::uint64_t expected = slot.seq.load(std::memory_order_relaxed);
  if ((expected & 1) == 0 &&
      slot.seq.compare_exchange_strong(expected, expected + 1,
                                       std::memory_order_acquire)) {
    slot.dt.store(dt, std::memory_order_relaxed);
    slot.packer.store(pk, std::memory_order_relaxed);
    slot.gen.store(gen, std::memory_order_relaxed);
    slot.seq.store(expected + 2, std::memory_order_release);
  }
  return pk;
}

/// Invalidate every handle-cache slot (any commit/free; callers hold the
/// packers_mutex unique lock so the bump and the map change are atomic
/// with respect to slow-path readers).
void bump_handle_generation(State &s) {
  s.handle_gen.fetch_add(1, std::memory_order_release);
}

// --- interposed entry points -------------------------------------------------
//
// Every entry that can wait on a peer or complete a request first flushes
// the calling thread's deferred sends, naming the kind of call (see "Send
// batching" in async.hpp). TEMPI's local calls that return without waiting
// (Init, Init_thread, Query_thread, Is_thread_main, the type calls,
// Pack/Unpack, Isend/Irecv, Send_init/Recv_init, Start/Startall) leave the
// list alone, so a burst interleaved with them still packs as one.

using async::FlushReason;

void flush(FlushReason why) { async::flush_sends(why, state().next); }

/// A positive decimal count, the whole of `text`; nullopt otherwise. Unlike
/// strtoull it takes no sign, so "-5" is refused rather than read as a
/// count near 2^64.
std::optional<std::size_t> parse_positive(std::string_view text) {
  std::size_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v == 0) {
    return std::nullopt;
  }
  return v;
}

// One-time process configuration shared by Init and Init_thread: honor
// TEMPI_METHOD for no-recompile method forcing. (The TEMPI_PERF_FILE
// measurement bootstrap happens earlier, at install(), so the model is
// calibrated before the first interposed call of any rank.)
void load_env_once(State &s) {
  std::call_once(s.env_loaded, [&s] {
    if (const char *env = std::getenv("TEMPI_METHOD")) {
      const std::string_view mode(env);
      if (mode == "oneshot") {
        s.mode = SendMode::ForceOneShot;
      } else if (mode == "device") {
        s.mode = SendMode::ForceDevice;
      } else if (mode == "staged") {
        s.mode = SendMode::ForceStaged;
      } else if (mode == "pipelined") {
        s.mode = SendMode::ForcePipelined;
      } else if (mode == "system") {
        s.mode = SendMode::System;
      } else if (mode == "auto") {
        s.mode = SendMode::Auto;
      } else {
        support::log_warn(
            "tempi: unknown TEMPI_METHOD '", env,
            "' (want auto|oneshot|device|staged|pipelined|system)");
      }
      support::log_info("tempi: TEMPI_METHOD=", env);
    }
    if (const char *env = std::getenv("TEMPI_CHUNK_BYTES")) {
      // No-recompile chunk tuning for the pipelined path (mirrors
      // TEMPI_METHOD): a positive byte count forces the wire-leg size.
      if (const auto v = parse_positive(env)) {
        set_chunk_bytes_override(*v);
        support::log_info("tempi: TEMPI_CHUNK_BYTES=", env);
      } else {
        support::log_warn("tempi: ignoring TEMPI_CHUNK_BYTES '", env,
                          "' (want a positive byte count)");
      }
    }
    if (const char *env = std::getenv("TEMPI_BLOCKLIST")) {
      s.blocklist_fallback = std::string_view(env) == "1";
    }
  });
}

int tempi_Init(int *argc, char ***argv) {
  State &s = state();
  const int rc = s.next.Init(argc, argv);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  load_env_once(s);
  return MPI_SUCCESS;
}

/// Thread-level negotiation passes straight through to the system MPI
/// (which grants `required`: the engine is MULTIPLE-safe), then runs the
/// same once-only env configuration as MPI_Init. TEMPI itself adds no
/// thread-level restriction: every interposed path is lock-striped or
/// per-thread, so whatever the system grants holds with TEMPI in front.
int tempi_Init_thread(int *argc, char ***argv, int required, int *provided) {
  State &s = state();
  const int rc = s.next.Init_thread(argc, argv, required, provided);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  load_env_once(s);
  return MPI_SUCCESS;
}

int tempi_Query_thread(int *provided) {
  return state().next.Query_thread(provided);
}

int tempi_Is_thread_main(int *flag) {
  return state().next.Is_thread_main(flag);
}

int tempi_Finalize() {
  flush(FlushReason::Blocking);
  State &s = state();
  drain_buffer_cache(); // this rank's cached intermediates
  save_tuned_tables(s); // TEMPI_TUNE_SAVE (no-op unless requested)
  // Observability fires here, not only at uninstall(): applications that
  // never call tempi::uninstall() still get their trace file and stats
  // report. flush() is idempotent, so every rank's Finalize re-writing
  // the (complete-so-far) trace is cheap and the last one wins.
  trace::flush();
  // Retired packers are NOT cleared here: Finalize is per rank, and other
  // ranks of this process may still be mid-send with raw packer pointers.
  // uninstall() is the process-wide quiescent point that destroys them.
  return s.next.Finalize();
}

int tempi_Type_commit(MPI_Datatype *datatype) {
  State &s = state();
  const int rc = s.next.Type_commit(datatype);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  MPI_Datatype dt = *datatype;
  {
    const std::shared_lock<std::shared_mutex> lock(s.packers_mutex);
    if (s.packers.contains(dt)) {
      return MPI_SUCCESS; // committing twice is legal and idempotent
    }
  }
  // Translation (3.1) -> canonicalization (3.2) -> kernel selection (3.3).
  // Non-strided types optionally fall back to the generic blocklist
  // engine (Sec. 8 extension), else to the system MPI.
  auto ir = translate(dt, s.next);
  std::optional<StridedBlock> sb;
  if (ir) {
    simplify(*ir);
    sb = to_strided_block(*ir);
  }
  std::shared_ptr<const Packer> packer;
  if (sb) {
    MPI_Aint lb = 0, extent = 0;
    int size = 0;
    s.next.Type_get_extent(dt, &lb, &extent);
    s.next.Type_size(dt, &size);
    packer = std::make_shared<const Packer>(std::move(*sb), extent, size);
  } else if (s.blocklist_fallback.load(std::memory_order_relaxed)) {
    if (auto bl = BlockListPacker::create(dt, s.next)) {
      packer = std::make_shared<const Packer>(std::move(bl));
    }
  }
  if (!packer) {
    support::log_debug("tempi: datatype not strided; system path");
    return MPI_SUCCESS;
  }
  {
    const std::unique_lock<std::shared_mutex> lock(s.packers_mutex);
    s.packers.emplace(dt, std::move(packer));
    bump_handle_generation(s); // invalidate cached absences for this handle
  }
  return MPI_SUCCESS;
}

int tempi_Type_free(MPI_Datatype *datatype) {
  State &s = state();
  if (datatype != nullptr && *datatype != nullptr) {
    const std::unique_lock<std::shared_mutex> lock(s.packers_mutex);
    const auto it = s.packers.find(*datatype);
    if (it != s.packers.end()) {
      // Retire, don't destroy: raw pointers from the handle cache may
      // still be riding in in-flight operations.
      s.retired_packers.push_back(std::move(it->second));
      s.packers.erase(it);
      bump_handle_generation(s);
    }
  }
  return s.next.Type_free(datatype);
}

// --- repeated MPI_Pack/MPI_Unpack replay -------------------------------------
//
// The paper's halo exchange repeats the same 26 packs and 26 unpacks every
// iteration; the thread's replay table (tempi/replay.hpp) records each
// repeated device pack/unpack call as a vcuda graph and replays it with one
// graph launch and a pre-armed fence instead of a cold launch and a
// blocking sync. The graph reads and writes through the key's pointers, so
// a replay moves the buffers' current bytes, exactly as a live call would.

/// What makes two calls the same work. `src`/`dst` are the effective
/// pointers, *position already applied to the packed side.
struct PackReplayKey {
  const Packer *packer = nullptr;
  const void *src = nullptr;
  const void *dst = nullptr;
  int count = 0;
  bool unpack = false;
  bool operator==(const PackReplayKey &) const = default;
  [[nodiscard]] std::uint64_t hash() const {
    return replay::mix(
        {replay::bits(packer), replay::bits(src), replay::bits(dst),
         (static_cast<std::uint64_t>(static_cast<unsigned>(count)) << 1) |
             static_cast<std::uint64_t>(unpack)});
  }
};

using PackReplayTable = replay::Table<PackReplayKey, replay::GraphPtr>;

/// One device MPI_Pack (`unpack` false) or MPI_Unpack body on the thread's
/// default stream: live on the first sighting of its key, captured on the
/// second, replayed from then on. Pack programs are bare graphs: they pin
/// no memory, so they charge nothing to the table's budget.
vcuda::Error pack_call(const Packer &packer, void *dst, const void *src,
                       int count, bool unpack) {
  State &s = state();
  const vcuda::StreamHandle stream = vcuda::default_stream();
  const std::uint64_t bytes = packer.packed_bytes(count);
  const auto live = [&] {
    trace::ScopedSpan span(
        unpack ? trace::Phase::Unpack : trace::Phase::PackLaunch,
        trace::OpKind::Pack, bytes);
    return unpack ? packer.unpack(dst, src, count, stream)
                  : packer.pack(dst, src, count, stream);
  };
  // An application capturing the default stream records this call itself.
  if (vcuda::StreamIsCapturing(stream)) {
    return live();
  }
  auto &table = replay::thread_table<PackReplayTable>(s.pack_evictions);
  const PackReplayTable::Entry *e = table.sight(
      {&packer, src, dst, count, unpack}, 0, &s.pack_captures,
      [&]() -> PackReplayTable::Recorded {
        vcuda::GraphHandle graph = nullptr; // stays null on a failed capture
        capture_on(stream, &graph, trace::OpKind::Pack, [&] {
          const vcuda::Error err =
              unpack ? packer.unpack_async(dst, src, count, stream)
                     : packer.pack_async(dst, src, count, stream);
          return err == vcuda::Error::Success ? MPI_SUCCESS : MPI_ERR_OTHER;
        });
        return {replay::GraphPtr(graph), 0};
      });
  if (e == nullptr) {
    return live(); // first sighting, or a failed capture
  }
  trace::ScopedSpan span(trace::Phase::GraphReplay, trace::OpKind::Pack,
                         bytes);
  if (const vcuda::Error err = vcuda::GraphLaunch(e->program.get(), stream);
      err != vcuda::Error::Success) {
    return err;
  }
  s.pack_replays.add();
  return vcuda::StreamFence(stream);
}

int tempi_Pack(const void *inbuf, int incount, MPI_Datatype datatype,
               void *outbuf, int outsize, int *position, MPI_Comm comm) {
  State &s = state();
  const Packer *packer = lookup_packer_fast(datatype);
  if (!packer || incount == 0 ||
      !(device_resident(inbuf) || device_resident(outbuf))) {
    return s.next.Pack(inbuf, incount, datatype, outbuf, outsize, position,
                       comm);
  }
  if (position == nullptr || incount < 0) {
    return MPI_ERR_ARG;
  }
  const auto bytes = static_cast<long long>(packer->packed_bytes(incount));
  if (*position + bytes > outsize) {
    return MPI_ERR_TRUNCATE;
  }
  auto *out = static_cast<std::byte *>(outbuf) + *position;
  if (pack_call(*packer, out, inbuf, incount, /*unpack=*/false) !=
      vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  *position += static_cast<int>(bytes);
  return MPI_SUCCESS;
}

int tempi_Unpack(const void *inbuf, int insize, int *position, void *outbuf,
                 int outcount, MPI_Datatype datatype, MPI_Comm comm) {
  State &s = state();
  const Packer *packer = lookup_packer_fast(datatype);
  if (!packer || outcount == 0 ||
      !(device_resident(inbuf) || device_resident(outbuf))) {
    return s.next.Unpack(inbuf, insize, position, outbuf, outcount, datatype,
                         comm);
  }
  if (position == nullptr || outcount < 0) {
    return MPI_ERR_ARG;
  }
  const auto bytes = static_cast<long long>(packer->packed_bytes(outcount));
  if (*position + bytes > insize) {
    return MPI_ERR_TRUNCATE;
  }
  const auto *in = static_cast<const std::byte *>(inbuf) + *position;
  if (pack_call(*packer, outbuf, in, outcount, /*unpack=*/true) !=
      vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  *position += static_cast<int>(bytes);
  return MPI_SUCCESS;
}

/// True when `buf`'s side of a multi-leg call gives TEMPI something to
/// accelerate. For the collectives engine (`for_collectives`) that is the
/// executor's own side classifier: anything but Side::Other — a
/// device-resident buffer with a canonical strided packer or a contiguous
/// datatype; block-list types are deliberately excluded, the engine has
/// no block-list leg, so they keep the system MPI's native collectives.
/// For the Sendrecv decomposition it means whatever Isend/Irecv would
/// accelerate: any committed packer.
bool side_accelerable(const void *buf, MPI_Datatype dt,
                      bool for_collectives) {
  if (for_collectives) {
    return sched::classify(buf, dt) != sched::Side::Other;
  }
  return buf != nullptr && dt != nullptr && device_resident(buf) &&
         lookup_packer_fast(dt) != nullptr;
}

/// The one guarded system-path gate shared by every multi-leg entry point
/// (MPI_Sendrecv's Isend+Irecv decomposition and the collectives engine):
/// true when TEMPI cannot add value — the interposer is not installed,
/// forcing says System, or neither side is accelerable. Callers forward
/// to the system MPI in one place instead of re-deriving the check on
/// each (error) path.
bool fallthrough_to_sysmpi(const void *sendbuf, MPI_Datatype sendtype,
                           const void *recvbuf, MPI_Datatype recvtype,
                           bool for_collectives) {
  State &s = state();
  if (!s.installed ||
      s.mode.load(std::memory_order_relaxed) == SendMode::System) {
    return true;
  }
  return !side_accelerable(sendbuf, sendtype, for_collectives) &&
         !side_accelerable(recvbuf, recvtype, for_collectives);
}

/// Shared gate for the reduction engine (tempi/reduce.*). Unlike the
/// exchange collectives' gate above, every check here is process-uniform
/// — not-installed, forced-system mode (both process-global), the
/// TEMPI_RED kill-switch, and the (datatype, op) combine shape — so all
/// interposed ranks agree on engine vs system path. Per-rank facts
/// (buffer residency) are deliberately absent: the engine handles those
/// itself for named datatypes, where it stays wire- and tag-compatible
/// with system-path peers of the same call.
bool reduction_fallthrough(MPI_Datatype datatype, MPI_Op op) {
  State &s = state();
  if (!s.installed ||
      s.mode.load(std::memory_order_relaxed) == SendMode::System) {
    return true;
  }
  return !red::enabled() || !red::engine_shape_ok(datatype, op);
}

/// The acceleration gate the per-send and persistent choices share: TEMPI
/// takes over only for non-contiguous, translatable datatypes on
/// device-resident buffers. Zero-size payloads (empty types or count 0)
/// forward too: there is nothing to pack, and the kernels reject
/// zero-volume launches. A block-list packer (Sec. 8 extension) always
/// ships via the device method: it has no ranged legs for Pipelined and
/// no block size for the model. Otherwise a forced mode decides here;
/// Auto defers to `choose_auto(total)` with the packed byte total.
/// Returns the method plus, for Method::Pipelined, the chosen wire-leg
/// target; nullopt falls through to the system path.
template <class ChooseAuto>
std::optional<TransferChoice> gated_choice(const Packer *packer,
                                           const void *buf, int count,
                                           ChooseAuto &&choose_auto) {
  if (packer == nullptr || packer->contiguous() || count == 0 ||
      packer->packed_bytes(count) == 0 || !device_resident(buf)) {
    return std::nullopt;
  }
  const SendMode mode = state().mode.load(std::memory_order_relaxed);
  if (mode == SendMode::System) {
    return std::nullopt;
  }
  if (!packer->strided()) {
    return TransferChoice{Method::Device, 0};
  }
  const std::size_t total = packer->packed_bytes(count);
  // Forced monolithic methods upgrade to Pipelined above the wire-chunk
  // limit: no single leg can carry the message, and multiple ordered legs
  // beat the historical MPI_ERR_COUNT.
  const auto forced = [&](Method m) -> TransferChoice {
    if (total > wire_chunk_limit() || m == Method::Pipelined) {
      return TransferChoice{Method::Pipelined, fallback_chunk_bytes(total)};
    }
    return TransferChoice{m, 0};
  };
  switch (mode) {
  case SendMode::ForceOneShot: return forced(Method::OneShot);
  case SendMode::ForceDevice: return forced(Method::Device);
  case SendMode::ForceStaged: return forced(Method::Staged);
  case SendMode::ForcePipelined: return forced(Method::Pipelined);
  case SendMode::System:
  case SendMode::Auto: break;
  }
  return choose_auto(total);
}

/// The calling thread's burst context: set by each non-blocking post
/// (Isend, Irecv, Start, Startall), cleared by every completion call
/// (Wait*, Test*) and by Request_free. An Isend/Irecv posted while it is
/// set will complete together with an earlier post, so its wire overlaps
/// that post's and it takes the model's burst answer (see
/// PerfModel::choose_transfers). A request completed on another thread
/// leaves the flag set until this thread's next completion call.
thread_local bool t_in_burst = false;

/// Marks a non-blocking post; true when it joins a burst.
bool note_post() { return std::exchange(t_in_burst, true); }
void note_completion() { t_in_burst = false; }

/// Shared Send/Recv/Isend/Irecv gate (see gated_choice); Auto uses the
/// memoized model heuristic, its burst answer when `overlapped`.
std::optional<TransferChoice> acceleration_method(const Packer *packer,
                                                  const void *buf, int count,
                                                  bool overlapped = false) {
  return gated_choice(packer, buf, count, [&](std::size_t total) {
    State &s = state();
    if (overlapped) {
      s.overlapped_choices.add();
    }
    // Steady state: the packer remembers the model's answers — method and
    // chunk, isolated and in a burst — per (count, generation): one
    // atomic load, no model lock, no interpolation. The generation folds
    // in the transfer config (wire limit, chunk override) so tuning knobs
    // invalidate stale choices.
    const std::uint64_t gen = choice_generation();
    if (const auto memo = packer->cached_transfers(count, gen)) {
      vcuda::this_thread_timeline().advance(kMethodMemoHitNs);
      s.method_memo_hits.add();
      return overlapped ? memo->overlapped : memo->isolated;
    }
    TransferChoices choices;
    {
      trace::ScopedSpan span(trace::Phase::ModelChoice, trace::OpKind::None,
                             total);
      const std::shared_lock<std::shared_mutex> lock(s.model_mutex);
      choices = s.model.choose_transfers(
          static_cast<std::size_t>(packer->block().block_bytes()), total);
      span.set_method(static_cast<std::int8_t>(
          (overlapped ? choices.overlapped : choices.isolated).method));
    }
    packer->remember_transfers(count, gen, choices);
    return overlapped ? choices.overlapped : choices.isolated;
  });
}

int tempi_Send(const void *buf, int count, MPI_Datatype datatype, int dest,
               int tag, MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  tune::maybe_refresh(); // one relaxed load unless an observation drifted
  if (dest == MPI_PROC_NULL) {
    return s.next.Send(buf, count, datatype, dest, tag, comm);
  }
  const Packer *packer = lookup_packer_fast(datatype);
  const auto method = acceleration_method(packer, buf, count);
  if (!method) {
    s.sends_forwarded.add();
    return s.next.Send(buf, count, datatype, dest, tag, comm);
  }
  s.sends[static_cast<std::size_t>(method->method)].add();
  return async::send(*packer, method->method, buf, count, dest, tag, comm,
                     s.next, method->chunk_bytes);
}

int tempi_Recv(void *buf, int count, MPI_Datatype datatype, int source,
               int tag, MPI_Comm comm, MPI_Status *status) {
  flush(FlushReason::Blocking);
  State &s = state();
  tune::maybe_refresh(); // one relaxed load unless an observation drifted
  if (source == MPI_PROC_NULL) {
    return s.next.Recv(buf, count, datatype, source, tag, comm, status);
  }
  const Packer *packer = lookup_packer_fast(datatype);
  const auto method = acceleration_method(packer, buf, count);
  if (!method) {
    return s.next.Recv(buf, count, datatype, source, tag, comm, status);
  }
  return async::recv(*packer, method->method, buf, count, source, tag, comm,
                     status, s.next);
}

// --- non-blocking entry points (the request engine, async.hpp) ---------------

int tempi_Isend(const void *buf, int count, MPI_Datatype datatype, int dest,
                int tag, MPI_Comm comm, MPI_Request *request);
int tempi_Irecv(void *buf, int count, MPI_Datatype datatype, int source,
                int tag, MPI_Comm comm, MPI_Request *request);
int tempi_Waitall(int count, MPI_Request *requests, MPI_Status *statuses);

/// Extension beyond the paper's Send/Recv scope: MPI_Sendrecv decomposes
/// into Isend + Irecv + Waitall rather than a serialized blocking Send
/// then Recv, so both directions' pipelines overlap — the receive's wire
/// buffer is matched while the send side still has legs in flight, and
/// Waitall's batched sync covers the unpack legs of both. Deadlock-free
/// because the send is on the wire before the receive waits: it is posted
/// eagerly (buffered sends), or, when it joins a burst of earlier posts and
/// defers, the Waitall flushes it before it waits on the receive (see
/// "Send batching" in async.hpp).
int tempi_Sendrecv(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                   int dest, int sendtag, void *recvbuf, int recvcount,
                   MPI_Datatype recvtype, int source, int recvtag,
                   MPI_Comm comm, MPI_Status *status) {
  flush(FlushReason::Blocking);
  // Host-only / forced-system calls take the system MPI's own Sendrecv
  // through the shared gate instead of riding the decomposition below —
  // whose error paths previously re-entered the request engine even when
  // TEMPI had nothing to accelerate on either side.
  if (fallthrough_to_sysmpi(sendbuf, sendtype, recvbuf, recvtype,
                            /*for_collectives=*/false)) {
    return state().next.Sendrecv(sendbuf, sendcount, sendtype, dest, sendtag,
                                 recvbuf, recvcount, recvtype, source,
                                 recvtag, comm, status);
  }
  MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  const int src = tempi_Isend(sendbuf, sendcount, sendtype, dest, sendtag,
                              comm, &reqs[0]);
  if (src != MPI_SUCCESS) {
    return src;
  }
  const int rrc = tempi_Irecv(recvbuf, recvcount, recvtype, source, recvtag,
                              comm, &reqs[1]);
  if (rrc != MPI_SUCCESS) {
    // The posted send is buffered; reclaim its request before failing.
    tempi_Waitall(1, reqs, MPI_STATUSES_IGNORE);
    return rrc;
  }
  MPI_Status statuses[2];
  const int wrc = tempi_Waitall(2, reqs, statuses);
  if (wrc != MPI_SUCCESS) {
    return wrc;
  }
  if (status != MPI_STATUS_IGNORE) {
    *status = statuses[1]; // the receive's status, per MPI_Sendrecv
  }
  return MPI_SUCCESS;
}

int tempi_Isend(const void *buf, int count, MPI_Datatype datatype, int dest,
                int tag, MPI_Comm comm, MPI_Request *request) {
  State &s = state();
  tune::maybe_refresh(); // one relaxed load unless an observation drifted
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  const bool overlapped = note_post();
  if (dest == MPI_PROC_NULL) {
    return s.next.Isend(buf, count, datatype, dest, tag, comm, request);
  }
  const Packer *packer = lookup_packer_fast(datatype);
  const auto method = acceleration_method(packer, buf, count, overlapped);
  if (!method) {
    s.isends_forwarded.add();
    flush(FlushReason::NondeferrableSend);
    return s.next.Isend(buf, count, datatype, dest, tag, comm, request);
  }
  s.isends[static_cast<std::size_t>(method->method)].add();
  return async::start_isend(packer, method->method, buf, count, dest, tag,
                            comm, s.next, request, method->chunk_bytes,
                            overlapped);
}

int tempi_Irecv(void *buf, int count, MPI_Datatype datatype, int source,
                int tag, MPI_Comm comm, MPI_Request *request) {
  State &s = state();
  tune::maybe_refresh(); // one relaxed load unless an observation drifted
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  const bool overlapped = note_post();
  if (source == MPI_PROC_NULL) {
    return s.next.Irecv(buf, count, datatype, source, tag, comm, request);
  }
  const Packer *packer = lookup_packer_fast(datatype);
  const auto method = acceleration_method(packer, buf, count, overlapped);
  if (!method) {
    s.irecvs_forwarded.add();
    const int rc =
        s.next.Irecv(buf, count, datatype, source, tag, comm, request);
    if (rc == MPI_SUCCESS) {
      async::note_forwarded_recv(*request, source, tag, comm,
                                 /*persistent=*/false, s.next);
    }
    return rc;
  }
  s.irecvs_accelerated.add();
  return async::start_irecv(packer, method->method, buf, count, source, tag,
                            comm, s.next, request);
}

int tempi_Wait(MPI_Request *request, MPI_Status *status) {
  flush(FlushReason::Completion);
  State &s = state();
  note_completion();
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  if (async::owns(*request)) {
    return async::wait(request, status, s.next);
  }
  const MPI_Request forwarded = *request;
  const int rc = s.next.Wait(request, status);
  if (rc == MPI_SUCCESS) {
    async::note_forwarded_done(forwarded, /*freed=*/false);
  }
  return rc;
}

int tempi_Waitall(int count, MPI_Request *requests, MPI_Status *statuses) {
  flush(FlushReason::Completion);
  note_completion();
  return async::waitall(count, requests, statuses, state().next);
}

int tempi_Waitany(int count, MPI_Request *requests, int *index,
                  MPI_Status *status) {
  flush(FlushReason::Completion);
  note_completion();
  return async::waitany(count, requests, index, status, state().next);
}

int tempi_Test(MPI_Request *request, int *flag, MPI_Status *status) {
  flush(FlushReason::Completion);
  State &s = state();
  note_completion();
  if (request == nullptr || flag == nullptr) {
    return MPI_ERR_ARG;
  }
  if (async::owns(*request)) {
    return async::test(request, flag, status, s.next);
  }
  const MPI_Request forwarded = *request;
  const int rc = s.next.Test(request, flag, status);
  if (rc == MPI_SUCCESS && *flag != 0) {
    async::note_forwarded_done(forwarded, /*freed=*/false);
  }
  return rc;
}

int tempi_Waitsome(int incount, MPI_Request *requests, int *outcount,
                   int *indices, MPI_Status *statuses) {
  flush(FlushReason::Completion);
  note_completion();
  return async::waitsome(incount, requests, outcount, indices, statuses,
                         state().next);
}

int tempi_Testall(int count, MPI_Request *requests, int *flag,
                  MPI_Status *statuses) {
  flush(FlushReason::Completion);
  note_completion();
  return async::testall(count, requests, flag, statuses, state().next);
}

int tempi_Testany(int count, MPI_Request *requests, int *index, int *flag,
                  MPI_Status *status) {
  flush(FlushReason::Completion);
  note_completion();
  return async::testany(count, requests, index, flag, status, state().next);
}

int tempi_Testsome(int incount, MPI_Request *requests, int *outcount,
                   int *indices, MPI_Status *statuses) {
  flush(FlushReason::Completion);
  note_completion();
  return async::testsome(incount, requests, outcount, indices, statuses,
                         state().next);
}

// --- persistent operations (the channel fast path, async.hpp) ----------------

int tempi_Send_init(const void *buf, int count, MPI_Datatype datatype,
                    int dest, int tag, MPI_Comm comm, MPI_Request *request) {
  State &s = state();
  tune::maybe_refresh(); // freeze against the freshest tables
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  if (dest != MPI_PROC_NULL) {
    // The channel co-owns the packer (shared_ptr), so MPI_Type_free
    // between init and Request_free can never strand the replay program.
    std::shared_ptr<const Packer> packer = lookup_packer(datatype);
    const auto choice = persistent_choice(packer.get(), buf, count);
    if (choice) {
      return async::send_init(std::move(packer), *choice, buf, count, dest,
                              tag, comm, s.next, request);
    }
  }
  s.persistent_forwarded.add();
  return s.next.Send_init(buf, count, datatype, dest, tag, comm, request);
}

int tempi_Recv_init(void *buf, int count, MPI_Datatype datatype, int source,
                    int tag, MPI_Comm comm, MPI_Request *request) {
  State &s = state();
  tune::maybe_refresh(); // freeze against the freshest tables
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  if (source != MPI_PROC_NULL) {
    std::shared_ptr<const Packer> packer = lookup_packer(datatype);
    const auto choice = persistent_choice(packer.get(), buf, count);
    if (choice) {
      return async::recv_init(std::move(packer), *choice, buf, count, source,
                              tag, comm, s.next, request);
    }
  }
  s.persistent_forwarded.add();
  const int rc =
      s.next.Recv_init(buf, count, datatype, source, tag, comm, request);
  if (rc == MPI_SUCCESS && source != MPI_PROC_NULL) {
    async::note_forwarded_recv(*request, source, tag, comm,
                               /*persistent=*/true, s.next);
  }
  return rc;
}

int tempi_Start(MPI_Request *request) {
  State &s = state();
  const bool overlapped = note_post();
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  if (async::owns(*request)) {
    return async::start(request, s.next, overlapped);
  }
  flush(FlushReason::NondeferrableSend);
  return s.next.Start(request);
}

int tempi_Startall(int count, MPI_Request *requests) {
  const bool overlapped = note_post();
  return async::startall(count, requests, state().next, overlapped);
}

int tempi_Request_free(MPI_Request *request) {
  flush(FlushReason::Completion);
  State &s = state();
  note_completion();
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  if (async::owns(*request)) {
    return async::request_free(request, s.next);
  }
  const MPI_Request forwarded = *request;
  const int rc = s.next.Request_free(request);
  if (rc == MPI_SUCCESS) {
    async::note_forwarded_done(forwarded, /*freed=*/true);
  }
  return rc;
}

// --- interposed collectives (the collectives engine, collectives.hpp) --------
//
// Each entry point takes the shared fallthrough gate, so disabled-engine,
// forced-system, and host-only calls forward to the system MPI in one
// place; everything else is serviced by the engine, which stays per-rank
// wire- and tag-compatible with system-path peers of the same call.

int tempi_Alltoallv(const void *sendbuf, const int *sendcounts,
                    const int *sdispls, MPI_Datatype sendtype, void *recvbuf,
                    const int *recvcounts, const int *rdispls,
                    MPI_Datatype recvtype, MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (!coll::enabled() ||
      fallthrough_to_sysmpi(sendbuf, sendtype, recvbuf, recvtype,
                            /*for_collectives=*/true)) {
    coll::note_fallback();
    return s.next.Alltoallv(sendbuf, sendcounts, sdispls, sendtype, recvbuf,
                            recvcounts, rdispls, recvtype, comm);
  }
  return coll::alltoallv(sendbuf, sendcounts, sdispls, sendtype, recvbuf,
                         recvcounts, rdispls, recvtype, comm, s.next);
}

int tempi_Neighbor_alltoallv(const void *sendbuf, const int *sendcounts,
                             const int *sdispls, MPI_Datatype sendtype,
                             void *recvbuf, const int *recvcounts,
                             const int *rdispls, MPI_Datatype recvtype,
                             MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (comm == nullptr || !comm->is_graph || !coll::enabled() ||
      fallthrough_to_sysmpi(sendbuf, sendtype, recvbuf, recvtype,
                            /*for_collectives=*/true)) {
    coll::note_fallback();
    return s.next.Neighbor_alltoallv(sendbuf, sendcounts, sdispls, sendtype,
                                     recvbuf, recvcounts, rdispls, recvtype,
                                     comm);
  }
  return coll::neighbor_alltoallv(sendbuf, sendcounts, sdispls, sendtype,
                                  recvbuf, recvcounts, rdispls, recvtype,
                                  comm, s.next);
}

int tempi_Gatherv(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                  void *recvbuf, const int *recvcounts, const int *displs,
                  MPI_Datatype recvtype, int root, MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  // Receive-side arguments are significant only at the root; a non-root
  // rank gates on its send side alone (the engine is per-rank compatible
  // with system-path peers, so ranks may decide independently).
  const bool is_root = comm != nullptr && comm->my_rank == root;
  const bool fallthrough =
      !coll::enabled() || comm == nullptr || root < 0 ||
      root >= comm->size() ||
      (is_root ? fallthrough_to_sysmpi(sendbuf, sendtype, recvbuf, recvtype,
                                       /*for_collectives=*/true)
               : fallthrough_to_sysmpi(sendbuf, sendtype, nullptr, nullptr,
                                       /*for_collectives=*/true));
  if (fallthrough) {
    coll::note_fallback();
    return s.next.Gatherv(sendbuf, sendcount, sendtype, recvbuf, recvcounts,
                          displs, recvtype, root, comm);
  }
  return coll::gatherv(sendbuf, sendcount, sendtype, recvbuf, recvcounts,
                       displs, recvtype, root, comm, s.next);
}

// --- interposed communicator constructors (the topology layer) ---------------
//
// Only MPI_Cart_create is interposed: with reorder=1 the topology layer
// either realizes a strictly-better placement (tempi/topology.*) or falls
// through to the system identity mapping, which logs the fallback once.
// MPI_Dist_graph_create_adjacent goes to the system MPI, reorder=1
// included.

int tempi_Cart_create(MPI_Comm comm_old, int ndims, const int *dims,
                      const int *periods, int reorder, MPI_Comm *comm_cart) {
  flush(FlushReason::Blocking);
  return topo::cart_create(comm_old, ndims, dims, periods, reorder, comm_cart,
                           state().next);
}

int tempi_Allgather(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                    void *recvbuf, int recvcount, MPI_Datatype recvtype,
                    MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (!coll::enabled() ||
      fallthrough_to_sysmpi(sendbuf, sendtype, recvbuf, recvtype,
                            /*for_collectives=*/true)) {
    coll::note_fallback();
    return s.next.Allgather(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                            recvtype, comm);
  }
  return coll::allgather(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                         recvtype, comm, s.next);
}

// --- interposed reductions (the reduction engine, reduce.hpp) ----------------
//
// The gate is process-uniform (reduction_fallthrough above); host-only
// named-datatype ranks that pass it are forwarded per-rank by the engine
// itself, which speaks the system wire shape for named types.

int tempi_Allreduce(const void *sendbuf, void *recvbuf, int count,
                    MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (reduction_fallthrough(datatype, op)) {
    red::note_fallback();
    return s.next.Allreduce(sendbuf, recvbuf, count, datatype, op, comm);
  }
  return red::allreduce(sendbuf, recvbuf, count, datatype, op, comm, s.next);
}

int tempi_Reduce(const void *sendbuf, void *recvbuf, int count,
                 MPI_Datatype datatype, MPI_Op op, int root, MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (reduction_fallthrough(datatype, op)) {
    red::note_fallback();
    return s.next.Reduce(sendbuf, recvbuf, count, datatype, op, root, comm);
  }
  return red::reduce(sendbuf, recvbuf, count, datatype, op, root, comm,
                     s.next);
}

int tempi_Reduce_scatter(const void *sendbuf, void *recvbuf,
                         const int *recvcounts, MPI_Datatype datatype,
                         MPI_Op op, MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (reduction_fallthrough(datatype, op)) {
    red::note_fallback();
    return s.next.Reduce_scatter(sendbuf, recvbuf, recvcounts, datatype, op,
                                 comm);
  }
  return red::reduce_scatter(sendbuf, recvbuf, recvcounts, datatype, op, comm,
                             s.next);
}

int tempi_Reduce_scatter_block(const void *sendbuf, void *recvbuf,
                               int recvcount, MPI_Datatype datatype, MPI_Op op,
                               MPI_Comm comm) {
  flush(FlushReason::Blocking);
  State &s = state();
  if (reduction_fallthrough(datatype, op)) {
    red::note_fallback();
    return s.next.Reduce_scatter_block(sendbuf, recvbuf, recvcount, datatype,
                                       op, comm);
  }
  return red::reduce_scatter_block(sendbuf, recvbuf, recvcount, datatype, op,
                                   comm, s.next);
}

} // namespace

namespace {

/// The forwarder install() puts in front of an entry TEMPI does not
/// implement (MPI_Barrier, MPI_Probe, MPI_Iprobe, MPI_Bcast, ...): flush
/// the calling thread's deferred sends, then call the system MPI's entry.
template <auto Entry, class Fn> struct Passthrough;
template <auto Entry, class R, class... Args>
struct Passthrough<Entry, R (*)(Args...)> {
  static R call(Args... args) {
    flush(FlushReason::Passthrough);
    return (state().next.*Entry)(args...);
  }
};

/// The registered allocations this thread's residency checks found last,
/// valid while vcuda's allocation stamp holds.
thread_local vcuda::AllocationMemo<4> t_residency;

} // namespace

// A memo hit is a thread-local range compare plus one acquire load — the
// same kind of work as the handle-cache lookup — and charges no virtual
// time; a miss pays the pointer query. Pageable pointers are never stored:
// the registry holds no range that bounds host memory, so only the exact
// address could be remembered, and a host-heavy caller would then evict
// the device ranges the steady state repeats. The host path therefore
// queries every time, exactly as it did before the memo.
vcuda::MemorySpace resident_space(const void *p) {
  // Loaded before the query: an allocation event racing with it leaves the
  // memo tagged with a stale stamp, so the next call starts over.
  const std::uint64_t stamp = vcuda::memory_registry().generation();
  if (const vcuda::Allocation *hit = t_residency.find(
          stamp, reinterpret_cast<std::uintptr_t>(p))) {
    return hit->space;
  }
  vcuda::Allocation range;
  vcuda::PointerGetAttributes(&range, p);
  if (range.size > 0) {
    t_residency.remember(range);
  }
  return range.space;
}

bool device_resident(const void *p) {
  return resident_space(p) == vcuda::MemorySpace::Device;
}

void install() {
  State &s = state();
  if (s.installed) {
    return;
  }
  interpose::MpiTable table = interpose::active_table();
  s.next = table; // the "dlsym(RTLD_NEXT)" snapshot
  table.Init = tempi_Init;
  table.Init_thread = tempi_Init_thread;
  table.Query_thread = tempi_Query_thread;
  table.Is_thread_main = tempi_Is_thread_main;
  table.Finalize = tempi_Finalize;
  table.Type_commit = tempi_Type_commit;
  table.Type_free = tempi_Type_free;
  table.Pack = tempi_Pack;
  table.Unpack = tempi_Unpack;
  table.Send = tempi_Send;
  table.Recv = tempi_Recv;
  table.Sendrecv = tempi_Sendrecv;
  table.Isend = tempi_Isend;
  table.Irecv = tempi_Irecv;
  table.Wait = tempi_Wait;
  table.Waitall = tempi_Waitall;
  table.Waitany = tempi_Waitany;
  table.Waitsome = tempi_Waitsome;
  table.Test = tempi_Test;
  table.Testall = tempi_Testall;
  table.Testany = tempi_Testany;
  table.Testsome = tempi_Testsome;
  table.Send_init = tempi_Send_init;
  table.Recv_init = tempi_Recv_init;
  table.Start = tempi_Start;
  table.Startall = tempi_Startall;
  table.Request_free = tempi_Request_free;
  table.Alltoallv = tempi_Alltoallv;
  table.Neighbor_alltoallv = tempi_Neighbor_alltoallv;
  table.Gatherv = tempi_Gatherv;
  table.Allgather = tempi_Allgather;
  table.Allreduce = tempi_Allreduce;
  table.Reduce = tempi_Reduce;
  table.Reduce_scatter = tempi_Reduce_scatter;
  table.Reduce_scatter_block = tempi_Reduce_scatter_block;
  table.Cart_create = tempi_Cart_create;
  // Every other entry gets a forwarder that flushes deferred sends first.
#define TEMPI_PASSTHROUGH(name, ret, args)                                     \
  if (table.name != nullptr && table.name == s.next.name) {                    \
    table.name =                                                               \
        &Passthrough<&interpose::MpiTable::name, decltype(table.name)>::call; \
  }
  SYSMPI_FOR_EACH_FN(TEMPI_PASSTHROUGH)
#undef TEMPI_PASSTHROUGH
  // The collectives engine's kill-switch (mirrors TEMPI_METHOD): decided
  // and logged at install time so a deployment can see — without
  // relinking — whether collectives ride the engine or the system path.
  if (const char *env = std::getenv("TEMPI_COLL")) {
    coll::set_enabled(std::string_view(env) != "0");
    support::log_info("tempi: TEMPI_COLL=", env);
  }
  // The reduction engine's kill-switch (same pattern as TEMPI_COLL):
  // TEMPI_RED=0 forwards Allreduce/Reduce/Reduce_scatter(_block) to the
  // system path.
  if (const char *env = std::getenv("TEMPI_RED")) {
    red::set_enabled(std::string_view(env) != "0");
    support::log_info("tempi: TEMPI_RED=", env);
  }
  // The persistent fast path's kill-switch (same pattern as TEMPI_COLL):
  // decided and logged at install time so a deployment can see — without
  // relinking — whether Send_init/Recv_init freeze channels or forward.
  if (const char *env = std::getenv("TEMPI_PERSISTENT")) {
    s.persistent_enabled.store(std::string_view(env) != "0",
                               std::memory_order_relaxed);
    support::log_info("tempi: TEMPI_PERSISTENT=", env);
  }
  // The topology layer's kill-switch (same pattern): node-aware leg
  // scheduling and reorder=1 rank remapping, or the legacy rank-order /
  // identity behavior.
  if (const char *env = std::getenv("TEMPI_TOPO")) {
    topo::set_enabled(std::string_view(env) != "0");
    support::log_info("tempi: TEMPI_TOPO=", env);
  }
  // Request-pool shard count (thread-multiple hot path). Re-read on every
  // install — not once per process — so TEMPI_SHARDS=1 between an
  // uninstall/install pair is a live kill-switch back to the single-lock
  // layout. Rounded to a power of two by configure_shards; refused (and
  // logged) if requests are somehow still in flight.
  if (const char *env = std::getenv("TEMPI_SHARDS")) {
    if (const auto v = parse_positive(env)) {
      if (async::configure_shards(*v)) {
        support::log_info("tempi: TEMPI_SHARDS=", env, " (pool shards: ",
                          async::shard_count(), ")");
      } else {
        support::log_warn("tempi: ignoring TEMPI_SHARDS=", env,
                          " (request pool not idle)");
      }
    } else {
      support::log_warn("tempi: ignoring TEMPI_SHARDS '", env,
                        "' (want a positive shard count)");
    }
  }
  // Sec. 6.3 bootstrap: calibrate the model from TEMPI_PERF_FILE before
  // the first interposed call of any rank (same decided-and-logged-at-
  // install pattern as the kill-switches above). Once per process: the
  // loaded tables would otherwise clobber tuned ones on re-install.
  std::call_once(s.perf_loaded, [&s] {
    if (auto perf = load_perf(perf_file_path())) {
      {
        const std::unique_lock<std::shared_mutex> lock(s.model_mutex);
        s.model = PerfModel(std::move(*perf));
        s.model_gen.fetch_add(1, std::memory_order_release);
      }
      s.calibration = "file:" + perf_file_path();
      support::log_info("tempi: loaded system measurements from ",
                        perf_file_path());
    } else {
      s.calibration = "builtin";
      support::log_info("tempi: no measurement file at ", perf_file_path(),
                        "; using substrate-derived built-in calibration");
    }
    if (const char *env = std::getenv("TEMPI_TUNE")) {
      tune::set_enabled(std::string_view(env) != "0");
      support::log_info("tempi: TEMPI_TUNE=", env);
    }
    if (const char *env = std::getenv("TEMPI_TUNE_SAVE");
        env != nullptr && env[0] != '\0') {
      s.tune_save = env;
      support::log_info("tempi: TEMPI_TUNE_SAVE=", env);
    }
  });
  // Close the self-tuning loop: drifted observations fold into the live
  // model (apply_tuned_model), and persistent channels re-run
  // persistent_choice at their next Start.
  tune::set_apply_hook(&apply_tuned_model);
  // Observability: TEMPI_TRACE=<path> / TEMPI_STATS=1 arm the tracer and
  // hook vcuda's device-op intervals.
  trace::configure_from_env();
  // The audited-lock contention gauges (tempi.lock.*): each shared mutex
  // the hot path can reach exports its acquire count and how many of
  // those acquires found the lock held. A healthy thread-multiple run
  // shows contended ~0 everywhere; anything else names the lock to fix.
  trace::register_gauge("tempi.lock.pool.acquires",
                        [] { return async::pool_lock_stats().acquires; });
  trace::register_gauge("tempi.lock.pool.contended",
                        [] { return async::pool_lock_stats().contended; });
  trace::register_gauge("tempi.lock.depot.acquires",
                        [] { return buffer_depot_lock_stats().acquires; });
  trace::register_gauge("tempi.lock.depot.contended",
                        [] { return buffer_depot_lock_stats().contended; });
  trace::register_gauge("tempi.lock.vcuda_streams.acquires", [] {
    return vcuda::stream_registry_lock_stats().acquires;
  });
  trace::register_gauge("tempi.lock.vcuda_streams.contended", [] {
    return vcuda::stream_registry_lock_stats().contended;
  });
  trace::register_gauge("tempi.lock.trace_rings.acquires",
                        [] { return trace::rings_lock_stats().acquires; });
  trace::register_gauge("tempi.lock.trace_rings.contended",
                        [] { return trace::rings_lock_stats().contended; });
  trace::register_gauge("tempi.lock.tune_refresh.acquires",
                        [] { return tune::refresh_lock_stats().acquires; });
  trace::register_gauge("tempi.lock.tune_refresh.contended",
                        [] { return tune::refresh_lock_stats().contended; });
  if (trace::enabled()) {
    support::log_info("tempi: tracing armed (TEMPI_TRACE=",
                      trace::trace_path().empty()
                          ? "<unset>"
                          : trace::trace_path().c_str(),
                      ", stats ", trace::stats_requested() ? "on" : "off",
                      ")");
  }
  interpose::install(table);
  s.installed = true;
  support::log_info("tempi: interposer installed (collectives engine ",
                    coll::enabled() ? "on" : "off", ", reduction engine ",
                    red::enabled() ? "on" : "off", ", persistent path ",
                    s.persistent_enabled.load(std::memory_order_relaxed)
                        ? "on"
                        : "off",
                    ", topology ", topo::enabled() ? "on" : "off", ")");
}

void uninstall() {
  State &s = state();
  if (!s.installed) {
    return;
  }
  // The calling thread's deferred sends go on the wire first; drain()
  // flushes every other thread's.
  flush(FlushReason::Drain);
  interpose::uninstall();
  // Drain the request engine rather than leaking in-flight pool state
  // (see the uninstall contract in tempi.hpp). Persistent channels count
  // too: each un-freed channel still pins its staging/wire leases and its
  // recorded graphs, which the Debug+ASan job would flag as leaks.
  if (async::in_flight() > 0 || async::persistent_open() > 0) {
    support::log_warn("tempi: uninstall with ", async::in_flight(),
                      " non-blocking operation(s) still in flight and ",
                      async::persistent_open(),
                      " persistent channel(s) never freed");
    async::drain(s.next);
  }
  {
    const std::unique_lock<std::shared_mutex> lock(s.packers_mutex);
    s.packers.clear();
    s.retired_packers.clear(); // quiescent: the request pool was drained
    bump_handle_generation(s);
  }
  // Replay entries name the packers just destroyed: every thread's tables
  // drop them, releasing their graphs and pinned leases now.
  replay::release_all();
  // Leases released after the ranks' last MPI_Finalize (by the tables
  // above, or by program tables at their threads' exit) may have
  // overflowed a magazine into the shared depot; free them with it.
  drain_buffer_cache();
  save_tuned_tables(s); // TEMPI_TUNE_SAVE (no-op unless requested)
  trace::flush(); // trace file + stats report (no-op if already flushed)
  s.installed = false;
  support::log_info("tempi: interposer removed");
}

void set_blocklist_fallback(bool enabled) {
  state().blocklist_fallback.store(enabled, std::memory_order_relaxed);
}

bool blocklist_fallback() {
  return state().blocklist_fallback.load(std::memory_order_relaxed);
}

std::shared_ptr<const Packer> find_blocklist_packer(MPI_Datatype datatype) {
  std::shared_ptr<const Packer> packer = lookup_packer(datatype);
  return packer && !packer->strided() ? packer : nullptr;
}

void set_persistent_enabled(bool enabled) {
  state().persistent_enabled.store(enabled, std::memory_order_relaxed);
}

bool persistent_enabled() {
  return state().persistent_enabled.load(std::memory_order_relaxed);
}

void set_send_mode(SendMode mode) {
  state().mode.store(mode, std::memory_order_relaxed);
}

SendMode send_mode() { return state().mode.load(std::memory_order_relaxed); }

void set_perf_model(PerfModel model) {
  State &s = state();
  const std::unique_lock<std::shared_mutex> lock(s.model_mutex);
  s.model = std::move(model);
  // New tables, new generation: every packer method memo goes stale.
  s.model_gen.fetch_add(1, std::memory_order_release);
}

const PerfModel &perf_model() {
  // Callers must not hold the reference across set_perf_model.
  return state().model;
}

std::uint64_t choice_generation() {
  return (state().model_gen.load(std::memory_order_acquire) << 16) ^
         transfer_config_generation();
}

/// The same gate as Send/Isend (see gated_choice), but the choice is
/// frozen: Auto runs the model's exact, uncached Persistent decision
/// instead of the memoized cached one.
std::optional<TransferChoice> persistent_choice(const Packer *packer,
                                                const void *buf, int count) {
  State &s = state();
  if (!s.persistent_enabled.load(std::memory_order_relaxed)) {
    return std::nullopt;
  }
  return gated_choice(packer, buf, count, [&](std::size_t total) {
    trace::ScopedSpan span(trace::Phase::ModelChoice,
                           trace::OpKind::Persistent, total);
    const std::shared_lock<std::shared_mutex> lock(s.model_mutex);
    return s.model.choose_transfer(
        static_cast<std::size_t>(packer->block().block_bytes()), total,
        {TransferKind::Persistent});
  });
}

std::shared_ptr<const Packer> find_packer(MPI_Datatype datatype) {
  std::shared_ptr<const Packer> packer = lookup_packer(datatype);
  return packer && packer->strided() ? packer : nullptr;
}

const Packer *find_packer_fast(MPI_Datatype datatype) {
  const Packer *packer = lookup_packer_fast(datatype);
  return packer != nullptr && packer->strided() ? packer : nullptr;
}

std::string model_calibration_source() { return state().calibration; }

} // namespace tempi
