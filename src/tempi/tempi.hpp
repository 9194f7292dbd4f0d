// Public API of the TEMPI interposer library.
//
// Usage mirrors the paper's deployment: install TEMPI "in front of" the
// system MPI (the in-process analog of LD_PRELOAD), run an unmodified MPI
// application, uninstall when done:
//
//   tempi::ScopedInterposer tempi_guard;       // LD_PRELOAD=libtempi.so
//   sysmpi::run_ranks(cfg, [](int rank) {      // jsrun -n ...
//     MPI_Init(nullptr, nullptr);              // resolved to TEMPI
//     ...                                      // unchanged MPI code
//     MPI_Finalize();
//   });
//
// TEMPI overrides: Init, Init_thread, Query_thread, Is_thread_main,
// Finalize, Type_commit, Type_free, Pack, Unpack, Send, Recv, Sendrecv,
// Isend, Irecv, Wait, Waitall, Waitany, Waitsome, Test, Testall, Testany,
// Testsome, Send_init, Recv_init, Start, Startall, Request_free,
// Alltoallv, Neighbor_alltoallv, Allgather, Gatherv, Allreduce, Reduce,
// Reduce_scatter, Reduce_scatter_block and Cart_create. Every other entry
// gets a forwarder that flushes the calling thread's deferred sends (see
// "Send batching" in async.hpp) and then calls the system MPI.
// Non-blocking operations on accelerated datatypes are owned by the
// request engine (async.hpp), persistent operations by its channel fast
// path, the dense exchange collectives by the collectives engine
// (collectives.hpp), the reductions by the reduction engine (reduce.hpp),
// and the topology constructors by topology.hpp.
//
// Every decision TEMPI makes is counted in the trace registry
// (trace.hpp), read by name: tempi.send.{oneshot,device,staged,pipelined,
// forwarded} for blocking sends, tempi.isend.* and tempi.irecv.* for the
// request engine, tempi.pipeline.*, tempi.coll.*, tempi.red.*,
// tempi.topo.*, tempi.persistent.* and tempi.model.* for the other layers.
#pragma once

#include "interpose/table.hpp"
#include "tempi/packer.hpp"
#include "tempi/perf_model.hpp"
#include "vcuda/costmodel.hpp"

#include <memory>
#include <optional>

namespace tempi {

/// How MPI_Send/MPI_Recv pick their packing method.
enum class SendMode {
  Auto,           ///< model-based selection (the paper's "auto")
  ForceOneShot,   ///< always the one-shot method
  ForceDevice,    ///< always the device method
  ForceStaged,    ///< always the staged method
  ForcePipelined, ///< always the chunked pipelined method
  System,         ///< do not accelerate Send/Recv (baseline datatype path)
};

/// Install TEMPI's partial MPI implementation over the active table.
/// Idempotent; not thread-safe against in-flight MPI traffic.
void install();

/// Remove TEMPI and restore the system MPI; drops all cached packers.
///
/// Contract for in-flight non-blocking operations: applications must
/// complete every TEMPI-originated MPI_Isend/MPI_Irecv (via Wait/Waitall/
/// Waitany/Test) before uninstalling. If any are still in flight,
/// uninstall() drains the request pool rather than leaking it: send
/// transfers that already reached the wire are reclaimed silently;
/// anything else is dropped with a loud per-operation log_error, its
/// intermediate buffers released, and its (now dangling) request handle
/// left for the application — waiting on such a handle afterwards is
/// undefined, exactly as with a real MPI library torn down mid-flight.
///
/// The contract extends to persistent channels (MPI_Send_init /
/// MPI_Recv_init): every channel must see MPI_Request_free first. A
/// channel holds its staging/wire leases pinned and its recorded graphs
/// alive for its whole lifetime, so uninstall() releases any still-open
/// channel rather than leaking it (the Debug+ASan CI job leak-checks
/// this), with a loud per-channel log_error naming the un-freed request's
/// direction, peer, tag, and armed state.
///
/// Graphs recorded for repeated MPI_Pack/MPI_Unpack calls never outlive
/// their install: uninstall() frees the calling thread's, and every other
/// thread drops its own on its next pack or unpack, or at thread exit.
void uninstall();

/// RAII install/uninstall.
class ScopedInterposer {
public:
  ScopedInterposer() { install(); }
  ~ScopedInterposer() { uninstall(); }
  ScopedInterposer(const ScopedInterposer &) = delete;
  ScopedInterposer &operator=(const ScopedInterposer &) = delete;
};

/// Select the Send/Recv method policy (benches sweep this). Default Auto.
void set_send_mode(SendMode mode);
SendMode send_mode();

/// Replace the performance model (e.g. after measure_system()).
void set_perf_model(PerfModel model);
const PerfModel &perf_model();
/// The generation a remembered transfer choice is valid under: it moves
/// when the model is replaced (set_perf_model, a tuner refresh) or a
/// transfer knob changes (wire limit, chunk override).
std::uint64_t choice_generation();

/// The Send_init/Recv_init choice for `count` objects of `packer` at
/// `buf`; nullopt forwards the call to the system MPI. A persistent
/// request re-runs it at its first Start after a tuned model landed.
std::optional<TransferChoice> persistent_choice(const Packer *packer,
                                                const void *buf, int count);

/// The virtual memory space of `p` (unregistered: Pageable). Each thread
/// remembers the last few registered allocations it found until the next
/// allocation event anywhere (vcuda's stamp), so a repeated device or
/// pinned buffer costs no pointer query; anything else costs one.
vcuda::MemorySpace resident_space(const void *p);

/// True when `p` is device-resident (resident_space) — the residency test
/// every interposer gate uses. Exposed so the collectives engine
/// (collectives.cpp) and tests share one definition with the Send/Recv
/// gates instead of drifting copies.
bool device_resident(const void *p);

/// The canonical strided packer TEMPI built for a committed datatype, if
/// any (tests/benches). A block-list packer is not returned here; see
/// find_blocklist_packer.
std::shared_ptr<const Packer> find_packer(MPI_Datatype datatype);

/// Hot-path datatype lookup: the open-addressed handle cache every
/// interposed Send/Recv/Isend/Irecv consults — a hit is a couple of atomic
/// loads, no map probe, no shared_ptr refcount bump. Returns the raw
/// committed canonical strided packer (or nullptr; absences are cached
/// too, and a block-list packer reads as absent here). The pointer
/// stays valid until tempi::uninstall() even if the type is freed
/// meanwhile: freed packers are retired to a graveyard rather than
/// destroyed, so an in-flight operation never observes a dangling engine.
/// Exposed for tests and the overhead bench.
const Packer *find_packer_fast(MPI_Datatype datatype);

/// Kill-switch for the persistent-operation fast path (mirrors the
/// collectives engine's TEMPI_COLL): when disabled, MPI_Send_init /
/// MPI_Recv_init fall through to the system MPI untouched. Decided from
/// TEMPI_PERSISTENT=0|1 and logged at install time; default on. Channels
/// created while enabled keep working after a disable (the switch gates
/// creation, not completion).
void set_persistent_enabled(bool enabled);
bool persistent_enabled();

/// Sec. 8 extension: when a datatype is not expressible as a canonical
/// strided block (indexed/hindexed/struct), optionally fall back to a
/// generic GPU blocklist packer (the prior-work representation whose
/// device-metadata footprint Sec. 2 criticizes) instead of the system MPI
/// path. Default OFF, matching the paper's Summit deployment. The switch
/// is read at MPI_Type_commit: the block-list packer it builds is an
/// ordinary (non-strided) Packer, so blocking, non-blocking and
/// persistent transfers and MPI_Pack/MPI_Unpack all accelerate it, and
/// repeated Isends and packs replay from recorded graphs. Its transfers
/// always use the device method; the collectives and reduction engines
/// leave block-list types to the system MPI.
void set_blocklist_fallback(bool enabled);
bool blocklist_fallback();

/// The block-list (non-strided) packer built for a committed datatype, if
/// any.
std::shared_ptr<const Packer> find_blocklist_packer(MPI_Datatype datatype);

/// Where the live model's tables came from: "builtin" (substrate-derived
/// calibration) or "file:<path>" when install() loaded TEMPI_PERF_FILE.
/// Bench sidecars record this so the perf trajectory shows whether a run
/// was bootstrapped.
std::string model_calibration_source();

} // namespace tempi
