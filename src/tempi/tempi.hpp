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
// TEMPI overrides: Init, Finalize, Type_commit, Type_free, Pack, Unpack,
// Send, Recv, Sendrecv, Isend, Irecv, Wait, Waitall, Waitany, Waitsome,
// Test, Testall, Testany, Testsome, Send_init, Recv_init, Start,
// Startall, Request_free, Alltoallv, Neighbor_alltoallv, Allgather,
// Gatherv. Everything else falls through to the system MPI. Non-blocking
// operations on accelerated datatypes are owned by the request engine
// (async.hpp), persistent operations by its channel fast path, and the
// dense exchange collectives by the collectives engine (collectives.hpp).
#pragma once

#include "interpose/table.hpp"
#include "tempi/packer.hpp"
#include "tempi/perf_model.hpp"

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

/// True when `p` is device-resident per the virtual CUDA registry — the
/// residency test every interposer gate uses. Exposed so the collectives
/// engine (collectives.cpp) and tests share one definition with the
/// Send/Recv gates instead of drifting copies.
bool device_resident(const void *p);

/// The packer TEMPI built for a committed datatype, if any (tests/benches).
std::shared_ptr<const Packer> find_packer(MPI_Datatype datatype);

/// Hot-path datatype lookup: the open-addressed handle cache every
/// interposed Send/Recv/Isend/Irecv consults — a hit is a couple of atomic
/// loads, no map probe, no shared_ptr refcount bump. Returns the raw
/// committed packer (or nullptr; absences are cached too). The pointer
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
/// path. Default OFF, matching the paper's Summit deployment. Blocklist
/// sends always use the device method.
void set_blocklist_fallback(bool enabled);
bool blocklist_fallback();

/// The blocklist packer built for a committed datatype, if any.
std::shared_ptr<const class BlockListPacker>
find_blocklist_packer(MPI_Datatype datatype);

/// Decision counters (tests and the Fig. 11/12 benches). The isend_*
/// counters mirror the blocking ones for the non-blocking request engine;
/// irecv_* count the receive side, where acceleration is method-selected
/// the same way but completion happens at Wait/Test time.
struct SendStats {
  std::uint64_t oneshot = 0;
  std::uint64_t device = 0;
  std::uint64_t staged = 0;
  std::uint64_t forwarded = 0; ///< fell through to the system MPI

  std::uint64_t isend_oneshot = 0;
  std::uint64_t isend_device = 0;
  std::uint64_t isend_staged = 0;
  std::uint64_t isend_forwarded = 0; ///< non-blocking system fall-through
  std::uint64_t irecv_accelerated = 0;
  std::uint64_t irecv_forwarded = 0;

  /// PerfModel::choose cache traffic (all instances; see perf_model.hpp)
  /// and packer-level method-memo hits, which skip the model entirely.
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_cache_misses = 0;
  std::uint64_t method_memo_hits = 0;

  /// Pipelined (chunked) path counters. `pipelined`/`isend_pipelined`
  /// count blocking and non-blocking pipelined sends; the rest mirror
  /// tempi::pipeline_stats(): wire legs issued (both sides) and packed
  /// bytes carried by sends above the single-leg wire limit — traffic
  /// that used to fail with MPI_ERR_COUNT.
  std::uint64_t pipelined = 0;
  std::uint64_t isend_pipelined = 0;
  std::uint64_t pipeline_chunks = 0;
  std::uint64_t pipeline_over_ceiling_bytes = 0;

  /// Collectives-engine counters (tempi/collectives.*). `coll_alltoallv`
  /// counts engine-serviced MPI_Alltoallv/MPI_Allgather/MPI_Gatherv calls
  /// (the latter two reduce onto the same exchange core); `coll_neighbor`
  /// counts engine-serviced MPI_Neighbor_alltoallv; `coll_fallback`
  /// counts interposed collective calls the shared gate forwarded to the
  /// system path; `coll_peer_legs` counts per-peer legs fanned out by
  /// engine-serviced calls (wire legs plus self-exchange copies).
  std::uint64_t coll_alltoallv = 0;
  std::uint64_t coll_neighbor = 0;
  std::uint64_t coll_fallback = 0;
  std::uint64_t coll_peer_legs = 0;

  /// Persistent-channel fast path (async.hpp). `persistent_init` counts
  /// accelerated MPI_Send_init/MPI_Recv_init channels created;
  /// `persistent_start` counts Start/Startall arms on them;
  /// `persistent_replay_hits` counts arms/completions served by a
  /// pre-recorded replay program; `persistent_graph_launches` counts the
  /// vcuda graph launches those replays issued (pipelined sends launch
  /// one graph per leg); `persistent_forwarded` counts Send_init/
  /// Recv_init calls that fell through to the system path.
  std::uint64_t persistent_init = 0;
  std::uint64_t persistent_start = 0;
  std::uint64_t persistent_replay_hits = 0;
  std::uint64_t persistent_graph_launches = 0;
  std::uint64_t persistent_forwarded = 0;

  /// Self-tuning loop (perf_model.hpp tune::). Mirrors the
  /// tempi.model.{observations,updates,generation_bumps,refreezes}
  /// trace counters: samples harvested from completed ops, table knots
  /// rewritten by refreshes, tuned-model swaps, and persistent programs
  /// re-recorded after a swap.
  std::uint64_t model_observations = 0;
  std::uint64_t model_updates = 0;
  std::uint64_t model_generation_bumps = 0;
  std::uint64_t model_refreezes = 0;

  /// Topology-aware scheduling (topology.hpp topo::). Mirrors the
  /// tempi.topo.{remaps,staggered_legs,intra_node_legs} trace counters:
  /// communicators adopted under a reorder=1 remap, legs issued at a
  /// different position than rank order, and legs that stayed on-node
  /// (and so never touched the NIC model).
  std::uint64_t topo_remaps = 0;
  std::uint64_t topo_staggered_legs = 0;
  std::uint64_t topo_intra_node_legs = 0;

  /// Reduction-collectives engine (tempi/reduce.*). Mirrors the
  /// tempi.red.{allreduce,reduce,reduce_scatter,fallback,peer_legs,
  /// kernel_launches} trace counters: engine-serviced calls per entry
  /// point (`red_reduce_scatter` covers Reduce_scatter and
  /// Reduce_scatter_block), reductions the gates forwarded to the system
  /// path, wire legs posted by the schedules, and device combine kernels
  /// launched.
  std::uint64_t red_allreduce = 0;
  std::uint64_t red_reduce = 0;
  std::uint64_t red_reduce_scatter = 0;
  std::uint64_t red_fallback = 0;
  std::uint64_t red_peer_legs = 0;
  std::uint64_t red_kernel_launches = 0;
};
SendStats send_stats();
void reset_send_stats();

/// Where the live model's tables came from: "builtin" (substrate-derived
/// calibration) or "file:<path>" when install() loaded TEMPI_PERF_FILE.
/// Bench sidecars record this so the perf trajectory shows whether a run
/// was bootstrapped.
std::string model_calibration_source();

} // namespace tempi
