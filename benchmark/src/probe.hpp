// The benchmark's own instrumentation: return-code checks and spans around
// calls into each layer.
//
// Two probes sit in the MPI dispatch table the way a PMPI tool would:
//   * the app probe sits above TEMPI (or above the system MPI on the
//     system-path runs). It checks the return code of every MPI call the
//     workload makes, including the ones the halo library makes on its
//     behalf, and, while armed, times the calls that enter a layer:
//     MPI_Pack is the kernels layer, MPI_Neighbor_alltoallv the
//     collectives engine, MPI_Isend the request engine, and so on;
//   * the system probe sits between TEMPI and the system MPI and, while
//     armed, times and counts the wire traffic TEMPI hands down.
// Nothing inside src/ is instrumented. A span carries both clocks: the
// virtual clock (vcuda::virtual_now, the modeled latency) and the host
// clocks (thread CPU time and steady_clock). Spans live in per-thread
// buffers and are read after the threads that recorded them have joined.
#pragma once

#include "vcuda/clock.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace bm {

/// Host clocks, in nanoseconds.
std::int64_t thread_cpu_ns();
std::int64_t wall_ns();

/// What a span covers. Names follow the `<module>.<call>` convention of
/// the per-layer metrics.
enum class Layer : std::uint8_t {
  Op,             ///< one workload operation (root span)
  Commit,         ///< MPI_Type_commit            -> translate
  Pack,           ///< MPI_Pack                   -> kernels
  Unpack,         ///< MPI_Unpack                 -> kernels
  Alltoallv,      ///< MPI_Neighbor_alltoallv     -> collectives
  Allreduce,      ///< MPI_Allreduce              -> reduce
  Post,           ///< MPI_Isend / MPI_Irecv      -> async
  Wait,           ///< MPI_Wait[all] on engine requests -> async
  Send,           ///< MPI_Send                   -> methods
  Recv,           ///< MPI_Recv                   -> methods
  Start,          ///< MPI_Start[all]             -> persistent
  PersistentWait, ///< MPI_Wait[all] on channels  -> persistent
  SysSend,        ///< below TEMPI: Send / Isend / Start of a send
  SysRecv,        ///< below TEMPI: Recv / Irecv / Start of a receive
  SysWait,        ///< below TEMPI: Wait / Waitall
  kCount
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);
const char *layer_name(Layer layer);

struct Span {
  Layer layer = Layer::Op;
  std::int32_t parent = -1; ///< index into the same thread's spans
  std::uint64_t op = 0;     ///< operation id the span belongs to
  std::uint64_t bytes = 0;  ///< payload bytes, where the call names them
  vcuda::VirtualNs v0 = 0, v1 = 0;
  std::int64_t cpu0 = 0, cpu1 = 0;
  std::int64_t wall0 = 0, wall1 = 0;
};

struct ThreadSpans {
  int run = 0;  ///< which begin_run() the thread belongs to
  int rank = 0;
  std::vector<Span> spans;
};

/// Which completion a wait belongs to; the workload sets it before waiting
/// so MPI_Wait[all] is attributed to the request engine or to persistent
/// channels.
enum class WaitKind : std::uint8_t { Engine, Persistent };
void set_wait_kind(WaitKind kind);

/// Spans are recorded only while armed; return codes are always checked.
void set_armed(bool on);
bool armed();

/// MPI calls on the calling thread that returned an error since the last
/// call to this function.
std::uint64_t take_failed_calls();

/// Start a new run (a batch of threads); call before launching them.
/// Returns its id.
int begin_run();
/// Give the calling thread a span buffer tagged with the current run.
void begin_thread(int rank);
/// Operation id stamped on spans the calling thread opens next.
void set_op(std::uint64_t op);

class ScopedSpan {
public:
  explicit ScopedSpan(Layer layer, std::uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  std::int32_t index_ = -1;
};

/// Install the system probe over the active table. Call before
/// tempi::install(), so TEMPI's "next" table is the probe.
void install_system_probe();
/// Install the app probe over the active table. Call after
/// tempi::install(); tempi::uninstall() or interpose::uninstall() removes
/// every probe.
void install_app_probe();

/// Every thread's spans recorded so far; call only when no thread records.
std::vector<ThreadSpans> collect();

/// Write one run's spans as Chrome trace-event JSON (pid = rank, ts/dur =
/// virtual us, host clocks in args), keeping ops in [1, max_op].
bool write_chrome_trace(const std::string &path,
                        const std::vector<ThreadSpans> &threads, int run,
                        std::uint64_t max_op);

} // namespace bm
