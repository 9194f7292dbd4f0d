// The collective schedule executor shared by the exchange collectives
// (tempi/collectives.*) and the reduction collectives (tempi/reduce.*).
//
// A collective is a generator of a Schedule: a list of rounds, each a set
// of steps over slices (Ref) of the schedule's buffers — caller memory or
// leases. run() executes the rounds in order. Within a round it
//   1. runs the span packs (PackSpans), synchronized: the wire must not
//      depart before the staging it reads has landed;
//   2. posts every Send, then every Recv (a fan-out round orders each set
//      with topo::schedule and prices the bytes already queued at this
//      rank's injection port into each send's Leg decision);
//   3. short-circuits self legs as device copies on the schedule stream
//      (not synced; the caller's next pass on that stream observes them)
//      when both sides address packed bytes and the k-th self Send pairs
//      with the k-th self Recv — the per-(peer, tag) FIFO a wire
//      round-trip would produce; otherwise self rides the local mailbox;
//   4. runs the local moves (Pack, Unpack) in step order — they read
//      local data (send slices included) and write only slices no leg of
//      the round touches;
//   5. waits on every posted leg, even after an error (sends are buffered
//      and receives pair with peers' eager sends, so draining cannot hang);
//   6. runs the combines (Combine, CombineUser) and span unpacks
//      (UnpackSpans) in step order, which is the association order the
//      generator fixed.
// The first error stops the schedule after its round has drained; self
// copies no later pass observed are synchronized before run() returns. A
// buffer is leased when the first round that references it runs, so a
// rank leases only what its own steps touch, and lives until the Schedule
// is destroyed. Every call reserves its whole collective-tag budget, so
// every return path consumes it.
//
// Repeated calls replay (LibNBC's schedule cache, Hoefler, Lumsdaine and
// Rehm, SC'07): a collective names its call with a Key, and run() applies
// the sighting rule of tempi/replay.hpp on the calling thread's schedule
// table. A recording freezes each leg's issue order and TransferChoice,
// keeps the leases pinned, and makes each round's two device phases one
// graph each: the span packs, self copies and moves before the wait, the
// combines and span unpacks after it. A replay skips the generator,
// reserves fresh tag slots, posts the legs with the frozen choices and
// runs each phase as a GraphLaunch plus a StreamFence where the live path
// launches and synchronizes. A schedule with a host (Side::Other) leg or
// step, or pinning more than replay::kBudget, always runs live; a change
// of the model's choice generation or of TEMPI_TOPO re-records.
#pragma once

#include "interpose/table.hpp"
#include "sysmpi/types.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/kernels.hpp"
#include "tempi/trace.hpp"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

namespace tempi {
class Packer;
}

namespace tempi::sched {

/// How one rank carries one side of a collective (per rank, per call; the
/// wire carries packed bytes either way):
///   Fused  — device buffer, canonical strided packer: kernel passes
///            through device staging;
///   Direct — device buffer, contiguous datatype: the user buffer is its
///            own packed form;
///   Other  — anything else. Exchange legs ride typed system Isend/Irecv;
///            reductions run on host carriers with baseline pack/unpack.
enum class Side : std::uint8_t { Fused, Direct, Other };
Side classify(const void *buf, MPI_Datatype dt);

/// The elementwise combine of a reduction (tempi/reduce.cpp resolves it).
struct Combiner {
  sysmpi::OpKind kind = sysmpi::OpKind::Sum;
  ReduceOp rop = ReduceOp::Sum;
  ReduceWord word = ReduceWord::I32;
  sysmpi::Named base = sysmpi::Named::Int;
  std::size_t word_bytes = 4;
};

/// A byte slice origin: buffer `buf` of the schedule at offset `off`.
struct Ref {
  int buf = -1;
  long long off = 0;
  [[nodiscard]] Ref at(std::size_t o) const {
    return Ref{buf, off + static_cast<long long>(o)};
  }
};

enum class Op : std::uint8_t {
  Send,        ///< `bytes` from `src` to `peer` (`count` objects if typed)
  Recv,        ///< `bytes` from `peer` into `dst`
  Pack,        ///< `count` user objects at `src` -> packed `dst`
  Unpack,      ///< packed `src` -> `count` user objects at `dst`
  Combine,     ///< dst = dst op src over `bytes` of packed words
  CombineUser, ///< user objects at dst = dst op packed src, `count` objects
  PackSpans,   ///< span table `table`: user objects at src -> packed dst
  UnpackSpans, ///< span table `table`: packed src -> user objects at dst
};

struct Step {
  Op op = Op::Send;
  int peer = -1;
  Ref dst, src;
  std::size_t bytes = 0;
  int count = 0;
  int table = -1; ///< PackSpans/UnpackSpans: Schedule::spans() id
};

struct Round {
  int tag = 0;          ///< slot of the call's tag budget
  bool fan_out = false; ///< topo-ordered legs, queued-bytes pricing
  std::vector<Step> steps;

  Round &send(int peer, Ref src, std::size_t bytes, int count = 0) {
    return leg(Op::Send, peer, src, bytes, count);
  }
  Round &recv(int peer, Ref dst, std::size_t bytes, int count = 0) {
    return leg(Op::Recv, peer, dst, bytes, count);
  }
  /// A Send from, or a Recv into, `at`.
  Round &leg(Op op, int peer, Ref at, std::size_t bytes, int count = 0) {
    return op == Op::Send ? add(Step{op, peer, Ref{}, at, bytes, count})
                          : add(Step{op, peer, at, Ref{}, bytes, count});
  }
  Round &local(Op op, Ref dst, Ref src, std::size_t bytes, int count = 0) {
    return add(Step{op, -1, dst, src, bytes, count});
  }
  /// A span pass (PackSpans or UnpackSpans) over span table `table`.
  Round &spans(Op op, Ref dst, Ref src, int table) {
    return add(Step{op, -1, dst, src, 0, 0, table});
  }
  Round &add(const Step &s) {
    steps.push_back(s);
    return *this;
  }
};

class Schedule {
public:
  /// Reserves `tags` consecutive collective-tag slots on `comm`.
  Schedule(MPI_Comm comm, const interpose::MpiTable &next, int tags);
  ~Schedule(); // out of line: Frozen is complete only in the .cpp

  /// Register caller memory / a lease of `bytes` (device or host); returns
  /// the buffer id for Refs.
  int user(const void *p);
  int lease(std::size_t bytes, bool device);
  /// Lease buffer `id` now if it is not yet (false on a failed lease).
  bool acquire(int id);
  /// Register a span table of packer `pk` covering `total` packed bytes;
  /// returns its id for Round::spans.
  int spans(const Packer *pk, std::vector<PackSpan> table, std::size_t total);
  [[nodiscard]] std::byte *data(Ref r) const {
    return bufs_[static_cast<std::size_t>(r.buf)].ptr + r.off;
  }

  Round &round(int tag_slot, bool fan_out = false) {
    rounds_.push_back(Round{tag_slot, fan_out, {}});
    return rounds_.back();
  }
  [[nodiscard]] int tag(int slot) const {
    return tags_[static_cast<std::size_t>(slot)];
  }

  MPI_Comm comm;
  const interpose::MpiTable &next;
  /// Leg sides; local steps run in the receive side's domain (reductions
  /// set both sides alike).
  Side send_side = Side::Other, recv_side = Side::Other;
  /// Datatypes of typed system legs on an Other side (exchange only; null
  /// on reductions, whose Other legs ship packed bytes).
  MPI_Datatype send_type = nullptr, recv_type = nullptr;
  /// Pack/Unpack/CombineUser datatype and its packer (Fused only).
  MPI_Datatype dt = nullptr;
  const Packer *pk = nullptr;
  Combiner comb;
  /// Reductions: a leg's two endpoints may differ in residency (or be
  /// system ranks), and only single-leg methods keep the wire a plain
  /// byte message, so a Pipelined choice ships as Device.
  bool clamp_pipelined = false;
  /// Derived-type reductions: segment sizes are globally known and no
  /// system-path rank can join, so zero-byte legs are skipped on both
  /// ends. (Exchanges and named reductions post them: a peer may be a
  /// system-path rank expecting a zero-count message.)
  bool skip_empty_legs = false;
  /// Stream of the local steps; taken from the pool at first use if null.
  vcuda::StreamHandle stream = nullptr;
  /// The caller's counters (required): +1 per posted leg or self copy,
  /// +1 per device combine, live or replayed (reductions only).
  trace::Counter *legs = nullptr;
  trace::Counter *kernels = nullptr;

private:
  struct Buffer {
    std::byte *ptr = nullptr;
    std::size_t bytes = 0;
    bool device = false, pending = false;
    CachedBuffer lease;
    std::vector<std::byte> host;
  };
  struct SpanTable {
    const Packer *pk = nullptr;
    std::vector<PackSpan> spans;
    std::size_t total = 0;
  };
  struct Frozen; // one recorded round, defined in the .cpp
  /// Reserve `tags` fresh collective-tag slots on `comm`.
  void reserve_tags(int tags);
  std::deque<Buffer> bufs_;
  std::deque<Round> rounds_;
  std::vector<SpanTable> tables_;
  std::vector<int> tags_;
  /// Self copies on `stream` that no synchronization has observed yet.
  bool unsynced_ = false;
  /// Recorded rounds (empty until recorded).
  std::vector<Frozen> frozen_;
  friend struct Exec;
};

/// One side's datatype as a key sees it. A freed handle reused for a new
/// type differs in size, extent or packer (packers are retired, never
/// freed, within an install).
struct TypeKey {
  MPI_Datatype dt = nullptr;
  long long size = 0, extent = 0;
  const Packer *pk = nullptr;
  bool operator==(const TypeKey &) const = default;
};
TypeKey type_key(MPI_Datatype dt);

/// The collective a Key names.
enum class Kind : std::uint8_t {
  Alltoallv,
  Neighbor,
  Gatherv,
  Allreduce,
  Reduce,
  ReduceScatter,
};

/// The full identity of one collective call: two calls with equal keys
/// build the same schedule.
struct Key {
  Kind kind = Kind::Alltoallv;
  MPI_Comm comm = nullptr;
  std::uint64_t comm_id = 0;
  const void *sendbuf = nullptr, *recvbuf = nullptr;
  TypeKey send, recv;
  Side send_side = Side::Other, recv_side = Side::Other;
  MPI_Op op = nullptr;
  int root = -1;
  /// Every count and displacement vector (compared by value) and any
  /// other argument the generator reads, in a fixed order per kind.
  std::vector<long long> args;

  Key &arg(long long v) {
    args.push_back(v);
    return *this;
  }
  Key &args_of(const int *v, int n) {
    args.insert(args.end(), v, v + n);
    return *this;
  }
  bool operator==(const Key &) const = default;
  [[nodiscard]] std::uint64_t hash() const;
};

/// A collective's generator: fills a fresh schedule for the call. A
/// non-owning reference, valid for the run() call it is passed to.
class Build {
public:
  template <class F>
  Build(F &&f) // implicit: call sites pass lambdas
      : f_(&f), call_([](void *f, Schedule &s) {
          (*static_cast<std::remove_reference_t<F> *>(f))(s);
        }) {}
  void operator()(Schedule &s) const { call_(f_, s); }

private:
  void *f_;
  void (*call_)(void *, Schedule &);
};

/// One collective call through the calling thread's schedule table (see
/// the file comment): a recorded schedule serves the call and `build` is
/// skipped; otherwise `build` fills a fresh schedule, which runs live
/// (first sighting) or records (second). `tags` is the call's
/// collective-tag budget, reserved on `key.comm` by every call. Returns
/// MPI_SUCCESS or the first error.
int run(const Key &key, const interpose::MpiTable &next, int tags,
        Build build);

} // namespace tempi::sched
