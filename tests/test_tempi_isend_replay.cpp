// Repeated MPI_Isend and MPI_Irecv replay: the request engine runs the
// first sighting of a (packer, buffer, count, method) live, records its
// program on the second, and replays that program (one graph launch + one
// fence) from then on. Replays must ship the buffer's current bytes, never
// overwrite a wire lease still in flight, and never outlive the packers or
// the install they were recorded under. A Waitall whose claimed receives
// repeat replays their fused unpack as one recorded graph, and never after
// one of its programs was evicted or released. A send a rank addresses to
// itself lands straight in the receive its thread posted, and every such
// exchange ends exactly as it does on the system path.
#include "interpose/table.hpp"
#include "random_types.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"
#include "vcuda/clock.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::fill_pattern;
using testing_helpers::random_strided_type;
using testing_helpers::reference_pack;
using testing_helpers::Rng;
using testing_helpers::SpaceBuffer;

MPI_Datatype committed_vector(int count, int blocklen, int stride) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(count, blocklen, stride, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

std::size_t leased_now() { return tempi::buffer_cache_stats().leased_now; }

struct DeviceOps {
  std::uint64_t kernels, syncs, graphs, fences;
};

DeviceOps device_ops() {
  const vcuda::Counters c = vcuda::counters();
  return {c.kernel_launches, c.stream_syncs, c.graph_launches,
          c.stream_fences};
}

DeviceOps operator-(const DeviceOps &a, const DeviceOps &b) {
  return {a.kernels - b.kernels, a.syncs - b.syncs, a.graphs - b.graphs,
          a.fences - b.fences};
}

/// The wire bytes of one message this rank sent itself on `tag`, received
/// through the system MPI.
std::vector<std::byte> receive_wire(std::size_t bytes, int tag) {
  std::vector<std::byte> wire(bytes);
  MPI_Status status;
  EXPECT_EQ(interpose::system_table().Recv(wire.data(),
                                           static_cast<int>(bytes), MPI_BYTE,
                                           0, tag, MPI_COMM_WORLD, &status),
            MPI_SUCCESS);
  EXPECT_EQ(status.count_bytes, static_cast<long long>(bytes));
  return wire;
}

/// Isend `count` objects of `t` from `src` to this rank; the device work
/// of the Isend call alone lands in `*ops`.
MPI_Request isend_self(const void *src, int count, MPI_Datatype t, int tag,
                       DeviceOps *ops = nullptr) {
  MPI_Request req = MPI_REQUEST_NULL;
  const DeviceOps before = device_ops();
  EXPECT_EQ(MPI_Isend(src, count, t, 0, tag, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
  if (ops != nullptr) {
    *ops = device_ops() - before;
  }
  return req;
}

/// One self-sent message: Isend, receive its wire bytes, Wait.
std::vector<std::byte> send_once(const void *src, int count, MPI_Datatype t,
                                 std::size_t bytes, DeviceOps *ops = nullptr) {
  MPI_Request req = isend_self(src, count, t, 5, ops);
  std::vector<std::byte> wire = receive_wire(bytes, 5);
  EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  return wire;
}

class IsendReplay : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    sysmpi::ensure_self_context();
  }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::uninstall();
  }
};

class IsendReplayRandom : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override {
    tempi::install();
    sysmpi::ensure_self_context();
  }
  void TearDown() override { tempi::uninstall(); }
};

// Four sends of one random type with the source mutated before each: the
// wire bytes of every round, replays included, equal the system MPI_Pack
// of the buffer's current contents.
TEST_P(IsendReplayRandom, WireBytesMatchSystemPathAsSourceChanges) {
  Rng rng(GetParam() * 2654435761u + 17);
  MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 4));
  MPI_Aint lb = 0, extent = 0;
  int size = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  MPI_Type_size(t, &size);
  if (size == 0) {
    MPI_Type_free(&t);
    return;
  }
  const int count = rng.uniform(1, 3);
  const auto bytes = static_cast<std::size_t>(size) * count;
  const std::size_t span = static_cast<std::size_t>(extent) * count + 64;
  SpaceBuffer src(vcuda::MemorySpace::Device, span);
  std::vector<std::byte> expect(bytes);

  const std::uint64_t forwarded0 = counter("tempi.isend.forwarded");
  const std::uint64_t captures0 = counter("tempi.isend.captures");
  const std::uint64_t replays0 = counter("tempi.isend.replays");
  for (unsigned call = 0; call < 4; ++call) {
    fill_pattern(src.get(), span, GetParam() * 16 + call);
    int position = 0;
    ASSERT_EQ(interpose::system_table().Pack(
                  src.get(), count, t, expect.data(), static_cast<int>(bytes),
                  &position, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(send_once(src.get(), count, t, bytes), expect)
        << "call " << call;
  }
  // Contiguous types forward to the system MPI; every other type records
  // once (call 2) and sends calls 2-4 from the program.
  const bool accelerated = counter("tempi.isend.forwarded") == forwarded0;
  EXPECT_EQ(counter("tempi.isend.captures") - captures0, accelerated ? 1u : 0u);
  EXPECT_EQ(counter("tempi.isend.replays") - replays0, accelerated ? 3u : 0u);
  MPI_Type_free(&t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsendReplayRandom, ::testing::Range(1u, 21u));

TEST_F(IsendReplay, FirstCallLiveSecondCapturesLaterReplay) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(256, 8, 64);
  SpaceBuffer src(vcuda::MemorySpace::Device, 256 * 64);
  fill_pattern(src.get(), src.size());
  const auto expect = reference_pack(src.get(), 1, *t);

  const std::uint64_t captures0 = counter("tempi.isend.captures");
  std::vector<vcuda::VirtualNs> took;
  for (int call = 1; call <= 4; ++call) {
    const std::uint64_t captures = counter("tempi.isend.captures");
    const std::uint64_t replays = counter("tempi.isend.replays");
    DeviceOps d{};
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    MPI_Request req = isend_self(src.get(), 1, t, 5, &d);
    took.push_back(vcuda::virtual_now() - t0);
    EXPECT_EQ(receive_wire(expect.size(), 5), expect) << "call " << call;
    ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    const std::uint64_t captured = counter("tempi.isend.captures") - captures;
    const std::uint64_t replayed = counter("tempi.isend.replays") - replays;
    if (call == 1) {
      EXPECT_EQ(d.kernels, 1u);
      EXPECT_EQ(d.syncs, 1u);
      EXPECT_EQ(d.graphs, 0u);
      EXPECT_EQ(captured, 0u);
      EXPECT_EQ(replayed, 0u);
    } else {
      EXPECT_EQ(d.kernels, 0u) << "call " << call;
      EXPECT_EQ(d.syncs, 0u) << "call " << call;
      EXPECT_EQ(d.graphs, 1u) << "call " << call;
      EXPECT_EQ(d.fences, 1u) << "call " << call;
      EXPECT_EQ(captured, call == 2 ? 1u : 0u) << "call " << call;
      EXPECT_EQ(replayed, 1u) << "call " << call;
    }
  }
  // A replay pays the lookup, a graph launch, the in-graph node floor and
  // a fence instead of a lease, a cold launch, the cold floor and a
  // blocking sync.
  EXPECT_LT(took[2] * 2, took[0]) << took[0] << " ns live vs " << took[2]
                                  << " ns replayed";
  EXPECT_EQ(counter("tempi.isend.captures") - captures0, 1u);
  MPI_Type_free(&t);
}

TEST_F(IsendReplay, SpansNameTheLiveCaptureAndReplayPaths) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(64, 4, 16);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
  tempi::trace::reset();
  tempi::trace::set_enabled(true);
  for (int call = 0; call < 3; ++call) {
    send_once(src.get(), 1, t, 64 * 4);
  }
  tempi::trace::set_enabled(false);
  using tempi::trace::Phase;
  std::vector<Phase> phases;
  for (const tempi::trace::SpanRecord &s : tempi::trace_snapshot().spans) {
    if (s.kind == tempi::trace::OpKind::Isend && s.phase != Phase::Wire) {
      phases.push_back(s.phase);
      if (s.phase != Phase::GraphCapture) {
        EXPECT_EQ(s.bytes, 64u * 4u);
      }
    }
  }
  tempi::trace::reset();
  EXPECT_EQ(phases, (std::vector<Phase>{Phase::PackLaunch, Phase::GraphCapture,
                                        Phase::GraphReplay,
                                        Phase::GraphReplay}));
  MPI_Type_free(&t);
}

// The same key Isent twice before Wait: the second message must not be
// packed into the wire lease the first is still sending from.
TEST_F(IsendReplay, BusyProgramSendsTheOverlappingMessageLive) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  constexpr std::size_t kBytes = 128 * 4;
  for (int call = 0; call < 2; ++call) { // live, then recorded
    send_once(src.get(), 1, t, kBytes);
  }

  const std::uint64_t busy0 = counter("tempi.isend.busy");
  const std::uint64_t replays0 = counter("tempi.isend.replays");
  fill_pattern(src.get(), src.size(), 31);
  const auto first = reference_pack(src.get(), 1, *t);
  MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  DeviceOps d{};
  reqs[0] = isend_self(src.get(), 1, t, 5, &d);
  EXPECT_EQ(d.graphs, 1u); // the program, now in flight
  fill_pattern(src.get(), src.size(), 32);
  const auto second = reference_pack(src.get(), 1, *t);
  reqs[1] = isend_self(src.get(), 1, t, 6, &d);
  EXPECT_EQ(d.kernels, 1u); // live: the program is busy
  EXPECT_EQ(d.graphs, 0u);
  EXPECT_EQ(counter("tempi.isend.busy") - busy0, 1u);
  EXPECT_EQ(counter("tempi.isend.replays") - replays0, 1u);

  EXPECT_EQ(receive_wire(kBytes, 6), second);
  EXPECT_EQ(receive_wire(kBytes, 5), first);
  ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);

  // Retired: the next sighting replays again.
  send_once(src.get(), 1, t, kBytes, &d);
  EXPECT_EQ(d.graphs, 1u);
  EXPECT_EQ(counter("tempi.isend.busy") - busy0, 1u);
  MPI_Type_free(&t);
}

TEST_F(IsendReplay, ForcedMethodChangeMissesTheTable) {
  MPI_Datatype t = committed_vector(64, 8, 32);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 32);
  fill_pattern(src.get(), src.size(), 4);
  const auto expect = reference_pack(src.get(), 1, *t);
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  for (int call = 0; call < 3; ++call) {
    send_once(src.get(), 1, t, expect.size());
  }
  for (const tempi::SendMode mode :
       {tempi::SendMode::ForceOneShot, tempi::SendMode::ForceStaged}) {
    tempi::set_send_mode(mode);
    DeviceOps d{};
    EXPECT_EQ(send_once(src.get(), 1, t, expect.size(), &d), expect);
    EXPECT_EQ(d.kernels, 1u) << static_cast<int>(mode);
    EXPECT_EQ(d.graphs, 0u) << static_cast<int>(mode);
    // ... and the new method is promoted on its own second sighting.
    EXPECT_EQ(send_once(src.get(), 1, t, expect.size(), &d), expect);
    EXPECT_EQ(d.graphs, 1u) << static_cast<int>(mode);
  }
  MPI_Type_free(&t);
}

/// The built-in tables with `m`'s pack kernels made 1000x slower, so the
/// model's choice moves off `m`.
tempi::PerfModel model_penalizing(tempi::Method m) {
  tempi::SystemPerf perf = tempi::builtin_perf();
  tempi::Table2D &pack = m == tempi::Method::OneShot ? perf.oneshot_pack
                                                     : perf.device_pack;
  for (double &us : pack.us) {
    us *= 1000.0;
  }
  return tempi::PerfModel(std::move(perf));
}

TEST_F(IsendReplay, ModelGenerationChangingTheMethodMissesTheTable) {
  MPI_Datatype t = committed_vector(64, 8, 32);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 32);
  fill_pattern(src.get(), src.size(), 8);
  const auto expect = reference_pack(src.get(), 1, *t);
  const auto oneshots = [] { return counter("tempi.isend.oneshot"); };

  // Slow one-shot kernels: the model picks a device-side method.
  tempi::set_perf_model(model_penalizing(tempi::Method::OneShot));
  const std::uint64_t oneshot0 = oneshots();
  DeviceOps d{};
  for (int call = 0; call < 3; ++call) {
    send_once(src.get(), 1, t, expect.size(), &d);
  }
  EXPECT_EQ(d.graphs, 1u); // the key replays
  EXPECT_EQ(oneshots(), oneshot0);

  // A new generation with slow device kernels picks one-shot: a new key.
  tempi::set_perf_model(model_penalizing(tempi::Method::Device));
  EXPECT_EQ(send_once(src.get(), 1, t, expect.size(), &d), expect);
  EXPECT_EQ(oneshots(), oneshot0 + 1);
  EXPECT_EQ(d.kernels, 1u);
  EXPECT_EQ(d.graphs, 0u);
  tempi::set_perf_model(tempi::PerfModel{});
  MPI_Type_free(&t);
}

TEST_F(IsendReplay, FreedAndRecommittedTypeNeverReplaysTheOldProgram) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype wide = committed_vector(64, 8, 16);
  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
  fill_pattern(src.get(), src.size(), 3);
  for (int call = 0; call < 3; ++call) {
    send_once(src.get(), 1, wide, 64 * 8);
  }
  MPI_Type_free(&wide);

  // Same buffer, same count, a different layout (possibly the same
  // handle): a new packer, so a new key.
  MPI_Datatype narrow = committed_vector(64, 4, 16);
  DeviceOps d{};
  EXPECT_EQ(send_once(src.get(), 1, narrow, 64 * 4, &d),
            reference_pack(src.get(), 1, *narrow));
  EXPECT_EQ(d.kernels, 1u);
  EXPECT_EQ(d.graphs, 0u);
  MPI_Type_free(&narrow);
}

// Send programs pin their leases, so one thread's programs share a 16 MiB
// budget: recording past it evicts the least recently used program (whose
// key starts over at a first sighting), and a message whose leases alone
// exceed it is never recorded.
TEST_F(IsendReplay, ProgramsStayWithinTheByteBudget) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  constexpr int kBlocks = 3 * 1024; // 3 MiB packed: 4 MiB programs
  constexpr std::size_t kBytes = std::size_t{kBlocks} * 1024;
  constexpr std::size_t kStep = 4096;
  MPI_Datatype t = committed_vector(kBlocks, 1024, 1032);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  SpaceBuffer src(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 4 * kStep);
  fill_pattern(src.get(), src.size(), 21);
  const auto key = [&](std::size_t k) { return src.bytes() + k * kStep; };

  const std::size_t leased0 = leased_now();
  for (std::size_t k = 0; k < 4; ++k) { // 4 x 4 MiB: the whole budget
    send_once(key(k), 1, t, kBytes);
    send_once(key(k), 1, t, kBytes);
  }
  EXPECT_EQ(leased_now(), leased0 + 4);
  const std::uint64_t evictions0 = counter("tempi.isend.evictions");
  send_once(key(4), 1, t, kBytes);
  send_once(key(4), 1, t, kBytes); // recorded: key 0's program goes
  EXPECT_EQ(counter("tempi.isend.evictions") - evictions0, 1u);
  EXPECT_EQ(leased_now(), leased0 + 4);

  DeviceOps d{};
  EXPECT_EQ(send_once(key(1), 1, t, kBytes, &d), reference_pack(key(1), 1, *t));
  EXPECT_EQ(d.graphs, 1u); // still recorded
  EXPECT_EQ(send_once(key(0), 1, t, kBytes, &d), reference_pack(key(0), 1, *t));
  EXPECT_EQ(d.kernels, 1u); // evicted: a first sighting again
  EXPECT_EQ(d.graphs, 0u);
  MPI_Type_free(&t);

  // Staged leases (device stage + pinned wire) of just over 8 MiB each
  // round up to 32 MiB: the message never promotes.
  tempi::set_send_mode(tempi::SendMode::ForceStaged);
  MPI_Datatype big = committed_vector(8 * 1024 + 1, 1024, 1032);
  MPI_Type_get_extent(big, &lb, &extent);
  SpaceBuffer big_src(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent));
  fill_pattern(big_src.get(), big_src.size(), 22);
  const std::uint64_t captures0 = counter("tempi.isend.captures");
  for (int call = 0; call < 3; ++call) {
    send_once(big_src.get(), 1, big, (8 * 1024 + 1) * 1024, &d);
    EXPECT_EQ(d.kernels, 1u) << "call " << call;
  }
  EXPECT_EQ(counter("tempi.isend.captures"), captures0);
  MPI_Type_free(&big);
}

// Uninstall destroys every packer, so a reinstall must replay nothing it
// recorded before, and the pinned leases of every thread's programs are
// released at uninstall — not when their threads next send or exit.
TEST_F(IsendReplay, UninstallReleasesEveryThreadsPrograms) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  const auto promote = [](const void *src, MPI_Datatype t) {
    for (int call = 0; call < 3; ++call) {
      send_once(src, 1, t, 64 * 4);
    }
  };
  const auto sends_live = [](const void *src) {
    MPI_Datatype t = committed_vector(64, 4, 16); // recommitted post-install
    DeviceOps d{};
    EXPECT_EQ(send_once(src, 1, t, 64 * 4, &d),
              reference_pack(src, 1, *t));
    EXPECT_EQ(d.kernels, 1u);
    EXPECT_EQ(d.graphs, 0u);
    MPI_Type_free(&t);
  };
  std::barrier<> step(2);
  std::thread worker([&] {
    sysmpi::ensure_self_context();
    SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
    fill_pattern(src.get(), src.size(), 6);
    MPI_Datatype t = committed_vector(64, 4, 16);
    promote(src.get(), t);
    step.arrive_and_wait(); // main uninstalls and reinstalls
    step.arrive_and_wait();
    MPI_Type_free(&t);
    sends_live(src.get());
  });

  SpaceBuffer src(vcuda::MemorySpace::Device, 64 * 16);
  fill_pattern(src.get(), src.size(), 5);
  MPI_Datatype t = committed_vector(64, 4, 16);
  promote(src.get(), t);
  step.arrive_and_wait();
  EXPECT_GT(leased_now(), 0u); // both threads' programs pin a wire lease
  tempi::uninstall();
  EXPECT_EQ(leased_now(), 0u);
  tempi::install();
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  step.arrive_and_wait();
  worker.join();
  MPI_Type_free(&t);
  sends_live(src.get());
}

// A thread exiting with promoted entries: its table outlives the thread's
// buffer cache (the table is created before the first lease), so the
// programs' leases are released after the cache is gone.
TEST_F(IsendReplay, ThreadExitWithLiveEntriesReleasesEverything) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(128, 4, 12);
  const std::size_t leased0 = leased_now();
  const vcuda::Counters before = vcuda::counters();
  std::thread([t] {
    sysmpi::ensure_self_context();
    constexpr std::size_t kStep = 256;
    SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12 + 3 * kStep);
    fill_pattern(src.get(), src.size(), 12);
    for (std::size_t k = 0; k < 4; ++k) { // four keys, each recorded
      const std::byte *from = src.bytes() + k * kStep;
      for (int call = 0; call < 3; ++call) {
        EXPECT_EQ(send_once(from, 1, t, 128 * 4),
                  reference_pack(from, 1, *t));
      }
    }
  }).join();
  const vcuda::Counters after = vcuda::counters();
  EXPECT_EQ(leased_now(), leased0);
  EXPECT_EQ(after.mallocs - before.mallocs, after.frees - before.frees);
  MPI_Type_free(&t);
}

// --- MPI_Irecv --------------------------------------------------------------

class IrecvReplay : public IsendReplay {};

/// One object of `t` whose bytes derive from `seed`, packed: the wire of a
/// message to unpack.
std::vector<std::byte> packed_object(MPI_Datatype t, unsigned seed) {
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  std::vector<std::byte> src(static_cast<std::size_t>(extent));
  fill_pattern(src.data(), src.size(), seed);
  return reference_pack(src.data(), 1, *t);
}

/// Send `packed` to this rank on `tag` through the system MPI.
void post_wire(const std::vector<std::byte> &packed, int tag) {
  EXPECT_EQ(interpose::system_table().Send(packed.data(),
                                           static_cast<int>(packed.size()),
                                           MPI_BYTE, 0, tag, MPI_COMM_WORLD),
            MPI_SUCCESS);
}

/// One MPI_Irecv + MPI_Wait of one object of `t` into `dst`, landing
/// fresh bytes; returns the device work of the two calls.
DeviceOps irecv_once(void *dst, MPI_Datatype t, unsigned seed,
                     int tag = 5) {
  const std::vector<std::byte> packed = packed_object(t, seed);
  post_wire(packed, tag);
  const DeviceOps before = device_ops();
  MPI_Request req = MPI_REQUEST_NULL;
  EXPECT_EQ(MPI_Irecv(dst, 1, t, 0, tag, MPI_COMM_WORLD, &req), MPI_SUCCESS);
  EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  const DeviceOps d = device_ops() - before;
  EXPECT_EQ(reference_pack(dst, 1, *t), packed) << "seed " << seed;
  return d;
}

/// One MPI_Waitall over `n` MPI_Irecvs of one object of `t`, the k-th
/// into `base + k * step` on tag 40 + k, each landing fresh bytes; returns
/// the device work of the Waitall call alone.
DeviceOps waitall_round(std::byte *base, std::size_t step, int n,
                        MPI_Datatype t, unsigned seed) {
  std::vector<std::vector<std::byte>> sent;
  std::vector<MPI_Request> reqs(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    sent.push_back(packed_object(t, seed * 16 + static_cast<unsigned>(k)));
    post_wire(sent.back(), 40 + k);
    EXPECT_EQ(MPI_Irecv(base + static_cast<std::size_t>(k) * step, 1, t, 0,
                        40 + k, MPI_COMM_WORLD,
                        &reqs[static_cast<std::size_t>(k)]),
              MPI_SUCCESS);
  }
  const DeviceOps before = device_ops();
  EXPECT_EQ(MPI_Waitall(n, reqs.data(), MPI_STATUSES_IGNORE), MPI_SUCCESS);
  const DeviceOps d = device_ops() - before;
  for (int k = 0; k < n; ++k) {
    EXPECT_EQ(reference_pack(base + static_cast<std::size_t>(k) * step, 1,
                             *t),
              sent[static_cast<std::size_t>(k)])
        << "seed " << seed << " receive " << k;
  }
  return d;
}

std::uint64_t graph_nodes_captured() {
  return vcuda::counters().graph_nodes_captured;
}

std::size_t graph_replay_spans(tempi::trace::OpKind kind) {
  std::size_t n = 0;
  for (const tempi::trace::SpanRecord &rec : tempi::trace_snapshot().spans) {
    n += rec.phase == tempi::trace::Phase::GraphReplay && rec.kind == kind
             ? 1
             : 0;
  }
  return n;
}

// The first Irecv of a key unpacks live and synchronizes, the second
// records the unpack program (and replays it), the third only replays:
// one graph launch and a fence, no kernel launch and no sync.
TEST_F(IrecvReplay, FirstCallLiveSecondCapturesThirdReplays) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  tempi::trace::reset_counters();
  tempi::trace::reset();
  tempi::trace::set_enabled(true);

  std::uint64_t nodes = graph_nodes_captured();
  DeviceOps d = irecv_once(dst.get(), t, 1);
  EXPECT_EQ(d.kernels, 1u);
  EXPECT_EQ(d.syncs, 1u);
  EXPECT_EQ(d.graphs, 0u);
  EXPECT_EQ(graph_nodes_captured(), nodes);

  d = irecv_once(dst.get(), t, 2);
  EXPECT_GT(graph_nodes_captured(), nodes); // recorded at the Irecv
  EXPECT_EQ(d.kernels, 0u);
  EXPECT_EQ(d.syncs, 0u);
  EXPECT_EQ(d.graphs, 1u);
  EXPECT_EQ(d.fences, 1u);

  nodes = graph_nodes_captured();
  d = irecv_once(dst.get(), t, 3);
  EXPECT_EQ(graph_nodes_captured(), nodes);
  EXPECT_EQ(d.kernels, 0u);
  EXPECT_EQ(d.syncs, 0u);
  EXPECT_EQ(d.graphs, 1u);
  EXPECT_EQ(d.fences, 1u);

  tempi::trace::set_enabled(false);
  EXPECT_EQ(counter("tempi.irecv.captures"), 1u);
  EXPECT_EQ(counter("tempi.irecv.replays"), 2u);
  EXPECT_EQ(counter("tempi.irecv.busy"), 0u);
  for (const char *name : {"tempi.isend.replays", "tempi.isend.captures",
                           "tempi.recv.replays", "tempi.recv.captures"}) {
    EXPECT_EQ(counter(name), 0u) << name;
  }
  EXPECT_EQ(graph_replay_spans(tempi::trace::OpKind::Irecv), 2u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  tempi::trace::reset();
  MPI_Type_free(&t);
}

// While a persistent receive of the same key rests, an Irecv borrows its
// frozen program from the first call on, and the request still works.
TEST_F(IrecvReplay, BorrowsARestingRecvInitProgram) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  MPI_Request ch = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Recv_init(dst.get(), 1, t, 0, 7, MPI_COMM_WORLD, &ch),
            MPI_SUCCESS);
  tempi::trace::reset_counters();
  for (unsigned call = 0; call < 2; ++call) {
    const DeviceOps d = irecv_once(dst.get(), t, 10 + call, 8);
    EXPECT_EQ(d.kernels, 0u) << "call " << call;
    EXPECT_EQ(d.graphs, 1u) << "call " << call;
  }
  EXPECT_EQ(counter("tempi.irecv.captures"), 0u);
  EXPECT_EQ(counter("tempi.irecv.replays"), 2u);
  EXPECT_EQ(counter("tempi.irecv.busy"), 0u);

  const std::vector<std::byte> packed = packed_object(t, 20);
  post_wire(packed, 7);
  ASSERT_EQ(MPI_Start(&ch), MPI_SUCCESS);
  ASSERT_EQ(MPI_Wait(&ch, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(reference_pack(dst.get(), 1, *t), packed);
  EXPECT_EQ(counter("tempi.persistent.replays"), 1u);
  ASSERT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
  MPI_Type_free(&t);
}

// Two Irecvs of one key in one Waitall: the first runs from the program,
// the second finds it claimed and unpacks live (counted busy).
TEST_F(IrecvReplay, SameKeyTwiceInOneWaitallRunsTheSecondLive) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  irecv_once(dst.get(), t, 1); // live
  irecv_once(dst.get(), t, 2); // recorded
  tempi::trace::reset_counters();
  // Both messages carry the same bytes: the two receives share a buffer.
  const std::vector<std::byte> packed = packed_object(t, 3);
  post_wire(packed, 5);
  post_wire(packed, 6);
  MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]),
            MPI_SUCCESS);
  ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 6, MPI_COMM_WORLD, &reqs[1]),
            MPI_SUCCESS);
  const DeviceOps before = device_ops();
  ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
  const DeviceOps d = device_ops() - before;
  EXPECT_EQ(d.kernels, 1u); // the busy receive's live unpack
  EXPECT_EQ(d.graphs, 1u);  // the program's
  EXPECT_EQ(counter("tempi.irecv.busy"), 1u);
  EXPECT_EQ(counter("tempi.irecv.replays"), 1u);
  EXPECT_EQ(reference_pack(dst.get(), 1, *t), packed);

  // Retired: the next call replays again.
  EXPECT_EQ(irecv_once(dst.get(), t, 4).graphs, 1u);
  EXPECT_EQ(counter("tempi.irecv.busy"), 1u);
  MPI_Type_free(&t);
}

// A Waitall of N claimed receives replays each program's graph the first
// time it flushes them together, records their fused unpack the second
// time, and from then on launches one graph per flush and fences it.
TEST_F(IrecvReplay, RepeatedWaitallLaunchesOneGraphPerFlush) {
  constexpr int kN = 4;
  constexpr std::size_t kStep = 128 * 12;
  for (const tempi::SendMode mode :
       {tempi::SendMode::ForceDevice, tempi::SendMode::ForceOneShot}) {
    tempi::set_send_mode(mode);
    const std::string where =
        "mode " + std::to_string(static_cast<int>(mode));
    MPI_Datatype t = committed_vector(128, 4, 12);
    SpaceBuffer dst(vcuda::MemorySpace::Device, kN * kStep);
    tempi::trace::reset_counters();

    DeviceOps d = waitall_round(dst.bytes(), kStep, kN, t, 1);
    EXPECT_EQ(d.kernels, 1u) << where; // first sightings: one fused launch
    EXPECT_EQ(d.graphs, 0u) << where;

    d = waitall_round(dst.bytes(), kStep, kN, t, 2);
    EXPECT_EQ(d.kernels, 0u) << where; // new programs: one graph each
    EXPECT_EQ(d.graphs, static_cast<std::uint64_t>(kN)) << where;
    EXPECT_EQ(counter("tempi.engine.fused_unpack_captures"), 0u) << where;

    for (unsigned round = 3; round < 6; ++round) {
      d = waitall_round(dst.bytes(), kStep, kN, t, round);
      EXPECT_EQ(d.kernels, 0u) << where << " round " << round;
      EXPECT_EQ(d.syncs, 0u) << where << " round " << round;
      EXPECT_EQ(d.graphs, 1u) << where << " round " << round;
      EXPECT_EQ(d.fences, 1u) << where << " round " << round;
    }
    EXPECT_EQ(counter("tempi.engine.fused_unpack_captures"), 1u) << where;
    EXPECT_EQ(counter("tempi.engine.fused_unpack_replays"), 3u) << where;
    EXPECT_EQ(counter("tempi.engine.fused_unpack_launches"), 1u) << where;
    EXPECT_EQ(counter("tempi.irecv.replays"), 4u * kN) << where;
    EXPECT_EQ(tempi::async::in_flight(), 0u) << where;
    MPI_Type_free(&t);
  }
}

/// One device buffer of one object per type.
std::vector<std::unique_ptr<SpaceBuffer>>
object_buffers(const std::vector<MPI_Datatype> &types) {
  std::vector<std::unique_ptr<SpaceBuffer>> dst;
  for (const MPI_Datatype t : types) {
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    dst.push_back(std::make_unique<SpaceBuffer>(
        vcuda::MemorySpace::Device, static_cast<std::size_t>(extent)));
  }
  return dst;
}

/// Five Waitall rounds over Irecvs of `types` into `dst` on `tags` (each
/// landing fresh bytes, checked), the last one traced; returns the device
/// work of each round's Waitall call and leaves the last round's spans in
/// the tracer.
std::vector<DeviceOps>
recorded_rounds(const std::vector<MPI_Datatype> &types,
                const std::vector<std::unique_ptr<SpaceBuffer>> &dst,
                const std::vector<int> &tags) {
  std::vector<DeviceOps> ops;
  for (unsigned round = 1; round <= 5; ++round) {
    std::vector<std::vector<std::byte>> sent;
    std::vector<MPI_Request> reqs(types.size(), MPI_REQUEST_NULL);
    for (std::size_t k = 0; k < types.size(); ++k) {
      sent.push_back(packed_object(types[k], round * 8 + k));
      post_wire(sent.back(), tags[k]);
      EXPECT_EQ(MPI_Irecv(dst[k]->get(), 1, types[k], 0, tags[k],
                          MPI_COMM_WORLD, &reqs[k]),
                MPI_SUCCESS);
    }
    if (round == 5) {
      tempi::trace::reset();
      tempi::trace::set_enabled(true);
    }
    const DeviceOps before = device_ops();
    EXPECT_EQ(MPI_Waitall(static_cast<int>(reqs.size()), reqs.data(),
                          MPI_STATUSES_IGNORE),
              MPI_SUCCESS);
    ops.push_back(device_ops() - before);
    tempi::trace::set_enabled(false);
    for (std::size_t k = 0; k < types.size(); ++k) {
      EXPECT_EQ(reference_pack(dst[k]->get(), 1, *types[k]), sent[k])
          << "round " << round << " receive " << k;
    }
  }
  return ops;
}

// Small, small, large, small receives on four tags: the rendezvous-sized
// one is matched first, so nothing is pending before its wire wait and
// the batch is not split. Once repeated, its unpack and the small ones
// replay as one recorded batch: one graph launch and one fence. With the
// large message on the tag of the small receive before it, that receive
// could take it: the large receive keeps its place, flushes the batch
// before its wire wait, and each of the two flushes replays its own
// recorded batch.
TEST_F(IrecvReplay, RendezvousReceiveSplitsTheRecordedBatches) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype small = committed_vector(32, 4, 12);
  MPI_Datatype large = committed_vector(8192, 16, 24); // 128 KiB packed
  const auto large_bytes = static_cast<std::size_t>(large->size);
  ASSERT_GT(large_bytes, sysmpi::net_params().eager_bytes);
  const std::vector<MPI_Datatype> types = {small, small, large, small};

  // Two sets of destinations, alive together, so the second part's
  // receive keys never meet the first part's programs.
  const auto dst = object_buffers(types);
  const auto blocked_dst = object_buffers(types);

  tempi::trace::reset_counters();
  std::vector<DeviceOps> ops = recorded_rounds(types, dst, {60, 61, 62, 63});
  for (std::size_t round = 3; round < ops.size(); ++round) {
    EXPECT_EQ(ops[round].kernels, 0u) << "round " << round + 1;
    EXPECT_EQ(ops[round].syncs, 0u) << "round " << round + 1;
    EXPECT_EQ(ops[round].graphs, 1u) << "round " << round + 1;
    EXPECT_EQ(ops[round].fences, 1u) << "round " << round + 1;
  }
  EXPECT_EQ(counter("tempi.engine.fused_unpack_captures"), 1u);
  EXPECT_EQ(counter("tempi.engine.fused_unpack_replays"), 3u);
  std::vector<tempi::trace::SpanRecord> wires;
  std::vector<tempi::trace::SpanRecord> replays;
  for (const tempi::trace::SpanRecord &s : tempi::trace_snapshot().spans) {
    if (s.kind != tempi::trace::OpKind::Irecv) {
      continue;
    }
    if (s.phase == tempi::trace::Phase::Wire) {
      wires.push_back(s);
    } else if (s.phase == tempi::trace::Phase::GraphReplay) {
      replays.push_back(s);
    }
  }
  ASSERT_EQ(wires.size(), types.size());
  const auto by_start = [](const auto &x, const auto &y) { return x.t0 < y.t0; };
  const auto first_wire = std::min_element(wires.begin(), wires.end(), by_start);
  const auto last_wire = std::max_element(wires.begin(), wires.end(), by_start);
  EXPECT_EQ(first_wire->bytes, large_bytes); // the rendezvous wire first
  ASSERT_EQ(replays.size(), 1u); // the unpacks go out as one flush
  EXPECT_GE(replays.front().t0, last_wire->t1);

  tempi::trace::reset_counters();
  ops = recorded_rounds(types, blocked_dst, {70, 71, 71, 73});
  for (std::size_t round = 3; round < ops.size(); ++round) {
    EXPECT_EQ(ops[round].kernels, 0u) << "round " << round + 1;
    EXPECT_EQ(ops[round].syncs, 0u) << "round " << round + 1;
    EXPECT_EQ(ops[round].graphs, 2u) << "round " << round + 1;
  }
  EXPECT_EQ(counter("tempi.engine.fused_unpack_captures"), 2u);
  EXPECT_EQ(counter("tempi.engine.fused_unpack_replays"), 2u * 3u);
  tempi::trace::reset();
  MPI_Type_free(&large);
  MPI_Type_free(&small);
}

// A recorded batch holds its member programs. Once one member is evicted
// from the program table, its key runs live and records a new program, so
// the old batch never matches again: nothing replays into the evicted
// program (ASan would flag a freed lease or graph).
TEST_F(IrecvReplay, EvictedMemberNeverReplaysAStaleBatch) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  constexpr int kN = 2;
  constexpr std::size_t kStep = 128 * 12;
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, kN * kStep);
  tempi::trace::reset_counters();
  for (unsigned round = 1; round <= 3; ++round) {
    waitall_round(dst.bytes(), kStep, kN, t, round);
  }
  ASSERT_EQ(counter("tempi.engine.fused_unpack_replays"), 1u);

  // Fill the table with first sightings (one key per count) until its
  // least recently used entries, the two members, are replaced.
  MPI_Datatype tiny = committed_vector(4, 1, 2);
  constexpr int kKeys = 200;
  SpaceBuffer flood(vcuda::MemorySpace::Device, kKeys * 8);
  for (int count = 1; count <= kKeys; ++count) {
    std::vector<std::byte> packed(static_cast<std::size_t>(count) * 4);
    fill_pattern(packed.data(), packed.size(), 7);
    post_wire(packed, 9);
    MPI_Request req = MPI_REQUEST_NULL;
    ASSERT_EQ(MPI_Irecv(flood.get(), count, tiny, 0, 9, MPI_COMM_WORLD, &req),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(reference_pack(flood.get(), count, *tiny), packed);
  }
  EXPECT_GE(counter("tempi.isend.evictions"), 2u);

  const DeviceOps d = waitall_round(dst.bytes(), kStep, kN, t, 4);
  EXPECT_EQ(d.kernels, 1u); // first sightings again: live
  EXPECT_EQ(d.graphs, 0u);
  for (unsigned round = 5; round <= 7; ++round) {
    waitall_round(dst.bytes(), kStep, kN, t, round);
  }
  // New programs, a new batch: recorded in round 6, replayed in 6 and 7.
  EXPECT_EQ(counter("tempi.engine.fused_unpack_captures"), 2u);
  EXPECT_EQ(counter("tempi.engine.fused_unpack_replays"), 3u);
  MPI_Type_free(&tiny);
  MPI_Type_free(&t);
}

// A batch of receives borrowing two persistent requests' programs, the
// requests then freed on another thread: the programs' pins lapse although
// the recorded batch still holds them, so the next Waitall runs live and
// never replays the batch. Uninstall releases what the batch held.
TEST_F(IrecvReplay, ChannelsFreedOnAnotherThreadNeverReplayTheirBatch) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  constexpr int kN = 2;
  constexpr std::size_t kStep = 128 * 12;
  const std::size_t leased0 = leased_now();
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, kN * kStep);
  std::vector<MPI_Request> channels(kN, MPI_REQUEST_NULL);
  for (int k = 0; k < kN; ++k) {
    ASSERT_EQ(MPI_Recv_init(dst.bytes() + k * kStep, 1, t, 0, 20 + k,
                            MPI_COMM_WORLD,
                            &channels[static_cast<std::size_t>(k)]),
              MPI_SUCCESS);
  }
  tempi::trace::reset_counters();
  for (unsigned round = 1; round <= 3; ++round) {
    waitall_round(dst.bytes(), kStep, kN, t, round); // borrowed
  }
  EXPECT_EQ(counter("tempi.irecv.captures"), 0u);
  ASSERT_EQ(counter("tempi.engine.fused_unpack_replays"), 2u);

  std::thread([&channels] {
    for (MPI_Request &ch : channels) {
      EXPECT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
    }
  }).join();
  EXPECT_EQ(tempi::async::persistent_open(), 0u);

  const DeviceOps d = waitall_round(dst.bytes(), kStep, kN, t, 4);
  EXPECT_EQ(d.kernels, 1u); // first sightings: live
  EXPECT_EQ(d.graphs, 0u);
  EXPECT_EQ(counter("tempi.engine.fused_unpack_replays"), 2u);
  MPI_Type_free(&t);
  tempi::uninstall();
  EXPECT_EQ(leased_now(), leased0);
  tempi::install();
}

// --- self delivery ----------------------------------------------------------

class SelfDelivery : public IsendReplay {};

/// Rounds per scenario: the first sighting of a (send, landing buffer) pair
/// takes the system route and the second records, so later rounds deliver.
constexpr unsigned kRounds = 5;

/// What one scenario observed: the destination buffers after each round,
/// every receive status kept, and every return code.
struct Seen {
  std::vector<std::vector<std::byte>> buffers;
  std::vector<std::array<long long, 4>> statuses;
  std::vector<int> codes;

  void buffer(const SpaceBuffer &b) {
    buffers.emplace_back(b.bytes(), b.bytes() + b.size());
  }
  void status(const MPI_Status &st) {
    statuses.push_back({st.MPI_SOURCE, st.MPI_TAG, st.MPI_ERROR,
                        st.count_bytes});
  }
  void code(int rc) { codes.push_back(rc); }
};

using Round = std::function<void(unsigned, Seen &)>;

Seen observe(tempi::SendMode mode, const Round &round) {
  tempi::set_send_mode(mode);
  Seen seen;
  for (unsigned r = 0; r < kRounds; ++r) {
    round(r, seen);
  }
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  return seen;
}

/// Run `round` kRounds times on the system path, then through TEMPI with
/// `mode`, and require the same bytes, statuses and return codes; returns
/// how many sends the TEMPI run delivered straight.
std::uint64_t expect_system_behavior(
    const Round &round,
    tempi::SendMode mode = tempi::SendMode::ForceDevice) {
  const Seen reference = observe(tempi::SendMode::System, round);
  const std::uint64_t delivered0 = counter("tempi.p2p.self_deliveries");
  const Seen seen = observe(mode, round);
  EXPECT_EQ(seen.codes, reference.codes);
  EXPECT_EQ(seen.statuses, reference.statuses);
  EXPECT_EQ(seen.buffers, reference.buffers);
  return counter("tempi.p2p.self_deliveries") - delivered0;
}

/// Fill a send source and poison a destination for round `r`.
void prepare(const SpaceBuffer &src, const SpaceBuffer &dst, unsigned r) {
  fill_pattern(src.get(), src.size(), 100 + r);
  fill_pattern(dst.get(), dst.size(), 200 + r);
}

/// Self-delivery declines so far: those counted under `rule`, and all.
struct Declines {
  std::uint64_t rule = 0;
  std::uint64_t total = 0;
};

Declines declines(std::string_view rule) {
  return {counter("tempi.p2p.self_declines." + std::string(rule)),
          counter("tempi.p2p.self_declines")};
}

/// Require that every decline since `before` counted once, under `rule`,
/// and that there were `n` of them.
void expect_declines(std::string_view rule, const Declines &before,
                     std::uint64_t n) {
  const Declines after = declines(rule);
  EXPECT_EQ(after.rule - before.rule, n) << rule;
  EXPECT_EQ(after.total - before.total, n) << rule;
}

TEST_F(SelfDelivery, IrecvIsendWaitMatchesTheSystemPath) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  for (const tempi::SendMode mode :
       {tempi::SendMode::ForceDevice, tempi::SendMode::ForceOneShot,
        tempi::SendMode::ForceStaged}) {
    const std::uint64_t delivered = expect_system_behavior(
        [&](unsigned r, Seen &seen) {
          prepare(src, dst, r);
          MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
          MPI_Status st;
          seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                              &reqs[0]));
          seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                              &reqs[1]));
          seen.code(MPI_Wait(&reqs[0], &st));
          seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
          seen.status(st);
          seen.buffer(dst);
        },
        mode);
    EXPECT_GE(delivered, 2u) << "mode " << static_cast<int>(mode);
  }
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  MPI_Type_free(&t);
}

TEST_F(SelfDelivery, IrecvThenBlockingSendMatchesTheSystemPath) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const std::uint64_t replays0 = counter("tempi.send.replays");
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request req = MPI_REQUEST_NULL;
        MPI_Status st;
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 9, MPI_COMM_WORLD, &req));
        seen.code(MPI_Send(src.get(), 1, t, 0, 9, MPI_COMM_WORLD));
        seen.code(MPI_Wait(&req, &st));
        seen.status(st);
        seen.buffer(dst);
      });
  EXPECT_GE(delivered, 2u);
  // A delivered send ran from a recorded graph: counted as a replay.
  EXPECT_GE(counter("tempi.send.replays") - replays0, delivered);
  MPI_Type_free(&t);
}

// A persistent Start/Start pair: the send's Start delivers into the started
// receive, and still counts as a persistent replay.
TEST_F(SelfDelivery, PersistentStartPairMatchesTheSystemPath) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  std::array<MPI_Request, 2> ch{MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  const Round round = [&](unsigned r, Seen &seen) {
    if (r == 0) {
      seen.code(MPI_Recv_init(dst.get(), 1, t, 0, 11, MPI_COMM_WORLD,
                              &ch[0]));
      seen.code(MPI_Send_init(src.get(), 1, t, 0, 11, MPI_COMM_WORLD,
                              &ch[1]));
    }
    prepare(src, dst, r);
    std::array<MPI_Status, 2> st{};
    seen.code(MPI_Start(&ch[0]));
    seen.code(MPI_Start(&ch[1]));
    seen.code(MPI_Waitall(2, ch.data(), st.data()));
    seen.status(st[0]);
    seen.buffer(dst);
    if (r + 1 == kRounds) {
      seen.code(MPI_Request_free(&ch[0]));
      seen.code(MPI_Request_free(&ch[1]));
    }
  };
  const Seen reference = observe(tempi::SendMode::System, round);
  tempi::trace::reset_counters();
  const Seen seen = observe(tempi::SendMode::ForceDevice, round);
  EXPECT_EQ(seen.codes, reference.codes);
  EXPECT_EQ(seen.statuses, reference.statuses);
  EXPECT_EQ(seen.buffers, reference.buffers);
  EXPECT_GE(counter("tempi.p2p.self_deliveries"), 2u);
  EXPECT_EQ(counter("tempi.persistent.starts"), 2u * kRounds);
  EXPECT_EQ(counter("tempi.persistent.replays"), 2u * kRounds);
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
  MPI_Type_free(&t);
}

// The halo exchange's shape: 26 receives of small and rendezvous-sized
// faces, 26 sends, one Waitall whose fused batch unpacks the deliveries.
TEST_F(SelfDelivery, TwentySixFaceWaitallMatchesTheSystemPath) {
  constexpr int kFaces = 26;
  MPI_Datatype small = committed_vector(128, 4, 12);
  MPI_Datatype large = committed_vector(8192, 16, 24); // 128 KiB packed
  ASSERT_GT(static_cast<std::size_t>(large->size),
            sysmpi::net_params().eager_bytes);
  std::vector<MPI_Datatype> types;
  std::vector<std::unique_ptr<SpaceBuffer>> srcs, dsts;
  for (int f = 0; f < kFaces; ++f) {
    types.push_back(f % 7 == 3 ? large : small);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(types.back(), &lb, &extent);
    const auto bytes = static_cast<std::size_t>(extent);
    srcs.push_back(
        std::make_unique<SpaceBuffer>(vcuda::MemorySpace::Device, bytes));
    dsts.push_back(
        std::make_unique<SpaceBuffer>(vcuda::MemorySpace::Device, bytes));
  }
  const std::uint64_t batch_replays0 =
      counter("tempi.engine.fused_unpack_replays");
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        std::vector<MPI_Request> reqs(2 * kFaces, MPI_REQUEST_NULL);
        for (int f = 0; f < kFaces; ++f) {
          prepare(*srcs[f], *dsts[f], r * kFaces + f);
          seen.code(MPI_Irecv(dsts[f]->get(), 1, types[f], 0, f,
                              MPI_COMM_WORLD, &reqs[f]));
        }
        for (int f = kFaces - 1; f >= 0; --f) {
          seen.code(MPI_Isend(srcs[f]->get(), 1, types[f], 0, f,
                              MPI_COMM_WORLD, &reqs[kFaces + f]));
        }
        std::vector<MPI_Status> st(reqs.size());
        seen.code(MPI_Waitall(2 * kFaces, reqs.data(), st.data()));
        for (int f = 0; f < kFaces; ++f) {
          seen.status(st[f]);
          seen.buffer(*dsts[f]);
        }
      });
  EXPECT_GE(delivered, 2u * kFaces);
  EXPECT_GT(counter("tempi.engine.fused_unpack_replays"), batch_replays0);
  MPI_Type_free(&large);
  MPI_Type_free(&small);
}

/// Send `bytes` of pattern `seed` to this rank on `tag` through the system
/// MPI, ahead of any TEMPI traffic.
void queue_raw(std::size_t bytes, unsigned seed, int tag) {
  std::vector<std::byte> raw(bytes);
  fill_pattern(raw.data(), raw.size(), seed);
  post_wire(raw, tag);
}

// A self message already queued in the system on the tag must reach the
// posted receive first: the new send must not overtake it.
TEST_F(SelfDelivery, QueuedSelfMessageIsReceivedFirst) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer later(vcuda::MemorySpace::Device, 128 * 12);
  const Declines before = declines("queued");
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        fill_pattern(later.get(), later.size(), 300 + r);
        MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                               MPI_REQUEST_NULL};
        MPI_Status st;
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        queue_raw(128 * 4, 400 + r, 5);
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Wait(&reqs[0], &st));
        seen.status(st);
        seen.buffer(dst); // the queued message
        seen.code(MPI_Irecv(later.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                            &reqs[2]));
        seen.code(MPI_Wait(&reqs[2], &st));
        seen.status(st);
        seen.buffer(later); // the send
        seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
      });
  EXPECT_EQ(delivered, 0u);
  expect_declines("queued", before, kRounds);
  MPI_Type_free(&t);
}

// An earlier wildcard receive could match the message: the send declines,
// and each receive gets what the system path gives it.
TEST_F(SelfDelivery, EarlierWildcardReceiveDeclines) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer src2(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst2(vcuda::MemorySpace::Device, 128 * 12);
  const std::uint64_t declines0 = counter("tempi.p2p.self_declines");
  const Declines before = declines("wildcard");
  // MPI_ANY_TAG: a message queued on another tag reaches the wildcard
  // receive first, and the send goes to the receive posted after it.
  std::uint64_t delivered = expect_system_behavior([&](unsigned r,
                                                       Seen &seen) {
    prepare(src, dst, r);
    fill_pattern(dst2.get(), dst2.size(), 500 + r);
    MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                           MPI_REQUEST_NULL};
    MPI_Status st;
    seen.code(MPI_Irecv(dst.get(), 1, t, 0, MPI_ANY_TAG, MPI_COMM_WORLD,
                        &reqs[0]));
    queue_raw(128 * 4, 600 + r, 6);
    seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
    seen.code(MPI_Wait(&reqs[0], &st));
    seen.status(st);
    seen.code(MPI_Irecv(dst2.get(), 1, t, 0, MPI_ANY_TAG, MPI_COMM_WORLD,
                        &reqs[2]));
    seen.code(MPI_Wait(&reqs[2], &st));
    seen.status(st);
    seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
    seen.buffer(dst);
    seen.buffer(dst2);
  });
  EXPECT_EQ(delivered, 0u);
  // MPI_ANY_SOURCE posted before an exact receive: both sends decline.
  delivered = expect_system_behavior([&](unsigned r, Seen &seen) {
    prepare(src, dst, r);
    prepare(src2, dst2, 700 + r);
    MPI_Request reqs[4] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                           MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    std::array<MPI_Status, 4> st{};
    seen.code(MPI_Irecv(dst.get(), 1, t, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD,
                        &reqs[0]));
    seen.code(MPI_Irecv(dst2.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
    seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[2]));
    seen.code(MPI_Isend(src2.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[3]));
    seen.code(MPI_Waitall(4, reqs, st.data()));
    seen.status(st[0]);
    seen.status(st[1]);
    seen.buffer(dst);
    seen.buffer(dst2);
  });
  EXPECT_EQ(delivered, 0u);
  EXPECT_GE(counter("tempi.p2p.self_declines") - declines0, 3u * kRounds);
  expect_declines("wildcard", before, 3u * kRounds);
  MPI_Type_free(&t);
}

// A receive forwarded to the system MPI (a host buffer) posted before an
// accelerated one could match the message first: the sends decline, and
// each receive gets the message the system path gives it.
TEST_F(SelfDelivery, EarlierForwardedReceiveDeclines) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer src2(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer host(vcuda::MemorySpace::Pageable, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const Declines before = declines("forwarded");
  const Declines queued = declines("queued");
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        prepare(src2, host, 900 + r);
        MPI_Request reqs[4] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                               MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        std::array<MPI_Status, 4> st{};
        seen.code(MPI_Irecv(host.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[2]));
        seen.code(MPI_Isend(src2.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[3]));
        seen.code(MPI_Waitall(4, reqs, st.data()));
        seen.status(st[0]);
        seen.status(st[1]);
        seen.buffer(host);
        seen.buffer(dst);
      });
  EXPECT_EQ(delivered, 0u);
  // The first send declines for the forwarded receive; the second then
  // finds the first one's message queued on the tag.
  const Declines after = declines("forwarded");
  EXPECT_EQ(after.rule - before.rule, kRounds);
  EXPECT_EQ(declines("queued").rule - queued.rule, kRounds);
  EXPECT_EQ(after.total - before.total, 2u * kRounds);
  // Once the forwarded receive completed, the thread's sends deliver again.
  const std::uint64_t again =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE));
        seen.buffer(dst);
      });
  EXPECT_GE(again, 2u);
  MPI_Type_free(&t);
}

// A send larger than the posted receive fails the receive with
// MPI_ERR_TRUNCATE, as the system path does.
TEST_F(SelfDelivery, OversizeSendTruncatesLikeTheSystemPath) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 2 * 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const Declines before = declines("truncate");
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 2, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Wait(&reqs[0], MPI_STATUS_IGNORE));
        if (reqs[0] != MPI_REQUEST_NULL) {
          // The system MPI keeps a failed receive's request.
          EXPECT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
        }
        seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
        seen.buffer(dst);
      });
  EXPECT_EQ(delivered, 0u);
  expect_declines("truncate", before, kRounds);
  MPI_Type_free(&t);
}

// A message shorter than the receive reports its own length, and only the
// objects that arrived are unpacked.
TEST_F(SelfDelivery, ShortMessageReportsItsCount) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 3 * 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 3 * 128 * 12);
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        std::array<MPI_Status, 2> st{};
        seen.code(MPI_Irecv(dst.get(), 3, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 2, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Waitall(2, reqs, st.data()));
        int n = -1;
        seen.code(MPI_Get_count(&st[0], t, &n));
        seen.code(n);
        seen.status(st[0]);
        seen.buffer(dst);
      });
  EXPECT_GE(delivered, 2u);
  MPI_Type_free(&t);
}

// Receives posted on this thread and completed or freed on another leave
// no entry behind: later sends of this thread never see them.
TEST_F(SelfDelivery, ReceivePostedOnOneThreadCompletesOnAnother) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const auto on_other_thread = [](const std::function<void()> &f) {
    std::thread(f).join();
  };
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        MPI_Status st;
        // Delivered (once repeated) here, waited on there.
        prepare(src, dst, r);
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        on_other_thread([&] { seen.code(MPI_Wait(&reqs[0], &st)); });
        seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
        seen.status(st);
        seen.buffer(dst);
        // Received through the system there.
        prepare(src, dst, 20 + r);
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 6, MPI_COMM_WORLD, &reqs[0]));
        queue_raw(128 * 4, 800 + r, 6);
        on_other_thread([&] { seen.code(MPI_Wait(&reqs[0], &st)); });
        seen.status(st);
        seen.buffer(dst);
        // Freed there.
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 7, MPI_COMM_WORLD, &reqs[0]));
        on_other_thread([&] { seen.code(MPI_Request_free(&reqs[0])); });
        // This thread's next receives and sends pair as on the system path.
        for (const int tag : {6, 7}) {
          prepare(src, dst, 40 + r + static_cast<unsigned>(tag));
          seen.code(MPI_Irecv(dst.get(), 1, t, 0, tag, MPI_COMM_WORLD,
                              &reqs[0]));
          seen.code(MPI_Isend(src.get(), 1, t, 0, tag, MPI_COMM_WORLD,
                              &reqs[1]));
          seen.code(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE));
          seen.buffer(dst);
        }
      });
  EXPECT_GE(delivered, 2u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  MPI_Type_free(&t);
}

// A steady-state delivery decides at the Isend and packs in the Waitall:
// the Isend does no device work, and the Waitall replays the pack and the
// receive's unpack as one recorded graph with one pre-armed fence, with
// no Wire span and no system message.
TEST_F(SelfDelivery, SteadyStateDeliveryIsOneGraphAndNoWire) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  // Round 0 runs the receive live, round 1 records its program, round 2
  // records the delivery's pack, round 3 the flush's batch.
  constexpr unsigned kSteady = 4;
  const auto round = [&](unsigned r) {
    prepare(src, dst, r);
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]),
              MPI_SUCCESS);
    DeviceOps post{};
    const std::uint64_t graph_nodes = graph_nodes_captured();
    reqs[1] = isend_self(src.get(), 1, t, 5, &post);
    const DeviceOps before = device_ops();
    ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
    const DeviceOps wait = device_ops() - before;
    EXPECT_EQ(reference_pack(dst.get(), 1, *t),
              reference_pack(src.get(), 1, *t));
    if (r >= kSteady) {
      EXPECT_EQ(graph_nodes_captured(), graph_nodes) << "round " << r;
      EXPECT_EQ(post.kernels, 0u) << "round " << r;
      EXPECT_EQ(post.syncs, 0u) << "round " << r;
      EXPECT_EQ(post.graphs, 0u) << "round " << r;
      EXPECT_EQ(post.fences, 0u) << "round " << r;
      EXPECT_EQ(wait.kernels, 0u) << "round " << r;
      EXPECT_EQ(wait.syncs, 0u) << "round " << r;
      EXPECT_EQ(wait.graphs, 1u) << "round " << r;
      EXPECT_EQ(wait.fences, 1u) << "round " << r;
    }
  };
  for (unsigned r = 0; r < kSteady; ++r) {
    round(r);
  }
  tempi::trace::reset_counters();
  tempi::trace::reset();
  tempi::trace::set_enabled(true);
  round(kSteady);
  tempi::trace::set_enabled(false);
  std::size_t wire = 0;
  for (const tempi::trace::SpanRecord &rec : tempi::trace_snapshot().spans) {
    wire += rec.phase == tempi::trace::Phase::Wire ? 1 : 0;
  }
  EXPECT_EQ(wire, 0u);
  EXPECT_EQ(graph_replay_spans(tempi::trace::OpKind::Isend), 0u);
  EXPECT_EQ(graph_replay_spans(tempi::trace::OpKind::Irecv), 1u);
  EXPECT_EQ(counter("tempi.p2p.self_deliveries"), 1u);
  EXPECT_EQ(counter("tempi.p2p.self_declines"), 0u);
  EXPECT_EQ(counter("tempi.isend.replays"), 1u);
  EXPECT_EQ(counter("tempi.engine.fused_unpack_replays"), 1u);
  tempi::trace::reset();
  MPI_Type_free(&t);
}

// Sends before or after their receives in the Waitall array: the delivery
// packs inside the flush either way.
TEST_F(SelfDelivery, WaitallInEitherOrderMatchesTheSystemPath) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  for (const bool send_first : {true, false}) {
    const std::uint64_t batches0 =
        counter("tempi.engine.fused_unpack_replays");
    const std::uint64_t delivered =
        expect_system_behavior([&](unsigned r, Seen &seen) {
          prepare(src, dst, r);
          MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
          std::array<MPI_Status, 2> st{};
          const int recv = send_first ? 1 : 0;
          seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                              &reqs[recv]));
          seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                              &reqs[1 - recv]));
          seen.code(MPI_Waitall(2, reqs, st.data()));
          seen.status(st[static_cast<std::size_t>(recv)]);
          seen.buffer(dst);
        });
    EXPECT_GE(delivered, 3u) << "send first " << send_first;
    EXPECT_GE(counter("tempi.engine.fused_unpack_replays") - batches0, 2u)
        << "send first " << send_first;
  }
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  MPI_Type_free(&t);
}

// The send's Wait packs the message: the application may overwrite the
// send buffer as soon as it returns, and the receive still gets the bytes
// the buffer held at the Isend.
TEST_F(SelfDelivery, WaitOnTheSendPacksBeforeItReturns) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        MPI_Status st;
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
        fill_pattern(src.get(), src.size(), 1000 + r);
        seen.code(MPI_Wait(&reqs[0], &st));
        seen.status(st);
        seen.buffer(dst);
      });
  EXPECT_GE(delivered, 3u);
  MPI_Type_free(&t);
}

// MPI_Test polled on the send or on the receive first: the first poll
// that reaches either request packs the message.
TEST_F(SelfDelivery, TestLoopOnEitherSideMatchesTheSystemPath) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  for (const bool send_first : {true, false}) {
    const std::uint64_t delivered =
        expect_system_behavior([&](unsigned r, Seen &seen) {
          prepare(src, dst, r);
          MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
          std::array<MPI_Status, 2> st{};
          seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                              &reqs[0]));
          seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD,
                              &reqs[1]));
          for (const int k : send_first ? std::array<int, 2>{1, 0}
                                        : std::array<int, 2>{0, 1}) {
            int flag = 0;
            for (int poll = 0; poll < 1000 && flag == 0; ++poll) {
              seen.code(MPI_Test(&reqs[k], &flag,
                                 &st[static_cast<std::size_t>(k)]));
            }
            seen.code(flag);
            if (k == 1) {
              fill_pattern(src.get(), src.size(), 1000 + r);
            }
          }
          seen.status(st[0]);
          seen.buffer(dst);
        });
    EXPECT_GE(delivered, 3u) << "send first " << send_first;
  }
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  MPI_Type_free(&t);
}

// MPI_Request_free of a send whose delivery is pending packs it: the
// buffer may be overwritten afterwards, as on the system path, whose
// Isend copies the message.
TEST_F(SelfDelivery, FreeingThePendingSendPacksIt) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        MPI_Status st;
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Request_free(&reqs[1]));
        seen.code(reqs[1] == MPI_REQUEST_NULL ? 1 : 0);
        fill_pattern(src.get(), src.size(), 1000 + r);
        seen.code(MPI_Wait(&reqs[0], &st));
        seen.status(st);
        seen.buffer(dst);
      });
  EXPECT_GE(delivered, 3u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  MPI_Type_free(&t);
}

// The receive waited on by another thread while this thread waits on the
// send: exactly one of them packs, and neither returns before the pack
// ran.
TEST_F(SelfDelivery, ReceiveAndSendCompletedOnTwoThreadsAtOnce) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const std::uint64_t delivered =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        MPI_Status st;
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        std::barrier start(2);
        int recv_rc = MPI_ERR_OTHER;
        std::thread other([&] {
          start.arrive_and_wait();
          recv_rc = MPI_Wait(&reqs[0], &st);
        });
        start.arrive_and_wait();
        const int send_rc = MPI_Wait(&reqs[1], MPI_STATUS_IGNORE);
        fill_pattern(src.get(), src.size(), 1000 + r);
        other.join();
        seen.code(send_rc);
        seen.code(recv_rc);
        seen.status(st);
        seen.buffer(dst);
      });
  EXPECT_GE(delivered, 3u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  MPI_Type_free(&t);
}

// A persistent Start pair in steady state: the send's Start does no device
// work, and the Waitall packs and unpacks in one recorded graph.
TEST_F(SelfDelivery, PersistentStartDeliveryPacksInTheWaitall) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  constexpr unsigned kSteady = 3;
  std::vector<DeviceOps> starts, waits;
  std::array<MPI_Request, 2> ch{MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  const Round round = [&](unsigned r, Seen &seen) {
    if (r == 0) {
      seen.code(MPI_Recv_init(dst.get(), 1, t, 0, 11, MPI_COMM_WORLD,
                              &ch[0]));
      seen.code(MPI_Send_init(src.get(), 1, t, 0, 11, MPI_COMM_WORLD,
                              &ch[1]));
    }
    prepare(src, dst, r);
    std::array<MPI_Status, 2> st{};
    seen.code(MPI_Start(&ch[0]));
    DeviceOps before = device_ops();
    seen.code(MPI_Start(&ch[1]));
    starts.push_back(device_ops() - before);
    before = device_ops();
    seen.code(MPI_Waitall(2, ch.data(), st.data()));
    waits.push_back(device_ops() - before);
    seen.status(st[0]);
    seen.buffer(dst);
    if (r + 1 == kRounds) {
      seen.code(MPI_Request_free(&ch[0]));
      seen.code(MPI_Request_free(&ch[1]));
    }
  };
  const Seen reference = observe(tempi::SendMode::System, round);
  starts.clear();
  waits.clear();
  tempi::trace::reset_counters();
  const Seen seen = observe(tempi::SendMode::ForceDevice, round);
  EXPECT_EQ(seen.codes, reference.codes);
  EXPECT_EQ(seen.statuses, reference.statuses);
  EXPECT_EQ(seen.buffers, reference.buffers);
  for (unsigned r = kSteady; r < kRounds; ++r) {
    EXPECT_EQ(starts[r].graphs, 0u) << "round " << r;
    EXPECT_EQ(starts[r].fences, 0u) << "round " << r;
    EXPECT_EQ(waits[r].kernels, 0u) << "round " << r;
    EXPECT_EQ(waits[r].syncs, 0u) << "round " << r;
    EXPECT_EQ(waits[r].graphs, 1u) << "round " << r;
    EXPECT_EQ(waits[r].fences, 1u) << "round " << r;
  }
  EXPECT_GE(counter("tempi.p2p.self_deliveries"), kRounds - 1u);
  EXPECT_EQ(counter("tempi.persistent.replays"), 2u * kRounds);
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
  MPI_Type_free(&t);
}

// A self-addressed send whose first matching receive is pipelined (above
// the wire-chunk limit), or between block-list types, declines under its
// own rule, and each exchange ends as on the system path. The pipelined
// receive is freed unmatched, as the system MPI discards it, and a
// monolithic one takes the message.
TEST_F(SelfDelivery, PipelinedAndBlockListReceivesDecline) {
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 4 * 128 * 12);
  const std::size_t old_limit = tempi::set_wire_chunk_limit(1024);
  Declines before = declines("pipelined");
  std::uint64_t delivered = expect_system_behavior([&](unsigned r,
                                                       Seen &seen) {
    prepare(src, dst, r);
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    std::array<MPI_Status, 2> st{};
    seen.code(MPI_Irecv(dst.get(), 4, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
    seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
    seen.code(MPI_Request_free(&reqs[0]));
    seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
    seen.code(MPI_Waitall(2, reqs, st.data()));
    seen.status(st[0]);
    seen.buffer(dst);
  });
  tempi::set_wire_chunk_limit(old_limit);
  EXPECT_EQ(delivered, 0u);
  expect_declines("pipelined", before, kRounds);
  MPI_Type_free(&t);

  const bool old_blocklist = tempi::blocklist_fallback();
  tempi::set_blocklist_fallback(true);
  const int blens[4] = {2, 1, 3, 2};
  const int displs[4] = {0, 5, 9, 20};
  MPI_Type_indexed(4, blens, displs, MPI_INT, &t);
  MPI_Type_commit(&t);
  SpaceBuffer isrc(vcuda::MemorySpace::Device, 22 * sizeof(int));
  SpaceBuffer idst(vcuda::MemorySpace::Device, 22 * sizeof(int));
  before = declines("blocklist");
  delivered = expect_system_behavior([&](unsigned r, Seen &seen) {
    prepare(isrc, idst, r);
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    std::array<MPI_Status, 2> st{};
    seen.code(MPI_Irecv(idst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
    seen.code(MPI_Isend(isrc.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
    seen.code(MPI_Waitall(2, reqs, st.data()));
    seen.status(st[0]);
    seen.buffer(idst);
  });
  EXPECT_EQ(delivered, 0u);
  expect_declines("blocklist", before, kRounds);
  MPI_Type_free(&t);
  tempi::set_blocklist_fallback(old_blocklist);
}

// --- transcodes between layouts ---------------------------------------------

MPI_Datatype committed_floats(int count, int blocklen, int stride) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(count, blocklen, stride, MPI_FLOAT, &t);
  MPI_Type_commit(&t);
  return t;
}

/// A self-addressed message whose layouts differ but whose type signatures
/// agree: `send_count` objects of `send` into `recv_count` objects of
/// `recv`.
struct Pair {
  const char *name;
  MPI_Datatype send;
  int send_count;
  MPI_Datatype recv;
  int recv_count;
};

std::size_t span_of(MPI_Datatype t, int count) {
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  return static_cast<std::size_t>(extent) *
         static_cast<std::size_t>(std::max(count, 1));
}

/// How a round completes the pair's receive and send.
enum class Completion {
  WaitallRecvFirst,
  WaitallSendFirst,
  WaitSendFirst,
  WaitRecvFirst,
  TestSendFirst,
  TestRecvFirst,
  FreeSend,
  PersistentStart,
};

constexpr std::array kCompletions{
    Completion::WaitallRecvFirst, Completion::WaitallSendFirst,
    Completion::WaitSendFirst,    Completion::WaitRecvFirst,
    Completion::TestSendFirst,    Completion::TestRecvFirst,
    Completion::FreeSend,         Completion::PersistentStart};

/// Complete `req` by polling MPI_Test; records the last return code and
/// the flag.
void test_until_done(MPI_Request *req, MPI_Status *st, Seen &seen) {
  int flag = 0;
  int rc = MPI_SUCCESS;
  for (int poll = 0; poll < 1000 && flag == 0 && rc == MPI_SUCCESS; ++poll) {
    rc = MPI_Test(req, &flag, st);
  }
  seen.code(rc);
  seen.code(flag);
}

/// Exchange `pair` kRounds times, completed as `how`, on the system path
/// and through TEMPI, bitwise against each other; returns the deliveries.
/// Once the send has completed its buffer is overwritten: the receive
/// must still get what the buffer held at the send. Every round that did
/// not deliver was a first sighting of the pair.
std::uint64_t expect_pair_behavior(const Pair &pair, Completion how) {
  SpaceBuffer src(vcuda::MemorySpace::Device,
                  span_of(pair.send, pair.send_count));
  SpaceBuffer dst(vcuda::MemorySpace::Device,
                  span_of(pair.recv, pair.recv_count));
  const auto reuse = [&](unsigned r) {
    fill_pattern(src.get(), src.size(), 1000 + r);
  };
  std::array<MPI_Request, 2> ch{MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  const Declines before = declines("first_sighting");
  const std::uint64_t delivered = expect_system_behavior([&](unsigned r,
                                                             Seen &seen) {
    prepare(src, dst, r);
    std::array<MPI_Request, 2> reqs{MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    std::array<MPI_Status, 2> st{};
    if (how == Completion::PersistentStart) {
      if (r == 0) {
        seen.code(MPI_Recv_init(dst.get(), pair.recv_count, pair.recv, 0, 21,
                                MPI_COMM_WORLD, &ch[0]));
        seen.code(MPI_Send_init(src.get(), pair.send_count, pair.send, 0, 21,
                                MPI_COMM_WORLD, &ch[1]));
      }
      seen.code(MPI_Start(&ch[0]));
      seen.code(MPI_Start(&ch[1]));
      seen.code(MPI_Waitall(2, ch.data(), st.data()));
      reuse(r);
      if (r + 1 == kRounds) {
        seen.code(MPI_Request_free(&ch[0]));
        seen.code(MPI_Request_free(&ch[1]));
      }
    } else {
      seen.code(MPI_Irecv(dst.get(), pair.recv_count, pair.recv, 0, 21,
                          MPI_COMM_WORLD, &reqs[0]));
      seen.code(MPI_Isend(src.get(), pair.send_count, pair.send, 0, 21,
                          MPI_COMM_WORLD, &reqs[1]));
      switch (how) {
      case Completion::WaitallRecvFirst:
        seen.code(MPI_Waitall(2, reqs.data(), st.data()));
        break;
      case Completion::WaitallSendFirst: {
        std::array<MPI_Request, 2> flipped{reqs[1], reqs[0]};
        std::array<MPI_Status, 2> fst{};
        seen.code(MPI_Waitall(2, flipped.data(), fst.data()));
        st[0] = fst[1];
        break;
      }
      case Completion::WaitSendFirst:
        seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
        reuse(r);
        seen.code(MPI_Wait(&reqs[0], &st[0]));
        break;
      case Completion::WaitRecvFirst:
        seen.code(MPI_Wait(&reqs[0], &st[0]));
        seen.code(MPI_Wait(&reqs[1], MPI_STATUS_IGNORE));
        break;
      case Completion::TestSendFirst:
        test_until_done(&reqs[1], &st[1], seen);
        reuse(r);
        test_until_done(&reqs[0], &st[0], seen);
        break;
      case Completion::TestRecvFirst:
        test_until_done(&reqs[0], &st[0], seen);
        test_until_done(&reqs[1], &st[1], seen);
        break;
      case Completion::FreeSend:
        seen.code(MPI_Request_free(&reqs[1]));
        reuse(r);
        seen.code(MPI_Wait(&reqs[0], &st[0]));
        break;
      case Completion::PersistentStart:
        break;
      }
    }
    int n = -1;
    seen.code(MPI_Get_count(&st[0], pair.recv, &n));
    seen.code(n);
    seen.status(st[0]);
    seen.buffer(dst);
  });
  const Declines after = declines("first_sighting");
  EXPECT_EQ(after.total - before.total, after.rule - before.rule);
  EXPECT_EQ(delivered + (after.rule - before.rule),
            pair.send_count > 0 ? kRounds : 0u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  EXPECT_EQ(tempi::async::persistent_open(), 0u);
  return delivered;
}

// A self delivery between different layouts of equal type signatures is
// one transcode from the send's objects into the receive's. Whatever
// order the requests complete in, codes, statuses and bytes are those of
// the system path.
TEST_F(SelfDelivery, TranscodesBetweenLayoutsMatchTheSystemPath) {
  const int sizes[3] = {8, 16, 16};
  const int subsizes[3] = {8, 16, 2};
  const int starts[3] = {0, 0, 3};
  MPI_Datatype face = nullptr;
  MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C,
                           MPI_FLOAT, &face);
  MPI_Type_commit(&face);
  std::array<MPI_Datatype, 6> types{
      committed_floats(128, 4, 12), // 512 floats in 16 B runs
      committed_floats(64, 8, 20),  // 512 floats in 32 B runs
      committed_floats(32, 8, 12),  // 256 floats in 32 B runs
      committed_floats(64, 2, 4),   // 128 floats in 8 B runs, 8 B words
      committed_floats(128, 1, 3),  // 128 floats in 4 B runs, 4 B words
      committed_floats(64, 4, 12),  // 256 floats in 16 B runs
  };
  const std::array<Pair, 4> pairs{{
      {"vector(128,4,12) into vector(64,8,20)", types[0], 1, types[1], 1},
      {"subarray face into a vector", face, 1, types[2], 1},
      {"8-byte runs into 4-byte runs", types[3], 1, types[4], 1},
      {"send count 2 into receive count 1", types[5], 2, types[1], 1},
  }};
  for (const Pair &pair : pairs) {
    for (const Completion how : kCompletions) {
      SCOPED_TRACE(std::string(pair.name) + ", completion " +
                   std::to_string(static_cast<int>(how)));
      EXPECT_GE(expect_pair_behavior(pair, how), kRounds - 1);
    }
  }
  for (MPI_Datatype &t : types) {
    MPI_Type_free(&t);
  }
  MPI_Type_free(&face);
}

// Messages shorter than the receive's 4 objects, in another layout: 0, 1.5
// and 2 objects. Only whole objects are written, and the status reports
// the message's own length, as on the system path; an empty send goes to
// the system MPI.
TEST_F(SelfDelivery, ShortTranscodesMatchTheSystemPath) {
  MPI_Datatype recv = committed_floats(64, 8, 20);  // 512 floats
  MPI_Datatype whole = committed_floats(128, 4, 12); // 512 floats
  MPI_Datatype half = committed_floats(192, 4, 12);  // 768 floats
  const std::array<Pair, 3> pairs{{
      {"0 of 4 objects", whole, 0, recv, 4},
      {"1.5 of 4 objects", half, 1, recv, 4},
      {"2 of 4 objects", whole, 2, recv, 4},
  }};
  for (const Pair &pair : pairs) {
    for (const Completion how : kCompletions) {
      SCOPED_TRACE(std::string(pair.name) + ", completion " +
                   std::to_string(static_cast<int>(how)));
      const std::uint64_t delivered = expect_pair_behavior(pair, how);
      if (pair.send_count > 0) {
        EXPECT_GE(delivered, kRounds - 1);
      }
    }
  }
  for (MPI_Datatype *t : {&recv, &whole, &half}) {
    MPI_Type_free(t);
  }
}

// uninstall() with a delivery decided but not packed: the send and the
// receive are dropped, every lease goes back to the cache, and nothing
// is launched onto the posting thread's streams.
TEST_F(SelfDelivery, UninstallDropsAPendingDelivery) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  const std::size_t leased0 = leased_now();
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  for (unsigned r = 0; r < kRounds; ++r) {
    prepare(src, dst, r);
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
  }
  const std::uint64_t delivered0 = counter("tempi.p2p.self_deliveries");
  MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
  ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]),
            MPI_SUCCESS);
  DeviceOps post{};
  reqs[1] = isend_self(src.get(), 1, t, 5, &post);
  ASSERT_EQ(counter("tempi.p2p.self_deliveries") - delivered0, 1u);
  EXPECT_EQ(post.graphs, 0u); // decided, not packed
  EXPECT_EQ(tempi::async::in_flight(), 2u);
  const std::uint64_t graphs = device_ops().graphs;
  MPI_Type_free(&t);
  tempi::uninstall(); // drops the receive, loudly, and the send
  EXPECT_EQ(device_ops().graphs, graphs);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  EXPECT_EQ(leased_now(), leased0);
  tempi::install();
  // Nothing of the dropped pair survives: the thread's next exchanges end
  // as on the system path, and deliver again.
  t = committed_vector(128, 4, 12);
  const std::uint64_t again =
      expect_system_behavior([&](unsigned r, Seen &seen) {
        prepare(src, dst, r);
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        std::array<MPI_Status, 2> st{};
        seen.code(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]));
        seen.code(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]));
        seen.code(MPI_Waitall(2, reqs, st.data()));
        seen.status(st[0]);
        seen.buffer(dst);
      });
  EXPECT_GE(again, 3u);
  MPI_Type_free(&t);
}

// uninstall() drops a posted receive: no entry of it survives, and the
// thread's receives after reinstalling take its sends again.
TEST_F(SelfDelivery, UninstallDrainLeavesNoEntryBehind) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  MPI_Datatype t = committed_vector(128, 4, 12);
  SpaceBuffer src(vcuda::MemorySpace::Device, 128 * 12);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 128 * 12);
  const auto rounds = [&] {
    for (unsigned r = 0; r < kRounds; ++r) {
      prepare(src, dst, r);
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Isend(src.get(), 1, t, 0, 5, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(reference_pack(dst.get(), 1, *t),
                reference_pack(src.get(), 1, *t))
          << "round " << r;
    }
  };
  rounds();
  MPI_Request dropped = MPI_REQUEST_NULL;
  ASSERT_EQ(MPI_Irecv(dst.get(), 1, t, 0, 5, MPI_COMM_WORLD, &dropped),
            MPI_SUCCESS);
  MPI_Type_free(&t);
  tempi::uninstall(); // drops the receive, loudly
  tempi::install();
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  t = committed_vector(128, 4, 12);
  const std::uint64_t delivered0 = counter("tempi.p2p.self_deliveries");
  rounds();
  EXPECT_GE(counter("tempi.p2p.self_deliveries") - delivered0, 2u);
  MPI_Type_free(&t);
}


// --- send batching ------------------------------------------------------------
//
// Two ranks: rank 0's Isends to rank 1 that join a burst wait in its
// thread's list until its next MPI call, which packs them in one fused
// kernel and posts their wires in post order. Every scenario ends exactly
// as it does on the system path, and none of them deadlocks.

class SendBatch : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    tempi::trace::reset_counters();
  }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::uninstall();
  }
};

void run2(const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, body);
}

constexpr int kFaceTag = 10;
constexpr int kReplyTag = 90;
constexpr std::size_t kFaceSpan = 128 * 12;

/// One rank's faces: device objects of one strided type, each in a buffer
/// of its own (so each Isend has a program of its own). Rank 0 sends face
/// k to rank 1 on tag kFaceTag + k; rank 1 lands it in its face k.
struct Faces {
  MPI_Datatype t = committed_vector(128, 4, 12);
  std::vector<std::unique_ptr<SpaceBuffer>> bufs;

  explicit Faces(int n) {
    for (int k = 0; k < n; ++k) {
      bufs.push_back(
          std::make_unique<SpaceBuffer>(vcuda::MemorySpace::Device, kFaceSpan));
    }
  }
  ~Faces() { MPI_Type_free(&t); }
  Faces(const Faces &) = delete;
  Faces &operator=(const Faces &) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(bufs.size()); }

  /// The pattern rank 0's face `k` holds in round `r`.
  static unsigned seed(unsigned r, int k) {
    return 100 + r * 8 + static_cast<unsigned>(k);
  }

  /// Fill rank 0's sources, or poison rank 1's landing buffers, for round
  /// `r`.
  void prepare(int rank, unsigned r) {
    for (int k = 0; k < size(); ++k) {
      fill_pattern(bufs[static_cast<std::size_t>(k)]->get(), kFaceSpan,
                   rank == 0 ? seed(r, k) : 900 + r * 8 + k);
    }
  }

  /// Rank 0: Isend every face to rank 1 into `reqs[0..size)`.
  void isend(std::vector<MPI_Request> &reqs, Seen &seen) {
    for (int k = 0; k < size(); ++k) {
      seen.code(MPI_Isend(bufs[static_cast<std::size_t>(k)]->get(), 1, t, 1,
                          kFaceTag + k, MPI_COMM_WORLD,
                          &reqs[static_cast<std::size_t>(k)]));
    }
  }

  /// Rank 1: a blocking Recv of every face in order, each checked against
  /// what rank 0 held in round `r`.
  void recv(unsigned r, Seen &seen) {
    for (int k = 0; k < size(); ++k) {
      const SpaceBuffer &dst = *bufs[static_cast<std::size_t>(k)];
      MPI_Status st;
      seen.code(MPI_Recv(dst.get(), 1, t, 0, kFaceTag + k, MPI_COMM_WORLD,
                         &st));
      seen.status(st);
      seen.buffer(dst);
      std::vector<std::byte> src(kFaceSpan);
      fill_pattern(src.data(), src.size(), seed(r, k));
      EXPECT_EQ(reference_pack(dst.get(), 1, *t),
                reference_pack(src.data(), 1, *t))
          << "round " << r << " face " << k;
    }
  }
};

/// Rank 1's reply to round `r`.
int send_reply(unsigned r, int tag = kReplyTag) {
  const std::array<int, 2> reply{static_cast<int>(r), 7};
  return MPI_Send(reply.data(), 2, MPI_INT, 0, tag, MPI_COMM_WORLD);
}

using RankBody = std::function<void(int rank, Seen &seen)>;

/// Run `body` on two ranks initialized at `level` with `mode`; what each
/// rank observed.
std::array<Seen, 2> observe2(tempi::SendMode mode, int level,
                             const RankBody &body) {
  tempi::set_send_mode(mode);
  std::array<Seen, 2> seen;
  run2([&](int rank) {
    int provided = 0;
    MPI_Init_thread(nullptr, nullptr, level, &provided);
    body(rank, seen[static_cast<std::size_t>(rank)]);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  return seen;
}

/// Run `body` on the system path, then through TEMPI with ForceDevice, and
/// require the same bytes, statuses and return codes on both ranks.
void expect_system_behavior2(const RankBody &body,
                             int level = MPI_THREAD_SINGLE) {
  const std::array<Seen, 2> reference =
      observe2(tempi::SendMode::System, level, body);
  const std::array<Seen, 2> seen =
      observe2(tempi::SendMode::ForceDevice, level, body);
  for (std::size_t rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(seen[rank].codes, reference[rank].codes) << "rank " << rank;
    EXPECT_EQ(seen[rank].statuses, reference[rank].statuses)
        << "rank " << rank;
    EXPECT_EQ(seen[rank].buffers, reference[rank].buffers) << "rank " << rank;
  }
}

constexpr int kBurst = 3;

/// Require that every round after the first deferred rank 0's faces and
/// flushed them once, for `reason`.
void expect_deferred_rounds(std::string_view reason) {
  constexpr std::uint64_t kDeferredRounds = kRounds - 1;
  EXPECT_EQ(counter("tempi.isend.deferred"), kDeferredRounds * kBurst);
  EXPECT_EQ(counter("tempi.send_batch.flushes"), kDeferredRounds);
  EXPECT_EQ(counter("tempi.send_batch.flush." + std::string(reason)),
            kDeferredRounds)
      << reason;
  // Round 1 sees the batch first, round 2 records it, and it replays from
  // then on.
  EXPECT_EQ(counter("tempi.send_batch.captures"), 1u);
  EXPECT_EQ(counter("tempi.send_batch.replays"), kDeferredRounds - 1);
}

// MPI_Barrier (a pass-through forwarder) flushes the deferred faces: the
// peer, blocked in MPI_Recv of them, replies and reaches the barrier.
TEST_F(SendBatch, BarrierFlushesWhileThePeerBlocksInRecv) {
  expect_system_behavior2([](int rank, Seen &seen) {
    Faces faces(kBurst);
    for (unsigned r = 0; r < kRounds; ++r) {
      faces.prepare(rank, r);
      if (rank == 0) {
        std::vector<MPI_Request> reqs(kBurst + 1, MPI_REQUEST_NULL);
        std::array<int, 2> reply{-1, -1};
        seen.code(MPI_Irecv(reply.data(), 2, MPI_INT, 1, kReplyTag,
                            MPI_COMM_WORLD, &reqs[kBurst]));
        faces.isend(reqs, seen);
        seen.code(MPI_Barrier(MPI_COMM_WORLD));
        seen.code(MPI_Waitall(kBurst + 1, reqs.data(), MPI_STATUSES_IGNORE));
        seen.code(reply[0]);
      } else {
        faces.recv(r, seen);
        seen.code(send_reply(r));
        seen.code(MPI_Barrier(MPI_COMM_WORLD));
      }
    }
  });
  expect_deferred_rounds("passthrough");
}

/// Rank 0 defers its faces and blocks in MPI_Recv of rank 1's reply, which
/// rank 1 sends only once it received every face.
void blocking_reply_exchange(int rank, Seen &seen) {
  Faces faces(kBurst);
  for (unsigned r = 0; r < kRounds; ++r) {
    faces.prepare(rank, r);
    if (rank == 0) {
      std::vector<MPI_Request> reqs(kBurst + 1, MPI_REQUEST_NULL);
      std::array<int, 2> tail{-1, -1};
      std::array<int, 2> reply{-1, -1};
      seen.code(MPI_Irecv(tail.data(), 2, MPI_INT, 1, kReplyTag + 1,
                          MPI_COMM_WORLD, &reqs[kBurst]));
      faces.isend(reqs, seen);
      MPI_Status st;
      seen.code(MPI_Recv(reply.data(), 2, MPI_INT, 1, kReplyTag,
                         MPI_COMM_WORLD, &st));
      seen.status(st);
      seen.code(MPI_Waitall(kBurst + 1, reqs.data(), MPI_STATUSES_IGNORE));
      seen.code(reply[0]);
      seen.code(tail[0]);
    } else {
      faces.recv(r, seen);
      seen.code(send_reply(r));
      seen.code(send_reply(r + 100, kReplyTag + 1));
    }
  }
}

TEST_F(SendBatch, BlockingRecvOfTheReplyFlushes) {
  expect_system_behavior2(blocking_reply_exchange);
  expect_deferred_rounds("blocking");
}

// A host-buffer Isend (forwarded to the system MPI) to the same (dest, tag)
// as the last deferred face flushes the list first: rank 1's receives on
// that tag get the face, then the host message.
TEST_F(SendBatch, ForwardedIsendArrivesAfterTheDeferredOne) {
  expect_system_behavior2([](int rank, Seen &seen) {
    Faces faces(kBurst);
    constexpr int kLastTag = kFaceTag + kBurst - 1;
    std::vector<int> host(64);
    for (unsigned r = 0; r < kRounds; ++r) {
      faces.prepare(rank, r);
      if (rank == 0) {
        std::vector<MPI_Request> reqs(kBurst + 2, MPI_REQUEST_NULL);
        std::array<int, 2> reply{-1, -1};
        seen.code(MPI_Irecv(reply.data(), 2, MPI_INT, 1, kReplyTag,
                            MPI_COMM_WORLD, &reqs[kBurst]));
        faces.isend(reqs, seen);
        std::iota(host.begin(), host.end(), static_cast<int>(r) * 1000);
        seen.code(MPI_Isend(host.data(), static_cast<int>(host.size()),
                            MPI_INT, 1, kLastTag, MPI_COMM_WORLD,
                            &reqs[kBurst + 1]));
        seen.code(MPI_Waitall(kBurst + 2, reqs.data(), MPI_STATUSES_IGNORE));
        seen.code(reply[0]);
      } else {
        faces.recv(r, seen);
        std::fill(host.begin(), host.end(), -1);
        MPI_Status st;
        seen.code(MPI_Recv(host.data(), static_cast<int>(host.size()),
                           MPI_INT, 0, kLastTag, MPI_COMM_WORLD, &st));
        seen.status(st);
        seen.code(host.front());
        seen.code(host.back());
        seen.code(send_reply(r));
      }
    }
  });
  expect_deferred_rounds("nondeferrable_send");
}

// Irecv is local and leaves the list alone: faces whose Isends interleave
// with Irecvs still pack as one batch at the Waitall.
TEST_F(SendBatch, InterleavedIrecvsKeepTheBurstWhole) {
  expect_system_behavior2([](int rank, Seen &seen) {
    Faces faces(kBurst);
    for (unsigned r = 0; r < kRounds; ++r) {
      faces.prepare(rank, r);
      if (rank == 0) {
        std::vector<MPI_Request> reqs(2 * kBurst, MPI_REQUEST_NULL);
        std::vector<std::array<int, 2>> replies(kBurst, {-1, -1});
        for (int k = 0; k < kBurst; ++k) {
          const auto i = static_cast<std::size_t>(k);
          seen.code(MPI_Irecv(replies[i].data(), 2, MPI_INT, 1,
                              kReplyTag + k, MPI_COMM_WORLD,
                              &reqs[kBurst + i]));
          seen.code(MPI_Isend(faces.bufs[i]->get(), 1, faces.t, 1,
                              kFaceTag + k, MPI_COMM_WORLD, &reqs[i]));
        }
        seen.code(MPI_Waitall(2 * kBurst, reqs.data(), MPI_STATUSES_IGNORE));
        for (const auto &reply : replies) {
          seen.code(reply[0]);
        }
      } else {
        faces.recv(r, seen);
        for (int k = 0; k < kBurst; ++k) {
          seen.code(send_reply(r + static_cast<unsigned>(k), kReplyTag + k));
        }
      }
    }
  });
  expect_deferred_rounds("completion");
}

// Under MPI_THREAD_SERIALIZED rank 0 posts its faces at the Isends: a
// second thread of rank 0 (sharing the rank's context) then blocks in
// MPI_Recv of rank 1's reply before any Wait, and rank 1 replies only once
// it received every face. Had the faces waited in the first thread's list,
// neither rank could go on.
TEST_F(SendBatch, SerializedRankPostsAtIsendSoASecondThreadMayBlock) {
  expect_system_behavior2(
      [](int rank, Seen &seen) {
        Faces faces(kBurst);
        const sysmpi::RankCtx ctx = sysmpi::this_rank();
        for (unsigned r = 0; r < kRounds; ++r) {
          faces.prepare(rank, r);
          if (rank == 0) {
            std::vector<MPI_Request> reqs(kBurst, MPI_REQUEST_NULL);
            faces.isend(reqs, seen);
            std::thread([&] {
              sysmpi::this_rank() = ctx;
              sysmpi::this_rank().thread_is_main = false;
              std::array<int, 2> reply{-1, -1};
              MPI_Status st;
              const int rc = MPI_Recv(reply.data(), 2, MPI_INT, 1,
                                      kReplyTag, MPI_COMM_WORLD, &st);
              EXPECT_EQ(rc, MPI_SUCCESS);
              EXPECT_EQ(reply[0], static_cast<int>(r));
              seen.code(rc);
              seen.status(st);
              for (MPI_Request &req : reqs) {
                seen.code(MPI_Wait(&req, MPI_STATUS_IGNORE));
              }
            }).join();
          } else {
            faces.recv(r, seen);
            seen.code(send_reply(r));
          }
        }
      },
      MPI_THREAD_SERIALIZED);
  EXPECT_EQ(counter("tempi.isend.deferred"), 0u);
  EXPECT_EQ(counter("tempi.send_batch.flushes"), 0u);
  EXPECT_EQ(counter("tempi.isend.replays"), (kRounds - 1) * kBurst);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

// MPI_THREAD_FUNNELED defers as MPI_THREAD_SINGLE does: only the main
// thread enters MPI.
TEST_F(SendBatch, FunneledRankDefers) {
  expect_system_behavior2(blocking_reply_exchange, MPI_THREAD_FUNNELED);
  expect_deferred_rounds("blocking");
}

// A rank initialized at MPI_THREAD_MULTIPLE posts every send at its Isend.
TEST_F(SendBatch, ThreadMultipleRankNeverDefers) {
  expect_system_behavior2(blocking_reply_exchange, MPI_THREAD_MULTIPLE);
  EXPECT_EQ(counter("tempi.isend.deferred"), 0u);
  EXPECT_EQ(counter("tempi.send_batch.flushes"), 0u);
  EXPECT_EQ(counter("tempi.isend.replays"), (kRounds - 1) * kBurst);
}

// uninstall() while rank 0's last faces wait in its list (rank 0 parked
// outside MPI, rank 1 uninstalling): the drain posts them, so they arrive,
// nothing stays in flight and every lease returns.
TEST_F(SendBatch, UninstallPostsAPendingList) {
  const auto body = [](int rank, Seen &seen) {
    Faces faces(kBurst);
    static std::barrier parked(2);
    std::vector<MPI_Request> reqs(kBurst, MPI_REQUEST_NULL);
    for (unsigned r = 0; r < kRounds; ++r) {
      faces.prepare(rank, r);
      if (rank == 0) {
        // The first Isend opens the burst; the later ones defer.
        faces.isend(reqs, seen);
        if (r + 1 < kRounds) {
          seen.code(MPI_Waitall(kBurst, reqs.data(), MPI_STATUSES_IGNORE));
        }
      } else if (r + 1 < kRounds) {
        faces.recv(r, seen);
      }
    }
    parked.arrive_and_wait(); // rank 0 leaves its last faces pending
    if (rank == 1) {
      const bool accelerated =
          tempi::send_mode() != tempi::SendMode::System;
      tempi::uninstall();
      seen.code(static_cast<int>(tempi::async::in_flight()));
      faces.recv(kRounds - 1, seen);
      if (accelerated) {
        EXPECT_EQ(counter("tempi.send_batch.flush.drain"), 1u);
      }
    }
    parked.arrive_and_wait();
    if (rank == 0 && tempi::send_mode() == tempi::SendMode::System) {
      // Forwarded requests outlive the interposer; the drain completed
      // TEMPI's.
      MPI_Waitall(kBurst, reqs.data(), MPI_STATUSES_IGNORE);
    }
  };
  const std::array<Seen, 2> reference =
      observe2(tempi::SendMode::System, MPI_THREAD_SINGLE, body);
  tempi::install();
  tempi::trace::reset_counters();
  const std::size_t leased0 = leased_now();
  const std::array<Seen, 2> seen =
      observe2(tempi::SendMode::ForceDevice, MPI_THREAD_SINGLE, body);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
  EXPECT_EQ(leased_now(), leased0);
  EXPECT_EQ(counter("tempi.isend.deferred"), (kRounds - 1) * (kBurst - 1));
  for (std::size_t rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(seen[rank].codes, reference[rank].codes) << "rank " << rank;
    EXPECT_EQ(seen[rank].statuses, reference[rank].statuses)
        << "rank " << rank;
    EXPECT_EQ(seen[rank].buffers, reference[rank].buffers) << "rank " << rank;
  }
  tempi::install(); // TearDown uninstalls
}

/// One exchange of round `r` on rank `rank`: rank 0 posts a receive of the
/// reply and Isends its faces, rank 1 receives them and replies.
void exchange(Faces &faces, int rank, unsigned r) {
  Seen seen;
  faces.prepare(rank, r);
  if (rank == 0) {
    std::vector<MPI_Request> reqs(faces.bufs.size() + 1, MPI_REQUEST_NULL);
    std::array<int, 2> reply{-1, -1};
    EXPECT_EQ(MPI_Irecv(reply.data(), 2, MPI_INT, 1, kReplyTag,
                        MPI_COMM_WORLD, &reqs.back()),
              MPI_SUCCESS);
    faces.isend(reqs, seen);
    EXPECT_EQ(MPI_Waitall(static_cast<int>(reqs.size()), reqs.data(),
                          MPI_STATUSES_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(reply[0], static_cast<int>(r));
  } else {
    faces.recv(r, seen);
    EXPECT_EQ(send_reply(r), MPI_SUCCESS);
  }
}

// A recorded send batch holds its member programs. Once they are evicted
// from rank 0's program table, its sends run live and record new programs,
// so the old batch never matches again: nothing packs into an evicted
// program (ASan would flag a freed lease or graph).
TEST_F(SendBatch, EvictedMemberNeverReplaysAStaleBatch) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    Faces faces(2);
    for (unsigned r = 1; r <= 3; ++r) {
      exchange(faces, rank, r);
    }
    if (rank == 0) {
      EXPECT_EQ(counter("tempi.send_batch.replays"), 1u);
      // Fill the table with first sightings (one receive key per count)
      // until its least recently used entries, the faces, are replaced.
      MPI_Datatype tiny = committed_vector(4, 1, 2);
      constexpr int kKeys = 200;
      SpaceBuffer flood(vcuda::MemorySpace::Device, kKeys * 8);
      for (int count = 1; count <= kKeys; ++count) {
        std::vector<std::byte> packed(static_cast<std::size_t>(count) * 4);
        fill_pattern(packed.data(), packed.size(), 7);
        post_wire(packed, 9);
        MPI_Request req = MPI_REQUEST_NULL;
        EXPECT_EQ(MPI_Irecv(flood.get(), count, tiny, 0, 9, MPI_COMM_WORLD,
                            &req),
                  MPI_SUCCESS);
        EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      }
      EXPECT_GE(counter("tempi.isend.evictions"), 2u);
      MPI_Type_free(&tiny);
    }
    const std::uint64_t deferred = counter("tempi.isend.deferred");
    exchange(faces, rank, 4); // first sightings again: live
    if (rank == 0) {
      EXPECT_EQ(counter("tempi.isend.deferred"), deferred);
    }
    for (unsigned r = 5; r <= 7; ++r) {
      exchange(faces, rank, r);
    }
    if (rank == 0) {
      // New programs, a new batch: recorded in round 6, replayed in 6 and
      // 7.
      EXPECT_EQ(counter("tempi.send_batch.captures"), 2u);
      EXPECT_EQ(counter("tempi.send_batch.replays"), 3u);
    }
    MPI_Finalize();
  });
}

// Sends borrowing two persistent requests' programs, the requests then
// freed on another thread: the programs' pins lapse although the recorded
// send batch still holds them, so the next exchange sends live and never
// replays the batch. Uninstall releases what the batch held.
TEST_F(SendBatch, ChannelsFreedOnAnotherThreadNeverReplayTheirBatch) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  const std::size_t leased0 = leased_now();
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    Faces faces(2);
    std::vector<MPI_Request> channels(2, MPI_REQUEST_NULL);
    if (rank == 0) {
      for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(MPI_Send_init(faces.bufs[static_cast<std::size_t>(k)]->get(),
                                1, faces.t, 1, 20 + k, MPI_COMM_WORLD,
                                &channels[static_cast<std::size_t>(k)]),
                  MPI_SUCCESS);
      }
    }
    for (unsigned r = 1; r <= 3; ++r) {
      exchange(faces, rank, r); // borrowed
    }
    if (rank == 0) {
      EXPECT_EQ(counter("tempi.isend.captures"), 0u);
      EXPECT_EQ(counter("tempi.send_batch.replays"), 2u);
      std::thread([&channels] {
        for (MPI_Request &ch : channels) {
          EXPECT_EQ(MPI_Request_free(&ch), MPI_SUCCESS);
        }
      }).join();
      EXPECT_EQ(tempi::async::persistent_open(), 0u);
    }
    const std::uint64_t deferred = counter("tempi.isend.deferred");
    exchange(faces, rank, 4); // first sightings: live
    if (rank == 0) {
      EXPECT_EQ(counter("tempi.isend.deferred"), deferred);
      EXPECT_EQ(counter("tempi.send_batch.replays"), 2u);
    }
    MPI_Finalize();
  });
  tempi::uninstall();
  EXPECT_EQ(leased_now(), leased0);
  tempi::install();
}

// A burst of one deferred send: its flush replays the send's own program,
// as an Isend posted alone does, and records no batch.
TEST_F(SendBatch, OneSendFlushReplaysItsOwnProgram) {
  tempi::set_send_mode(tempi::SendMode::ForceDevice);
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    Faces faces(1);
    for (unsigned r = 0; r < kRounds; ++r) {
      exchange(faces, rank, r);
    }
    MPI_Finalize();
  });
  constexpr std::uint64_t kDeferredRounds = kRounds - 1;
  EXPECT_EQ(counter("tempi.isend.deferred"), kDeferredRounds);
  EXPECT_EQ(counter("tempi.send_batch.flush.completion"), kDeferredRounds);
  EXPECT_EQ(counter("tempi.isend.replays"), kDeferredRounds);
  EXPECT_EQ(counter("tempi.send_batch.captures"), 0u);
  EXPECT_EQ(counter("tempi.send_batch.replays"), 0u);
}

} // namespace
