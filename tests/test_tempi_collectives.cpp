// The collectives engine (tempi/collectives.*): result equivalence
// against the system path for random derived datatypes, self-exchange,
// zero-count peers, dist-graph neighbor topologies (including aliased and
// self edges), per-rank interoperability with system-path peers,
// oversized-peer pipelined legs under an injected wire limit, the
// TEMPI_COLL kill-switch, the engine counters, and repeated calls that
// replay a recorded schedule (never a stale one).
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/collectives.hpp"
#include "tempi/methods.hpp"
#include "tempi/packer.hpp"
#include "tempi/perf_model.hpp"
#include "tempi/tempi.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::fill_pattern;
using testing_helpers::SpaceBuffer;

struct Rng {
  std::mt19937 gen;
  explicit Rng(unsigned seed) : gen(seed) {}
  int uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen);
  }
};

MPI_Datatype random_named(Rng &rng) {
  switch (rng.uniform(0, 3)) {
  case 0: return MPI_BYTE;
  case 1: return MPI_SHORT;
  case 2: return MPI_FLOAT;
  default: return MPI_DOUBLE;
  }
}

/// Random nested strided type (the test_property_random_types generator
/// family): contiguous / vector / hvector / subarray nestings over random
/// named types, committed.
MPI_Datatype random_strided_type(Rng &rng, int levels) {
  MPI_Datatype cur = random_named(rng);
  bool owned = false;
  for (int level = 0; level < levels; ++level) {
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(cur, &lb, &extent);
    MPI_Datatype next = nullptr;
    switch (rng.uniform(0, 3)) {
    case 0: {
      MPI_Type_contiguous(rng.uniform(1, 4), cur, &next);
      break;
    }
    case 1: {
      const int blocklen = rng.uniform(1, 3);
      const int stride = blocklen + rng.uniform(0, 3);
      MPI_Type_vector(rng.uniform(1, 4), blocklen, stride, cur, &next);
      break;
    }
    case 2: {
      const int blocklen = rng.uniform(1, 3);
      const MPI_Aint stride = extent * blocklen + rng.uniform(0, 2) * extent;
      MPI_Type_create_hvector(rng.uniform(1, 4), blocklen, stride, cur,
                              &next);
      break;
    }
    default: {
      const int sub = rng.uniform(1, 3);
      const int size = sub + rng.uniform(0, 3);
      const int start = rng.uniform(0, size - sub);
      const int sizes[1] = {size}, subsizes[1] = {sub}, starts[1] = {start};
      MPI_Type_create_subarray(1, sizes, subsizes, starts, MPI_ORDER_C, cur,
                               &next);
      break;
    }
    }
    if (owned) {
      MPI_Type_free(&cur);
    }
    cur = next;
    owned = true;
  }
  MPI_Type_commit(&cur);
  return cur;
}

/// Run one MPI_Alltoallv exchange on `ranks` ranks (two per virtual node,
/// so legs mix intra- and inter-node paths) with deterministic per-peer
/// counts — including zero-count peers — and return every rank's full
/// receive buffer. `space(rank)` picks each rank's buffer residency so
/// engine ranks and system-path ranks can mix in one call.
std::vector<std::vector<std::byte>>
run_alltoallv(bool engine, int ranks, unsigned type_seed,
              const std::function<vcuda::MemorySpace(int)> &space,
              int ranks_per_node = 2) {
  tempi::coll::set_enabled(engine);
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = ranks_per_node;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    Rng rng(type_seed); // the same type on every rank
    MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 3));
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    int P = 0;
    MPI_Comm_size(MPI_COMM_WORLD, &P);
    // Counts vary per (rank, peer) with zeros included; displacements
    // leave one-object gaps so misplaced bytes are caught.
    std::vector<int> scounts(P), sdispls(P), rcounts(P), rdispls(P);
    int soff = 0, roff = 0;
    for (int p = 0; p < P; ++p) {
      scounts[p] = (rank + p) % 3;
      sdispls[p] = soff;
      soff += scounts[p] + 1;
      rcounts[p] = (p + rank) % 3; // == peer p's scounts for me
      rdispls[p] = roff;
      roff += rcounts[p] + 1;
    }
    SpaceBuffer sbuf(space(rank),
                     static_cast<std::size_t>(soff) * extent + 64);
    SpaceBuffer rbuf(space(rank),
                     static_cast<std::size_t>(roff) * extent + 64);
    fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
    std::memset(rbuf.get(), 0, rbuf.size());
    ASSERT_EQ(MPI_Alltoallv(sbuf.get(), scounts.data(), sdispls.data(), t,
                            rbuf.get(), rcounts.data(), rdispls.data(), t,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                               rbuf.bytes() + rbuf.size());
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::coll::set_enabled(true);
  return out;
}

vcuda::MemorySpace all_device(int) { return vcuda::MemorySpace::Device; }

class CollectivesRandomTypes : public ::testing::TestWithParam<unsigned> {};

TEST_P(CollectivesRandomTypes, AlltoallvMatchesSystemPath) {
  tempi::ScopedInterposer guard;
  const auto engine = run_alltoallv(true, 4, GetParam(), all_device);
  const auto system = run_alltoallv(false, 4, GetParam(), all_device);
  for (std::size_t r = 0; r < engine.size(); ++r) {
    EXPECT_EQ(engine[r], system[r]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectivesRandomTypes,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Collectives, EngineMatchesSystemPathAt256Ranks32Nodes) {
  // The fig16 cluster scale: 256 ranks over 32 virtual nodes, so the
  // node-aware schedule reorders many inter-node legs per rank. Engine
  // and system path must still agree byte-for-byte.
  tempi::ScopedInterposer guard;
  const auto engine = run_alltoallv(true, 256, 11u, all_device, 8);
  const auto system = run_alltoallv(false, 256, 11u, all_device, 8);
  ASSERT_EQ(engine.size(), system.size());
  for (std::size_t r = 0; r < engine.size(); ++r) {
    ASSERT_EQ(engine[r], system[r]) << "rank " << r;
  }
}

TEST(Collectives, SelfExchangeSingleRank) {
  // A one-rank alltoallv is all self-exchange: the engine short-circuits
  // the leg as a device copy between the fused pack and unpack passes.
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  const auto engine = run_alltoallv(true, 1, 7u, all_device);
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 1u);
  // The self pair is one copy leg.
  EXPECT_EQ(counter("tempi.coll.peer_legs"), 1u);
  const auto system = run_alltoallv(false, 1, 7u, all_device);
  EXPECT_EQ(engine[0], system[0]);
}

TEST(Collectives, MixedResidencyRanksInteroperate) {
  // Per-rank contract: rank 0 (host buffers) falls through to the system
  // path while the others ride the engine — one collective, byte-equal
  // results everywhere, because the wire carries packed bytes under the
  // same tags either way.
  tempi::ScopedInterposer guard;
  const auto space = [](int rank) {
    return rank == 0 ? vcuda::MemorySpace::Pageable
                     : vcuda::MemorySpace::Device;
  };
  const auto mixed = run_alltoallv(true, 4, 8u, space);
  const auto system = run_alltoallv(false, 4, 8u, space);
  for (std::size_t r = 0; r < mixed.size(); ++r) {
    EXPECT_EQ(mixed[r], system[r]) << "rank " << r;
  }
}

TEST(Collectives, HostOnlyCallsFallThrough) {
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  const auto host = [](int) { return vcuda::MemorySpace::Pageable; };
  run_alltoallv(true, 2, 9u, host);
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 0u);
  EXPECT_EQ(counter("tempi.coll.fallback"), 2u); // one per rank
}

TEST(Collectives, KillSwitchDisablesEngine) {
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  EXPECT_TRUE(tempi::coll::enabled());
  run_alltoallv(false, 2, 10u, all_device); // device buffers, engine off
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 0u);
  EXPECT_EQ(counter("tempi.coll.fallback"), 2u);
  EXPECT_TRUE(tempi::coll::enabled()); // run_alltoallv restored it
}

/// Neighbor exchange over an explicit dist-graph, engine vs system path.
/// The graph includes self edges and repeated edges when `aliased`.
void check_neighbor(bool aliased, unsigned type_seed) {
  std::vector<std::vector<std::byte>> results[2];
  for (const bool engine : {true, false}) {
    tempi::coll::set_enabled(engine);
    auto &out = results[engine ? 0 : 1];
    out.assign(4, {});
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      Rng rng(type_seed);
      MPI_Datatype t = random_strided_type(rng, rng.uniform(1, 3));
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      int P = 0;
      MPI_Comm_size(MPI_COMM_WORLD, &P);
      // Ring edges; aliased adds a self edge and duplicates the ring
      // successor, exercising j-th-message-by-order pairing.
      std::vector<int> dsts{(rank + 1) % P};
      std::vector<int> srcs{(rank - 1 + P) % P};
      if (aliased) {
        dsts = {rank, (rank + 1) % P, (rank + 1) % P};
        srcs = {rank, (rank - 1 + P) % P, (rank - 1 + P) % P};
      }
      MPI_Comm graph = MPI_COMM_NULL;
      MPI_Dist_graph_create_adjacent(
          MPI_COMM_WORLD, static_cast<int>(srcs.size()), srcs.data(), nullptr,
          static_cast<int>(dsts.size()), dsts.data(), nullptr, MPI_INFO_NULL,
          0, &graph);
      const int n = static_cast<int>(dsts.size());
      std::vector<int> counts(n), sdispls(n), rdispls(n);
      int off = 0;
      for (int i = 0; i < n; ++i) {
        counts[i] = 1 + (rank + i) % 2;
        sdispls[i] = off;
        rdispls[i] = off;
        off += 3;
      }
      // Receive counts must match what the matched sender ships: with the
      // symmetric construction above every slot pairs with a congruent
      // opposite slot of the same index, but the peer's count depends on
      // *its* rank, so recompute it.
      std::vector<int> rcounts(n);
      for (int i = 0; i < n; ++i) {
        rcounts[i] = 1 + (srcs[static_cast<std::size_t>(i)] + i) % 2;
      }
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(off) * extent + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(off) * extent + 64);
      fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
      std::memset(rbuf.get(), 0, rbuf.size());
      ASSERT_EQ(MPI_Neighbor_alltoallv(sbuf.get(), counts.data(),
                                       sdispls.data(), t, rbuf.get(),
                                       rcounts.data(), rdispls.data(), t,
                                       graph),
                MPI_SUCCESS);
      out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                                 rbuf.bytes() + rbuf.size());
      MPI_Comm_free(&graph);
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  tempi::coll::set_enabled(true);
  for (std::size_t r = 0; r < results[0].size(); ++r) {
    EXPECT_EQ(results[0][r], results[1][r]) << "rank " << r;
  }
}

TEST(Collectives, NeighborRingMatchesSystemPath) {
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  check_neighbor(/*aliased=*/false, 11u);
  EXPECT_EQ(counter("tempi.coll.neighbor"), 4u); // engine run only
}

TEST(Collectives, NeighborSelfAndAliasedEdgesMatchSystemPath) {
  tempi::ScopedInterposer guard;
  check_neighbor(/*aliased=*/true, 12u);
}

/// One 2-rank MPI_Alltoallv of one vector(rows, 16, 48, MPI_BYTE) object
/// per peer (rows x 16 B packed per leg) from device buffers; returns each
/// rank's receive buffer.
std::vector<std::vector<std::byte>> alltoallv_rows(int rows) {
  std::vector<std::vector<std::byte>> out(2);
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(rows, 16, 48, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const int counts[2] = {1, 1};
    const int displs[2] = {0, 1};
    SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                     2 * static_cast<std::size_t>(extent) + 64);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                     2 * static_cast<std::size_t>(extent) + 64);
    fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
    std::memset(rbuf.get(), 0, rbuf.size());
    ASSERT_EQ(MPI_Alltoallv(sbuf.get(), counts, displs, t, rbuf.get(),
                            counts, displs, t, MPI_COMM_WORLD),
              MPI_SUCCESS);
    out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                               rbuf.bytes() + rbuf.size());
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  return out;
}

TEST(Collectives, OversizedPeerLegsPipelineUnderInjectedLimit) {
  // Per-peer legs above the wire-chunk limit must ship as ordered PR 3
  // legs (send_packed_pipelined, landed by a ChunkedRecv) — scaled down
  // via the injectable limit so kilobytes exercise the >2 GiB machinery.
  tempi::ScopedInterposer guard;
  const std::size_t old_limit = tempi::set_wire_chunk_limit(4096);
  tempi::trace::reset_counters();
  // 1024 blocks x 16 B = 16 KiB packed per peer: 4x the injected limit.
  const std::vector<std::vector<std::byte>> out = alltoallv_rows(1024);
  tempi::set_wire_chunk_limit(old_limit);
  EXPECT_EQ(counter("tempi.coll.alltoallv"), 2u);
  // Each rank's non-self leg (16 KiB over a 4 KiB limit) pipelines on
  // both sides: at least 5 sender legs (4 full + terminator) plus the
  // receiver's mirror of them, per direction.
  EXPECT_GE(counter("tempi.pipeline.chunks"), 20u);
  EXPECT_GE(counter("tempi.pipeline.over_ceiling_bytes"), 2u * 16384u);

  // Byte-exactness vs the system path (run with the default limit).
  tempi::coll::set_enabled(false);
  const std::vector<std::vector<std::byte>> sys = alltoallv_rows(1024);
  tempi::coll::set_enabled(true);
  EXPECT_EQ(out[0], sys[0]);
  EXPECT_EQ(out[1], sys[1]);
}

TEST(Collectives, PrePackedLegFramingIsExact) {
  // Under a 4 KiB injected limit a leg's chunk is the limit itself, so the
  // leg count of each non-self peer leg is fixed by its size, and the
  // receiving side lands exactly as many legs as the sender sent.
  tempi::ScopedInterposer guard;
  for (const auto &[rows, legs] : {
           // 16384 B: 4 full legs + the empty terminator.
           std::pair<int, std::uint64_t>{1024, 5},
           // 16000 B: 3 full legs + a 3712 B remainder leg.
           {1000, 4},
       }) {
    const std::size_t old_limit = tempi::set_wire_chunk_limit(4096);
    tempi::trace::reset_counters();
    const std::vector<std::vector<std::byte>> out = alltoallv_rows(rows);
    tempi::set_wire_chunk_limit(old_limit);
    EXPECT_EQ(counter("tempi.pipeline.sends"), 2u) << rows << " rows";
    EXPECT_EQ(counter("tempi.pipeline.recvs"), 2u) << rows << " rows";
    // Two directions, each `legs` wire legs on both the sending and the
    // receiving side.
    EXPECT_EQ(counter("tempi.pipeline.chunks"), 2u * 2u * legs)
        << rows << " rows";
    tempi::coll::set_enabled(false);
    const std::vector<std::vector<std::byte>> sys = alltoallv_rows(rows);
    tempi::coll::set_enabled(true);
    EXPECT_EQ(out[0], sys[0]) << rows << " rows";
    EXPECT_EQ(out[1], sys[1]) << rows << " rows";
  }
}

/// Gatherv / Allgather (thin reductions onto the exchange core) vs the
/// system path, device buffers, derived types.
TEST(Collectives, GathervMatchesSystemPath) {
  tempi::ScopedInterposer guard;
  std::vector<std::byte> results[2];
  for (const bool engine : {true, false}) {
    tempi::coll::set_enabled(engine);
    auto &root_out = results[engine ? 0 : 1];
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      Rng rng(13u);
      MPI_Datatype t = random_strided_type(rng, 2);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      int P = 0;
      MPI_Comm_size(MPI_COMM_WORLD, &P);
      std::vector<int> rcounts(P), displs(P);
      int off = 0;
      for (int p = 0; p < P; ++p) {
        rcounts[p] = 1 + p % 2;
        displs[p] = off;
        off += rcounts[p] + 1;
      }
      const int mine = rcounts[rank];
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(mine) * extent + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(off) * extent + 64);
      fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
      std::memset(rbuf.get(), 0, rbuf.size());
      ASSERT_EQ(MPI_Gatherv(sbuf.get(), mine, t, rbuf.get(), rcounts.data(),
                            displs.data(), t, 1, MPI_COMM_WORLD),
                MPI_SUCCESS);
      if (rank == 1) {
        root_out.assign(rbuf.bytes(), rbuf.bytes() + rbuf.size());
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  tempi::coll::set_enabled(true);
  EXPECT_EQ(results[0], results[1]);
}

TEST(Collectives, AllgatherMatchesSystemPath) {
  tempi::ScopedInterposer guard;
  std::vector<std::vector<std::byte>> results[2];
  for (const bool engine : {true, false}) {
    tempi::coll::set_enabled(engine);
    auto &out = results[engine ? 0 : 1];
    out.assign(4, {});
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      Rng rng(14u);
      MPI_Datatype t = random_strided_type(rng, 2);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      int P = 0;
      MPI_Comm_size(MPI_COMM_WORLD, &P);
      constexpr int kCount = 2;
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       kCount * static_cast<std::size_t>(extent) + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(P) * kCount * extent + 64);
      fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
      std::memset(rbuf.get(), 0, rbuf.size());
      ASSERT_EQ(MPI_Allgather(sbuf.get(), kCount, t, rbuf.get(), kCount, t,
                              MPI_COMM_WORLD),
                MPI_SUCCESS);
      out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                                 rbuf.bytes() + rbuf.size());
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  tempi::coll::set_enabled(true);
  for (std::size_t r = 0; r < results[0].size(); ++r) {
    EXPECT_EQ(results[0][r], results[1][r]) << "rank " << r;
  }
}

TEST(Collectives, SpanPassMatchesPerPeerPacks) {
  // The fused span kernel (launch_pack_spans) must byte-match packing
  // each peer's objects separately — it is the same packed stream, just
  // one launch.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(16, 8, 24, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  const auto packer = tempi::find_packer(t);
  ASSERT_NE(packer, nullptr);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  const int counts[3] = {2, 0, 3};
  const long long displs[3] = {0, 2, 3}; // extent units, with a gap
  const std::size_t size = packer->packed_bytes(1);

  SpaceBuffer src(vcuda::MemorySpace::Device, 8 * extent + 64);
  fill_pattern(src.get(), src.size());
  std::vector<tempi::PackSpan> spans;
  std::size_t off = 0;
  for (int i = 0; i < 3; ++i) {
    spans.push_back(tempi::PackSpan{displs[i] * extent,
                                    static_cast<long long>(off), counts[i]});
    off += static_cast<std::size_t>(counts[i]) * size;
  }
  SpaceBuffer fused(vcuda::MemorySpace::Device, off);
  ASSERT_EQ(packer->pack_spans_async(fused.get(), src.get(), spans,
                                     vcuda::default_stream()),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());

  SpaceBuffer per_peer(vcuda::MemorySpace::Device, off);
  std::size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    ASSERT_EQ(packer->pack(per_peer.bytes() + pos,
                           static_cast<const std::byte *>(src.get()) +
                               displs[i] * extent,
                           counts[i], vcuda::default_stream()),
              vcuda::Error::Success);
    pos += static_cast<std::size_t>(counts[i]) * size;
  }
  EXPECT_EQ(std::memcmp(fused.get(), per_peer.get(), off), 0);

  // And the scatter pass inverts it.
  SpaceBuffer dst(vcuda::MemorySpace::Device, 8 * extent + 64);
  std::memset(dst.get(), 0, dst.size());
  ASSERT_EQ(packer->unpack_spans_async(dst.get(), fused.get(), spans,
                                       vcuda::default_stream()),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());
  SpaceBuffer rt(vcuda::MemorySpace::Device, off);
  ASSERT_EQ(packer->pack_spans_async(rt.get(), dst.get(), spans,
                                     vcuda::default_stream()),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());
  EXPECT_EQ(std::memcmp(rt.get(), fused.get(), off), 0);
  MPI_Type_free(&t);
}

TEST(Collectives, EnvKillSwitchReadAtInstall) {
  // TEMPI_COLL mirrors TEMPI_METHOD: no-recompile disabling, decided (and
  // logged) at install time.
  setenv("TEMPI_COLL", "0", 1);
  tempi::install();
  EXPECT_FALSE(tempi::coll::enabled());
  tempi::uninstall();
  setenv("TEMPI_COLL", "1", 1);
  tempi::install();
  EXPECT_TRUE(tempi::coll::enabled());
  tempi::uninstall();
  unsetenv("TEMPI_COLL");
}

/// Collective-sequence slots each exchange entry consumes on every rank of
/// a one-node `ranks`-rank comm, with `count` objects per peer:
/// {Alltoallv, Neighbor_alltoallv, Gatherv, Allgather} per rank.
std::vector<std::vector<std::uint64_t>> exchange_tag_slots(bool engine,
                                                           int ranks,
                                                           int count) {
  tempi::coll::set_enabled(engine);
  std::vector<std::vector<std::uint64_t>> out(
      static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = ranks;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(3, 2, 4, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const int P = ranks;
    const std::size_t bytes =
        static_cast<std::size_t>(P) * static_cast<std::size_t>(count + 1) *
            static_cast<std::size_t>(extent) + 64;
    SpaceBuffer sbuf(vcuda::MemorySpace::Device, bytes);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device, bytes);
    std::vector<int> counts(P, count), displs(P);
    for (int p = 0; p < P; ++p) {
      displs[p] = p * count;
    }
    const std::vector<int> ring_dst{(rank + 1) % P};
    const std::vector<int> ring_src{(rank - 1 + P) % P};
    MPI_Comm graph = MPI_COMM_NULL;
    MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 1, ring_src.data(),
                                   nullptr, 1, ring_dst.data(), nullptr,
                                   MPI_INFO_NULL, 0, &graph);
    const auto slots = [](MPI_Comm c, const std::function<int()> &call) {
      const std::uint64_t before = c->collective_seq;
      EXPECT_EQ(call(), MPI_SUCCESS);
      return c->collective_seq - before;
    };
    auto &mine = out[static_cast<std::size_t>(rank)];
    mine.push_back(slots(MPI_COMM_WORLD, [&] {
      return MPI_Alltoallv(sbuf.get(), counts.data(), displs.data(), t,
                           rbuf.get(), counts.data(), displs.data(), t,
                           MPI_COMM_WORLD);
    }));
    mine.push_back(slots(graph, [&] {
      return MPI_Neighbor_alltoallv(sbuf.get(), counts.data(), displs.data(),
                                    t, rbuf.get(), counts.data(),
                                    displs.data(), t, graph);
    }));
    mine.push_back(slots(MPI_COMM_WORLD, [&] {
      return MPI_Gatherv(sbuf.get(), count, t, rbuf.get(), counts.data(),
                         displs.data(), t, P - 1, MPI_COMM_WORLD);
    }));
    mine.push_back(slots(MPI_COMM_WORLD, [&] {
      return MPI_Allgather(sbuf.get(), count, t, rbuf.get(), count, t,
                           MPI_COMM_WORLD);
    }));
    MPI_Comm_free(&graph);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::coll::set_enabled(true);
  return out;
}

TEST(Collectives, EngineConsumesTheSystemTagBudget) {
  // Mixed engine/system ranks stay aligned only if every engine entry
  // consumes exactly the collective-sequence slots the system path does.
  tempi::ScopedInterposer guard;
  for (const int ranks : {1, 3, 4}) {
    for (const int count : {0, 2}) {
      tempi::trace::reset_counters();
      const auto engine = exchange_tag_slots(true, ranks, count);
      EXPECT_EQ(counter("tempi.coll.alltoallv"),
                3u * static_cast<std::uint64_t>(ranks));
      EXPECT_EQ(counter("tempi.coll.neighbor"),
                static_cast<std::uint64_t>(ranks));
      const auto system = exchange_tag_slots(false, ranks, count);
      for (std::size_t r = 0; r < engine.size(); ++r) {
        EXPECT_EQ(engine[r], system[r])
            << ranks << " ranks, count " << count << ", rank " << r;
      }
    }
  }
}

tempi::TransferChoice leg(const tempi::PerfModel &model, std::size_t bytes,
                          bool same_node) {
  return model.choose_transfer(bytes, bytes,
                               {tempi::TransferKind::Leg, same_node});
}

TEST(Collectives, ChooseLegIsCachedAndPlacementAware) {
  const tempi::PerfModel model;
  tempi::trace::reset_counters();
  const tempi::TransferChoice inter = leg(model, 1 << 20, false);
  const tempi::TransferChoice intra = leg(model, 1 << 20, true);
  EXPECT_NE(inter.method, tempi::Method::Pipelined);
  EXPECT_NE(intra.method, tempi::Method::Pipelined);
  const auto misses = counter("tempi.model.cache_misses");
  EXPECT_GE(misses, 2u); // distinct salted keys per placement
  // Repeat queries hit the lock-free cache.
  const tempi::TransferChoice again = leg(model, 1 << 20, false);
  EXPECT_EQ(again.method, inter.method);
  EXPECT_GT(counter("tempi.model.cache_hits"), 0u);
  // Over-limit legs pipeline with an in-limit chunk.
  const std::size_t old_limit = tempi::set_wire_chunk_limit(4096);
  const tempi::TransferChoice big = leg(model, 64 * 1024, false);
  tempi::set_wire_chunk_limit(old_limit);
  EXPECT_EQ(big.method, tempi::Method::Pipelined);
  EXPECT_GT(big.chunk_bytes, 0u);
  EXPECT_LE(big.chunk_bytes, 4096u);
}

// --- repeated calls replay their recorded schedule ---------------------------

/// Every rank's receive buffer after each call of a repeated sequence.
using Repeats = std::vector<std::vector<std::vector<std::byte>>>;

/// `iters` MPI_Neighbor_alltoallv calls on a 4-rank dist graph with a self
/// edge and a doubled ring successor: the same buffers and argument arrays
/// every call, a fresh payload before each. `direct` ships MPI_DOUBLE
/// (device contiguous: Direct sides), else a strided vector (Fused sides).
/// The calls listed in `variant` rewrite the counts arrays in place (same
/// pointers) to another valid shape.
Repeats repeated_neighbor(bool engine, bool direct, int iters,
                          const std::set<int> &variant = {}) {
  tempi::coll::set_enabled(engine);
  Repeats out(4);
  sysmpi::RunConfig cfg;
  cfg.ranks = 4;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = MPI_DOUBLE;
    if (!direct) {
      MPI_Type_vector(3, 2, 5, MPI_FLOAT, &t);
      MPI_Type_commit(&t);
    }
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const int P = 4;
    const std::vector<int> dsts{rank, (rank + 1) % P, (rank + 1) % P};
    const std::vector<int> srcs{rank, (rank - 1 + P) % P, (rank - 1 + P) % P};
    MPI_Comm graph = MPI_COMM_NULL;
    MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 3, srcs.data(), nullptr, 3,
                                   dsts.data(), nullptr, MPI_INFO_NULL, 0,
                                   &graph);
    std::vector<int> counts(3), rcounts(3), displs(3);
    const auto shape = [&](int flip) {
      // Slot i pairs with the matching slot of the peer: its count is a
      // function of the sending rank, so receivers recompute it.
      for (int i = 0; i < 3; ++i) {
        counts[static_cast<std::size_t>(i)] = 1 + (rank + i + flip) % 3;
        rcounts[static_cast<std::size_t>(i)] =
            1 + (srcs[static_cast<std::size_t>(i)] + i + flip) % 3;
        displs[static_cast<std::size_t>(i)] = 4 * i;
      }
    };
    SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                     12 * static_cast<std::size_t>(extent) + 64);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                     12 * static_cast<std::size_t>(extent) + 64);
    auto &mine = out[static_cast<std::size_t>(rank)];
    for (int it = 0; it < iters; ++it) {
      shape(variant.contains(it) ? 1 : 0);
      fill_pattern(sbuf.get(), sbuf.size(),
                   static_cast<unsigned>(rank * 100 + it + 1));
      std::memset(rbuf.get(), 0, rbuf.size());
      ASSERT_EQ(MPI_Neighbor_alltoallv(sbuf.get(), counts.data(),
                                       displs.data(), t, rbuf.get(),
                                       rcounts.data(), displs.data(), t,
                                       graph),
                MPI_SUCCESS);
      mine.emplace_back(rbuf.bytes(), rbuf.bytes() + rbuf.size());
    }
    MPI_Comm_free(&graph);
    if (!direct) {
      MPI_Type_free(&t);
    }
    MPI_Finalize();
  });
  tempi::coll::set_enabled(true);
  return out;
}

void expect_same(const Repeats &engine, const Repeats &system) {
  ASSERT_EQ(engine.size(), system.size());
  for (std::size_t r = 0; r < engine.size(); ++r) {
    ASSERT_EQ(engine[r].size(), system[r].size());
    for (std::size_t it = 0; it < engine[r].size(); ++it) {
      EXPECT_EQ(engine[r][it], system[r][it]) << "rank " << r << " call "
                                              << it;
    }
  }
}

TEST(ScheduleReplay, RepeatedNeighborMatchesSystemPathOnEverySide) {
  // The first call runs live, the second records, the rest replay — and
  // every one of them is bitwise the system path's, self and aliased
  // edges included.
  tempi::ScopedInterposer guard;
  for (const bool direct : {true, false}) {
    tempi::trace::reset_counters();
    const Repeats engine = repeated_neighbor(true, direct, 5);
    EXPECT_EQ(counter("tempi.sched.captures"), 4u) << "direct " << direct;
    EXPECT_EQ(counter("tempi.sched.replays"), 4u * 3u) << "direct " << direct;
    expect_same(engine, repeated_neighbor(false, direct, 5));
  }
}

TEST(ScheduleReplay, RepeatedAlltoallvMatchesSystemPath) {
  tempi::ScopedInterposer guard;
  const auto repeated = [](bool engine) {
    tempi::coll::set_enabled(engine);
    Repeats out(4);
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      Rng rng(21u);
      MPI_Datatype t = random_strided_type(rng, 2);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      const int P = 4;
      std::vector<int> scounts(P), sdispls(P), rcounts(P), rdispls(P);
      for (int p = 0; p < P; ++p) {
        scounts[p] = (rank + p) % 3;
        rcounts[p] = (p + rank) % 3;
        sdispls[p] = rdispls[p] = 3 * p;
      }
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       12 * static_cast<std::size_t>(extent) + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       12 * static_cast<std::size_t>(extent) + 64);
      for (int it = 0; it < 5; ++it) {
        fill_pattern(sbuf.get(), sbuf.size(),
                     static_cast<unsigned>(rank * 10 + it + 1));
        std::memset(rbuf.get(), 0, rbuf.size());
        ASSERT_EQ(MPI_Alltoallv(sbuf.get(), scounts.data(), sdispls.data(),
                                t, rbuf.get(), rcounts.data(),
                                rdispls.data(), t, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        out[static_cast<std::size_t>(rank)].emplace_back(
            rbuf.bytes(), rbuf.bytes() + rbuf.size());
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
    tempi::coll::set_enabled(true);
    return out;
  };
  tempi::trace::reset_counters();
  const Repeats engine = repeated(true);
  EXPECT_EQ(counter("tempi.sched.captures"), 4u);
  EXPECT_EQ(counter("tempi.sched.replays"), 4u * 3u);
  expect_same(engine, repeated(false));
}

TEST(ScheduleReplay, ChangedCountsOnTheSamePointersNeverReplayTheOldSchedule) {
  // Call 3 rewrites the counts arrays in place: its key differs only in
  // the vectors' values, so it must run (live) its own schedule; calls 4
  // and 5 replay the first shape's again.
  tempi::ScopedInterposer guard;
  for (const bool direct : {true, false}) {
    tempi::trace::reset_counters();
    const Repeats engine = repeated_neighbor(true, direct, 6, {3});
    EXPECT_EQ(counter("tempi.sched.captures"), 4u);
    EXPECT_EQ(counter("tempi.sched.replays"), 4u * 3u);
    expect_same(engine, repeated_neighbor(false, direct, 6, {3}));
  }
}

/// Self-exchange Alltoallv calls on the calling thread's 1-rank world
/// with one committed strided type and fixed buffers (Fused sides: two
/// staging leases per recorded schedule).
struct SelfExchange {
  static constexpr int kMaxCount = 200;
  MPI_Datatype t = nullptr;
  MPI_Aint extent = 0;
  SpaceBuffer sbuf, rbuf;

  explicit SelfExchange(int blocks)
      : t(committed(blocks)), extent(extent_of(t)),
        sbuf(vcuda::MemorySpace::Device,
             static_cast<std::size_t>(extent) * kMaxCount),
        rbuf(vcuda::MemorySpace::Device,
             static_cast<std::size_t>(extent) * kMaxCount) {}
  ~SelfExchange() { MPI_Type_free(&t); }
  SelfExchange(const SelfExchange &) = delete;
  SelfExchange &operator=(const SelfExchange &) = delete;

  /// Free the type and commit a new one in its place; the buffers stay.
  void retype(int blocks) {
    MPI_Type_free(&t);
    t = committed(blocks);
  }

  static MPI_Datatype committed(int blocks) {
    MPI_Datatype t = nullptr;
    MPI_Type_vector(blocks, 4, 12, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    return t;
  }
  static MPI_Aint extent_of(MPI_Datatype t) {
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    return extent;
  }

  /// One call of `count` objects from a `seed` payload; true when the
  /// receive buffer holds exactly each object's data blocks.
  bool run(int count, unsigned seed) {
    fill_pattern(sbuf.get(), sbuf.size(), seed);
    std::memset(rbuf.get(), 0, rbuf.size());
    const int displ = 0;
    EXPECT_EQ(MPI_Alltoallv(sbuf.get(), &count, &displ, t, rbuf.get(),
                            &count, &displ, t, MPI_COMM_WORLD),
              MPI_SUCCESS);
    std::vector<std::byte> want(rbuf.size(), std::byte{0});
    testing_helpers::reference_unpack(
        want.data(), count, *t,
        testing_helpers::reference_pack(sbuf.get(), count, *t));
    return std::memcmp(want.data(), rbuf.get(), want.size()) == 0;
  }
};

TEST(ScheduleReplay, FreedAndRecommittedTypeNeverReplaysTheOldSchedule) {
  // The same buffers and counts with a freed type's successor (often the
  // same handle): the packer — part of the key — differs, so the new type
  // records and replays a schedule of its own.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  tempi::trace::reset_counters();
  SelfExchange x(8);
  for (int call = 0; call < 3; ++call) {
    EXPECT_TRUE(x.run(2, 1u + call)) << "call " << call;
  }
  EXPECT_EQ(counter("tempi.sched.replays"), 1u);
  x.retype(5);
  for (int call = 0; call < 3; ++call) {
    EXPECT_TRUE(x.run(2, 11u + call)) << "call " << call;
  }
  EXPECT_EQ(counter("tempi.sched.captures"), 2u);
  EXPECT_EQ(counter("tempi.sched.replays"), 2u);
}

TEST(ScheduleReplay, UninstallReleasesRecordedSchedules) {
  // A recorded Fused schedule pins its staging leases; uninstall releases
  // them at once, and a reinstall replays nothing it recorded before.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  const auto leased = [] { return tempi::buffer_cache_stats().leased_now; };
  tempi::trace::reset_counters();
  {
    SelfExchange x(8);
    for (int call = 0; call < 3; ++call) {
      EXPECT_TRUE(x.run(3, 4u + call)) << "call " << call;
    }
  }
  EXPECT_EQ(counter("tempi.sched.replays"), 1u);
  EXPECT_GE(leased(), 2u); // the recorded schedule's staging
  tempi::uninstall();
  EXPECT_EQ(leased(), 0u);
  tempi::install();
  tempi::trace::reset_counters();
  SelfExchange x(8); // recommitted after the reinstall
  for (int call = 0; call < 3; ++call) {
    EXPECT_TRUE(x.run(3, 7u + call)) << "call " << call;
  }
  EXPECT_EQ(counter("tempi.sched.captures"), 1u);
  EXPECT_EQ(counter("tempi.sched.replays"), 1u);
}

TEST(ScheduleReplay, MoreKeysThanTheTableHoldsEvictAndStayCorrect) {
  // 200 distinct counts cycled through a 128-entry table: every key is
  // replaced before its second sighting, so nothing records, each
  // replacement counts as an eviction, and every call is still correct.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  tempi::trace::reset_counters();
  SelfExchange x(2);
  for (int round = 0; round < 2; ++round) {
    for (int count = 1; count <= SelfExchange::kMaxCount; ++count) {
      EXPECT_TRUE(x.run(count, static_cast<unsigned>(count)))
          << "count " << count;
    }
  }
  EXPECT_EQ(counter("tempi.sched.captures"), 0u);
  EXPECT_GE(counter("tempi.sched.evictions"),
            2u * SelfExchange::kMaxCount - 128u);
}

TEST(ScheduleReplay, FailedGraphLaunchReturnsAnErrorAndTheNextCallRecovers) {
  // A 1-rank MPI_BYTE Alltoallv is one self pair (Direct sides), replayed
  // as one copy graph. While every pool stream of the thread is capturing
  // that graph cannot launch: the replay drains its round and returns
  // MPI_ERR_OTHER, as a failed live launch does, and the next call
  // replays normally.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  constexpr int kBytes = 200;
  SpaceBuffer sbuf(vcuda::MemorySpace::Device, kBytes);
  SpaceBuffer rbuf(vcuda::MemorySpace::Device, kBytes);
  const int count = kBytes, displ = 0;
  const auto call = [&](unsigned seed) {
    fill_pattern(sbuf.get(), sbuf.size(), seed);
    std::memset(rbuf.get(), 0, rbuf.size());
    return MPI_Alltoallv(sbuf.get(), &count, &displ, MPI_BYTE, rbuf.get(),
                         &count, &displ, MPI_BYTE, MPI_COMM_WORLD);
  };
  tempi::trace::reset_counters();
  ASSERT_EQ(call(1u), MPI_SUCCESS);
  ASSERT_EQ(call(2u), MPI_SUCCESS);
  EXPECT_EQ(counter("tempi.sched.captures"), 1u);
  const int streams = vcuda::stream_pool_size();
  for (int i = 0; i < streams; ++i) {
    ASSERT_EQ(vcuda::GraphBeginCapture(vcuda::pool_stream(i)),
              vcuda::Error::Success);
  }
  EXPECT_EQ(call(3u), MPI_ERR_OTHER);
  for (int i = 0; i < streams; ++i) {
    vcuda::GraphHandle g = nullptr;
    ASSERT_EQ(vcuda::GraphEndCapture(vcuda::pool_stream(i), &g),
              vcuda::Error::Success);
    vcuda::GraphDestroy(g);
  }
  ASSERT_EQ(call(4u), MPI_SUCCESS);
  EXPECT_EQ(std::memcmp(rbuf.get(), sbuf.get(), kBytes), 0);
  EXPECT_EQ(counter("tempi.sched.captures"), 1u);
  EXPECT_EQ(counter("tempi.sched.replays"), 2u);
}

/// Sorted (peer, bytes, method) of rank `rank`'s spans of `phase` in the
/// virtual-time window [t0, t1).
std::vector<std::tuple<int, std::uint64_t, int>>
legs_in(const tempi::trace::Snapshot &snap, tempi::trace::Phase phase,
        int rank, vcuda::VirtualNs t0, vcuda::VirtualNs t1) {
  std::vector<std::tuple<int, std::uint64_t, int>> out;
  for (const tempi::trace::SpanRecord &rec : snap.spans) {
    if (rec.rank == rank && rec.lane == 0 && rec.phase == phase &&
        rec.kind == tempi::trace::OpKind::Coll && rec.t0 >= t0 &&
        rec.t0 < t1) {
      out.emplace_back(rec.peer, rec.bytes, rec.method);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// `calls` repeated 8-rank, 4-node MPI_BYTE Alltoallv calls of 1 KiB to
/// 1 MiB legs under tracing; rank 0 bumps the tuner generation (and every
/// rank waits on a barrier) before call `bump`. Returns the trace and
/// each rank's virtual time at the start of every call (plus the end).
std::pair<tempi::trace::Snapshot, std::vector<std::vector<vcuda::VirtualNs>>>
traced_alltoallv(int calls, int bump) {
  std::vector<std::vector<vcuda::VirtualNs>> marks(8);
  tempi::trace::reset();
  tempi::trace::set_enabled(true);
  sysmpi::RunConfig cfg;
  cfg.ranks = 8;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    const int P = 8;
    std::vector<int> scounts(P), rcounts(P), sdispls(P), rdispls(P);
    int soff = 0, roff = 0;
    for (int p = 0; p < P; ++p) {
      scounts[p] = 1024 << ((rank + 2 * p) % 11);
      rcounts[p] = 1024 << ((p + 2 * rank) % 11);
      sdispls[p] = soff;
      rdispls[p] = roff;
      soff += scounts[p];
      roff += rcounts[p];
    }
    SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(soff));
    SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(roff));
    fill_pattern(sbuf.get(), sbuf.size(), static_cast<unsigned>(rank) + 1);
    auto &mine = marks[static_cast<std::size_t>(rank)];
    for (int call = 0; call < calls; ++call) {
      if (call == bump) {
        if (rank == 0) {
          tempi::tune::note_refresh_applied();
        }
        MPI_Barrier(MPI_COMM_WORLD);
      }
      mine.push_back(vcuda::virtual_now());
      ASSERT_EQ(MPI_Alltoallv(sbuf.get(), scounts.data(), sdispls.data(),
                              MPI_BYTE, rbuf.get(), rcounts.data(),
                              rdispls.data(), MPI_BYTE, MPI_COMM_WORLD),
                MPI_SUCCESS);
    }
    mine.push_back(vcuda::virtual_now());
    MPI_Finalize();
  });
  tempi::trace::set_enabled(false);
  return {tempi::trace_snapshot(), marks};
}

TEST(ScheduleReplay, FrozenLegChoicesEqualTheModelsAnswers) {
  // Call 0 chooses live, call 1 records, calls 2-3 replay. Each leg of a
  // replay ships (Wire span) with exactly the method call 0 and call 1
  // chose for it (ModelChoice spans: choose_transfer's answers at this
  // generation), and a replay queries the model not once. Flat 3 us
  // staging copies put the Device/Staged crossover inside the sweep:
  // small inter-node legs ship Device, large ones and sends behind a
  // queue Staged, intra-node legs Device.
  tempi::ScopedInterposer guard;
  tempi::SystemPerf perf = tempi::builtin_perf();
  perf.d2h = perf.h2d = tempi::Table1D{{1.0, 1e9}, {3.0, 3.0}};
  tempi::set_perf_model(tempi::PerfModel(perf));
  tempi::trace::reset_counters();
  const auto [snap, marks] = traced_alltoallv(4, -1);
  ASSERT_EQ(snap.dropped, 0u);
  EXPECT_EQ(counter("tempi.sched.replays"), 8u * 2u);
  std::set<int> methods;
  for (int rank = 0; rank < 8; ++rank) {
    const auto &m = marks[static_cast<std::size_t>(rank)];
    const auto live =
        legs_in(snap, tempi::trace::Phase::ModelChoice, rank, m[0], m[1]);
    ASSERT_EQ(live.size(), 2u * 7u) << "rank " << rank; // 7 peers each way
    EXPECT_EQ(legs_in(snap, tempi::trace::Phase::ModelChoice, rank, m[1],
                      m[2]),
              live)
        << "rank " << rank;
    for (int call = 2; call < 4; ++call) {
      const vcuda::VirtualNs t0 = m[static_cast<std::size_t>(call)];
      const vcuda::VirtualNs t1 = m[static_cast<std::size_t>(call) + 1];
      EXPECT_TRUE(
          legs_in(snap, tempi::trace::Phase::ModelChoice, rank, t0, t1)
              .empty())
          << "rank " << rank << " call " << call;
      EXPECT_EQ(legs_in(snap, tempi::trace::Phase::Wire, rank, t0, t1), live)
          << "rank " << rank << " call " << call;
    }
    for (const auto &leg : live) {
      methods.insert(std::get<2>(leg));
    }
  }
  EXPECT_EQ(methods, (std::set<int>{static_cast<int>(tempi::Method::Device),
                                     static_cast<int>(tempi::Method::Staged)}));
}

TEST(ScheduleReplay, TunerGenerationBumpReRecords) {
  // Calls 0-2 run live, record and replay; a tuner refresh then moves the
  // choice generation, so call 3 re-records (its legs show ModelChoice
  // spans again) and call 4 replays the new recording.
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  const auto [snap, marks] = traced_alltoallv(5, 3);
  ASSERT_EQ(snap.dropped, 0u);
  for (int rank = 0; rank < 8; ++rank) {
    const auto &m = marks[static_cast<std::size_t>(rank)];
    const auto choices = [&](int call) {
      return legs_in(snap, tempi::trace::Phase::ModelChoice, rank,
                     m[static_cast<std::size_t>(call)],
                     m[static_cast<std::size_t>(call) + 1])
          .size();
    };
    EXPECT_EQ(choices(2), 0u) << "rank " << rank;
    EXPECT_EQ(choices(3), 2u * 7u) << "rank " << rank;
    EXPECT_EQ(choices(4), 0u) << "rank " << rank;
  }
  EXPECT_EQ(counter("tempi.sched.captures"), 8u * 2u);
  EXPECT_EQ(counter("tempi.sched.replays"), 8u * 2u);
}

} // namespace
