// The halo mini-app against a scalar reference: a host-side oracle
// computes every ghost cell directly from the owning neighbor's interior,
// for arbitrary rank grids (including the aliasing cases px<=2 and the
// self-neighbor case px==1), radii, and brick shapes.
#include "halo/halo.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "vcuda/clock.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

namespace {

using Grid = std::vector<double>;

struct Layout {
  halo::Config cfg;
  [[nodiscard]] int ax() const { return cfg.nx + 2 * cfg.radius; }
  [[nodiscard]] int ay() const { return cfg.ny + 2 * cfg.radius; }
  [[nodiscard]] int az() const { return cfg.nz + 2 * cfg.radius; }
  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(ax()) * ay() * az() * cfg.vals;
  }
  [[nodiscard]] std::size_t idx(int x, int y, int z, int v) const {
    return ((static_cast<std::size_t>(z) * ay() + y) * ax() + x) * cfg.vals +
           v;
  }
};

int wrap(int v, int n) { return (v % n + n) % n; }

int rank_at(const halo::Config &c, int x, int y, int z) {
  return (wrap(z, c.pz) * c.py + wrap(y, c.py)) * c.px + wrap(x, c.px);
}

/// Value of interior cell (x,y,z,v) of `rank` — deterministic function so
/// the oracle needs no communication. Coordinates are interior-relative.
double cell_value(int rank, int x, int y, int z, int v) {
  return rank * 1e6 + x * 1e4 + y * 1e2 + z + v * 0.25;
}

/// Fill a rank's grid: interior patterned, ghosts poisoned.
void init_grid(const Layout &lay, int rank, Grid &g) {
  const int r = lay.cfg.radius;
  g.assign(lay.cells(), -1.0);
  for (int z = 0; z < lay.cfg.nz; ++z) {
    for (int y = 0; y < lay.cfg.ny; ++y) {
      for (int x = 0; x < lay.cfg.nx; ++x) {
        for (int v = 0; v < lay.cfg.vals; ++v) {
          g[lay.idx(x + r, y + r, z + r, v)] = cell_value(rank, x, y, z, v);
        }
      }
    }
  }
}

/// The oracle: the expected value at any local coordinate (ghosts
/// included) is the periodic-global owner's interior value.
double expected_at(const Layout &lay, int rank, int lx, int ly, int lz,
                   int v) {
  const halo::Config &c = lay.cfg;
  const int r = c.radius;
  const int rx = rank % c.px, ry = (rank / c.px) % c.py,
            rz = rank / (c.px * c.py);
  // Global interior coordinate of this local cell.
  const int gx = wrap(rx * c.nx + (lx - r), c.px * c.nx);
  const int gy = wrap(ry * c.ny + (ly - r), c.py * c.ny);
  const int gz = wrap(rz * c.nz + (lz - r), c.pz * c.nz);
  const int owner = rank_at(c, gx / c.nx, gy / c.ny, gz / c.nz);
  return cell_value(owner, gx % c.nx, gy % c.ny, gz % c.nz, v);
}

/// Run one exchange on every rank; returns the final grids.
std::vector<Grid> run_exchange(const halo::Config &cfg, bool with_tempi) {
  const Layout lay{cfg};
  std::vector<Grid> grids(static_cast<std::size_t>(cfg.ranks()));
  if (with_tempi) {
    tempi::install();
  }
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 6;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    void *dev = nullptr;
    vcuda::Malloc(&dev, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      // Grid ownership follows the Cartesian rank: with reorder=1 the
      // exchanger may have re-placed this process in the rank grid.
      const int pos = ex.rank();
      Grid host;
      init_grid(lay, pos, host);
      std::memcpy(dev, host.data(), cfg.grid_bytes());
      ex.exchange(dev);
      grids[static_cast<std::size_t>(pos)].resize(lay.cells());
      std::memcpy(grids[static_cast<std::size_t>(pos)].data(), dev,
                  cfg.grid_bytes());
    }
    vcuda::Free(dev);
    MPI_Finalize();
  });
  if (with_tempi) {
    tempi::uninstall();
  }
  return grids;
}

/// Check every cell of every rank against the oracle. Ghost *corners* of
/// width r are covered too — they travel via the diagonal neighbors.
void check_against_oracle(const halo::Config &cfg,
                          const std::vector<Grid> &grids) {
  const Layout lay{cfg};
  for (int rank = 0; rank < cfg.ranks(); ++rank) {
    const Grid &g = grids[static_cast<std::size_t>(rank)];
    for (int z = 0; z < lay.az(); ++z) {
      for (int y = 0; y < lay.ay(); ++y) {
        for (int x = 0; x < lay.ax(); ++x) {
          for (int v = 0; v < cfg.vals; ++v) {
            ASSERT_DOUBLE_EQ(g[lay.idx(x, y, z, v)],
                             expected_at(lay, rank, x, y, z, v))
                << "rank " << rank << " cell (" << x << "," << y << "," << z
                << "," << v << ")";
          }
        }
      }
    }
  }
}

class HaloOracle
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, bool>> {
};

TEST_P(HaloOracle, EveryGhostCellIsCorrect) {
  const auto [px, py, pz, radius, with_tempi] = GetParam();
  halo::Config cfg;
  cfg.nx = 5;
  cfg.ny = 4;
  cfg.nz = 3; // non-cubic brick: catches transposed-dimension bugs
  cfg.vals = 2;
  cfg.radius = radius;
  cfg.px = px;
  cfg.py = py;
  cfg.pz = pz;
  check_against_oracle(cfg, run_exchange(cfg, with_tempi));
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndRadii, HaloOracle,
    ::testing::Values(
        // Aliasing-heavy cases: width-1 and width-2 periodic dimensions.
        std::make_tuple(1, 1, 1, 1, true),
        std::make_tuple(2, 1, 1, 1, true),
        std::make_tuple(2, 2, 1, 1, true),
        std::make_tuple(2, 2, 2, 1, true),
        // No aliasing.
        std::make_tuple(3, 3, 3, 1, true),
        // Mixed widths and a larger radius.
        std::make_tuple(3, 2, 1, 1, true),
        std::make_tuple(2, 2, 1, 2, true),
        std::make_tuple(3, 1, 2, 1, true),
        // Baseline engine must satisfy the same oracle.
        std::make_tuple(2, 2, 1, 1, false),
        std::make_tuple(3, 2, 1, 2, false)));

TEST(HaloOracleEdge, RadiusEqualsBrick) {
  // radius == nx: the entire interior is one big face; the exchange must
  // still satisfy the oracle (each ghost shell is a full neighbor brick).
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  cfg.vals = 1;
  cfg.radius = 2;
  cfg.px = 2;
  cfg.py = 1;
  cfg.pz = 1;
  check_against_oracle(cfg, run_exchange(cfg, true));
}

TEST(HaloColdExchange, FirstIsendExchangeCarvesSameSizeLeases) {
  // The end-to-end benchmark's halo_p2p grid. Each rank's 26 Isends and 26
  // Irecvs lease in device space, since the burst prices edges and corners
  // device: 12 face messages of 110592 B (128 KiB), 24 edges of 13824 B
  // (16 KiB) and 16 corners of 1728 B (2 KiB). The first Irecv, the one
  // message priced alone, is a corner and goes one-shot: a single pinned
  // 2 KiB lease. With segments, a cell's burst costs its first buffer
  // plus one allocation per segment: at most 9 per rank, where one
  // allocation per lease made 52.
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 24;
  cfg.vals = 8;
  cfg.radius = 3;
  cfg.px = 2;
  cfg.py = cfg.pz = 1;
  tempi::install();
  tempi::drain_buffer_cache(); // an empty depot: the exchange starts cold
  std::array<std::size_t, 2> misses{};
  std::uint64_t mallocs = 0;
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 6;
  sysmpi::run_ranks(rc, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    void *dev = nullptr;
    vcuda::Malloc(&dev, cfg.grid_bytes());
    std::memset(dev, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      // Rank threads are fresh, so these are the rank's first leases; each
      // miss is one vcuda allocation. The barriers fence the process-wide
      // allocation count around both ranks' exchanges.
      MPI_Barrier(MPI_COMM_WORLD);
      if (rank == 0) {
        mallocs = vcuda::counters().mallocs;
      }
      MPI_Barrier(MPI_COMM_WORLD);
      const std::size_t before = tempi::buffer_cache_stats().misses;
      ex.exchange_isend(dev);
      misses[static_cast<std::size_t>(rank)] =
          tempi::buffer_cache_stats().misses - before;
      MPI_Barrier(MPI_COMM_WORLD);
      if (rank == 0) {
        mallocs = vcuda::counters().mallocs - mallocs;
      }
    }
    vcuda::Free(dev);
    MPI_Finalize();
  });
  tempi::uninstall();
  for (const std::size_t m : misses) {
    EXPECT_GT(m, 0u);
    EXPECT_LE(m, 9u);
  }
  EXPECT_EQ(mallocs, misses[0] + misses[1]);
}

/// Per-rank virtual time of one steady-state exchange_isend under `mode`
/// on the end-to-end benchmark's halo_p2p grid: 24^3 points of 8 doubles,
/// radius 3, a periodic 2x1x1 rank grid, one rank per node.
std::array<vcuda::VirtualNs, 2> steady_isend_exchange(tempi::SendMode mode) {
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 24;
  cfg.vals = 8;
  cfg.radius = 3;
  cfg.px = 2;
  cfg.py = cfg.pz = 1;
  cfg.reorder = 1;
  tempi::install();
  tempi::set_send_mode(mode);
  std::array<vcuda::VirtualNs, 2> steady{};
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    void *dev = nullptr;
    vcuda::Malloc(&dev, cfg.grid_bytes());
    std::memset(dev, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      // The first exchange runs live, the second records its programs;
      // from the third on every exchange replays the same way. The
      // barrier starts both ranks together: without it the skew the cold
      // exchanges leave (which depends on what earlier leases left in the
      // shared buffer depot) decides which rank waits for the other.
      for (int it = 0; it < 6; ++it) {
        MPI_Barrier(MPI_COMM_WORLD);
        const vcuda::VirtualNs t0 = vcuda::virtual_now();
        ex.exchange_isend(dev);
        steady[static_cast<std::size_t>(rank)] = vcuda::virtual_now() - t0;
      }
    }
    vcuda::Free(dev);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  tempi::uninstall();
  return steady;
}

TEST(HaloIsendGuideline, AutoIsNoSlowerThanTheBestForcedMethod) {
  // Guideline G1 (Gropp, Hoefler, Thakur and Traeff, EuroMPI 2011): the
  // model's choice may not lose to a method it could have forced. An
  // exchange ends when its slower rank's does, so each mode is priced as
  // the max over ranks. Priced alone, the 13824 B edges and 1728 B
  // corners go one-shot and Auto loses to forced device; burst pricing
  // sends them device, leaving Auto only its memo lookup per message
  // behind.
  const auto slowest = [](const std::array<vcuda::VirtualNs, 2> &t) {
    return *std::max_element(t.begin(), t.end());
  };
  const auto report = [](const char *mode,
                         const std::array<vcuda::VirtualNs, 2> &t) {
    std::printf("exchange_isend steady %-8s rank 0 %.3f rank 1 %.3f virt us\n",
                mode, vcuda::ns_to_us(t[0]), vcuda::ns_to_us(t[1]));
  };
  const auto automatic = steady_isend_exchange(tempi::SendMode::Auto);
  const auto device = steady_isend_exchange(tempi::SendMode::ForceDevice);
  const auto oneshot = steady_isend_exchange(tempi::SendMode::ForceOneShot);
  report("auto", automatic);
  report("device", device);
  report("one-shot", oneshot);
  const vcuda::VirtualNs best = std::min(slowest(device), slowest(oneshot));
  EXPECT_LE(static_cast<double>(slowest(automatic)),
            1.05 * static_cast<double>(best));
}

TEST(HaloColdExchange, UninstallLeavesTheBufferDepotEmpty) {
  // Repeated exchanges record send and receive programs that pin leases.
  // A rank whose buffer cache predates its program table (here one lease
  // before the first exchange, as a collective or a pack would take)
  // destroys the table first at thread exit, after its last
  // MPI_Finalize drained the cache: the programs' leases go back to live
  // magazines, and beyond a magazine's cap into the shared depot.
  // Uninstall must free those too.
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 12;
  cfg.vals = 2;
  cfg.radius = 2;
  cfg.px = 2;
  cfg.py = cfg.pz = 1;
  tempi::install();
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 2;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    (void)tempi::lease_buffer(vcuda::MemorySpace::Device, 64);
    void *dev = nullptr;
    vcuda::Malloc(&dev, cfg.grid_bytes());
    std::memset(dev, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      for (int it = 0; it < 4; ++it) {
        ex.exchange_isend(dev);
      }
    }
    vcuda::Free(dev);
    MPI_Finalize();
  });
  tempi::uninstall();
  EXPECT_EQ(tempi::buffer_depot_size(), 0u);
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, 0u);
}

// --- pointer queries per steady-state op --------------------------------------

/// The process-wide pointer-query count read between ops. Every rank calls
/// mark() before each op and once after the last; the barriers keep every
/// rank's op out of the reads.
class QueryLog {
public:
  void mark(int rank) {
    MPI_Barrier(MPI_COMM_WORLD);
    if (rank == 0) {
      marks_.push_back(vcuda::counters().pointer_queries);
    }
    MPI_Barrier(MPI_COMM_WORLD);
  }
  /// Queries made by each op, all ranks together.
  [[nodiscard]] std::vector<std::uint64_t> per_op() const {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 1; i < marks_.size(); ++i) {
      out.push_back(marks_[i] - marks_[i - 1]);
    }
    return out;
  }

private:
  std::vector<std::uint64_t> marks_;
};

constexpr int kOps = 6;

/// Require a first op that queries and none from the third op on: the
/// first sighting runs live, the second records, later ones replay, and
/// every buffer's residency comes from the memo.
void expect_steady_state_queries_nothing(const std::vector<std::uint64_t> &q,
                                         const char *shape) {
  ASSERT_EQ(q.size(), static_cast<std::size_t>(kOps)) << shape;
  EXPECT_GT(q[0], 0u) << shape;
  for (std::size_t i = 2; i < q.size(); ++i) {
    EXPECT_EQ(q[i], 0u) << shape << " op " << i;
  }
}

/// Pointer queries of each of kOps halo ops on the end-to-end benchmark's
/// halo grid (24^3 points of 8 doubles, radius 3, periodic 2x1x1 ranks,
/// one rank per node).
template <class Op>
std::vector<std::uint64_t> halo_queries(Op op) {
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 24;
  cfg.vals = 8;
  cfg.radius = 3;
  cfg.px = 2;
  cfg.py = cfg.pz = 1;
  cfg.reorder = 1;
  tempi::install();
  QueryLog log;
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    void *dev = nullptr;
    vcuda::Malloc(&dev, cfg.grid_bytes());
    std::memset(dev, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      for (int it = 0; it < kOps; ++it) {
        log.mark(rank);
        op(ex, dev);
      }
      log.mark(rank);
    }
    vcuda::Free(dev);
    MPI_Finalize();
  });
  tempi::uninstall();
  return log.per_op();
}

TEST(PointerQueries, SteadyExchangeIsendQueriesNothing) {
  expect_steady_state_queries_nothing(
      halo_queries([](halo::Exchanger &ex, void *grid) {
        ex.exchange_isend(grid);
      }),
      "exchange_isend");
}

TEST(PointerQueries, SteadyExchangeAndResidualNormQueryNothing) {
  expect_steady_state_queries_nothing(
      halo_queries([](halo::Exchanger &ex, void *grid) {
        ex.exchange(grid);
        (void)ex.residual_norm(grid);
      }),
      "exchange + residual_norm");
}

/// One thread's single-rank world at MPI_THREAD_MULTIPLE, as the
/// hotpath_mt benchmark runs it: `body(log)` marks its own ops.
template <class Body> std::vector<std::uint64_t> self_rank_queries(Body body) {
  tempi::install();
  QueryLog log;
  std::thread([&] {
    int provided = 0;
    MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
    body(log);
    MPI_Finalize();
  }).join();
  tempi::uninstall();
  return log.per_op();
}

MPI_Datatype committed_hot_vector() {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(128, 8, 16, MPI_BYTE, &t); // 1 KiB of 8 B runs
  MPI_Type_commit(&t);
  return t;
}

TEST(PointerQueries, SteadyHotpathPairQueriesNothing) {
  const std::vector<std::uint64_t> q = self_rank_queries([](QueryLog &log) {
    MPI_Datatype t = committed_hot_vector();
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    std::array<void *, 3> bufs{}; // send, Irecv target, channel target
    for (void *&p : bufs) {
      vcuda::Malloc(&p, static_cast<std::size_t>(extent));
    }
    std::array<MPI_Request, 2> channels{};
    MPI_Recv_init(bufs[2], 1, t, 0, 4096, MPI_COMM_WORLD, &channels[0]);
    MPI_Send_init(bufs[0], 1, t, 0, 4096, MPI_COMM_WORLD, &channels[1]);
    for (int it = 0; it < kOps; ++it) {
      log.mark(0);
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      MPI_Irecv(bufs[1], 1, t, 0, 0, MPI_COMM_WORLD, &reqs[0]);
      MPI_Isend(bufs[0], 1, t, 0, 0, MPI_COMM_WORLD, &reqs[1]);
      MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE);
      MPI_Start(&channels[0]);
      MPI_Start(&channels[1]);
      MPI_Waitall(2, channels.data(), MPI_STATUSES_IGNORE);
    }
    log.mark(0);
    MPI_Request_free(&channels[0]);
    MPI_Request_free(&channels[1]);
    MPI_Type_free(&t);
    for (void *p : bufs) {
      vcuda::Free(p);
    }
  });
  expect_steady_state_queries_nothing(q, "hotpath Isend/Irecv + Start pair");
}

// Pageable buffers never enter the memo: each blocking send from one asks
// exactly once, as it did before the memo.
TEST(PointerQueries, BlockingSendFromAPageableStridedBufferQueriesOnce) {
  const std::vector<std::uint64_t> q = self_rank_queries([](QueryLog &log) {
    MPI_Datatype t = committed_hot_vector();
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    std::vector<std::byte> src(static_cast<std::size_t>(extent));
    std::vector<std::byte> dst(src.size());
    for (int it = 0; it < kOps; ++it) {
      log.mark(0);
      EXPECT_EQ(MPI_Send(src.data(), 1, t, 0, it, MPI_COMM_WORLD),
                MPI_SUCCESS);
      log.mark(0);
      EXPECT_EQ(MPI_Recv(dst.data(), 1, t, 0, it, MPI_COMM_WORLD,
                         MPI_STATUS_IGNORE),
                MPI_SUCCESS);
    }
    MPI_Type_free(&t);
  });
  ASSERT_EQ(q.size(), static_cast<std::size_t>(2 * kOps - 1));
  for (std::size_t i = 0; i < q.size(); i += 2) {
    EXPECT_EQ(q[i], 1u) << "send " << i / 2;
  }
}

} // namespace
