#include "ranks.hpp"

#include "probe.hpp"

#include "halo/halo.hpp"
#include "sysmpi/mpi.hpp"
#include "vcuda/runtime.hpp"

#include <array>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace bm {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void *device_alloc(std::size_t bytes) {
  void *p = nullptr;
  if (vcuda::Malloc(&p, bytes) != vcuda::Error::Success || p == nullptr) {
    throw std::runtime_error("vcuda::Malloc failed");
  }
  return p;
}

/// Seeded byte k of the payload of op `i` from thread `thread`.
std::uint8_t fill_byte(std::uint64_t seed, std::uint64_t i, int thread,
                       std::size_t k) {
  const std::uint64_t word =
      seeded(seed, kFill, i * 4 + static_cast<std::uint64_t>(thread), k / 8);
  return static_cast<std::uint8_t>(word >> (8 * (k % 8)));
}

constexpr std::uint8_t kPoison = 0xA5;
constexpr std::uint8_t kGap = 0x5A;

/// A 2-D strided object: `blocks` runs of `block` bytes, 2*block apart.
struct Strided {
  std::size_t block = 0;
  std::size_t blocks = 0;
  [[nodiscard]] std::size_t packed() const { return block * blocks; }
  [[nodiscard]] std::size_t extent() const {
    return blocks == 0 ? 0 : (blocks - 1) * 2 * block + block;
  }
  [[nodiscard]] std::size_t offset(std::size_t k) const {
    return (k / block) * 2 * block + k % block;
  }
};

MPI_Datatype commit_vector(const Strided &s) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(static_cast<int>(s.blocks), static_cast<int>(s.block),
                  static_cast<int>(2 * s.block), MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

/// Fill the blocks of `buf` with op i's payload and the gaps with kGap.
void fill_strided(std::uint8_t *buf, const Strided &s, bool contiguous,
                  std::uint64_t seed, std::uint64_t i, int thread) {
  if (contiguous) {
    for (std::size_t k = 0; k < s.packed(); ++k) {
      buf[k] = fill_byte(seed, i, thread, k);
    }
    return;
  }
  std::memset(buf, kGap, s.extent());
  for (std::size_t k = 0; k < s.packed(); ++k) {
    buf[s.offset(k)] = fill_byte(seed, i, thread, k);
  }
}

/// True when `buf` holds op i's payload in its blocks and kPoison in its
/// gaps: what a receive into a poisoned buffer must leave.
bool check_strided(const std::uint8_t *buf, const Strided &s, bool contiguous,
                   std::uint64_t seed, std::uint64_t i, int thread) {
  const std::size_t span = contiguous ? s.packed() : s.extent();
  std::size_t k = 0;
  for (std::size_t at = 0; at < span; ++at) {
    const bool in_block = contiguous || (at % (2 * s.block)) < s.block;
    if (in_block) {
      if (buf[at] != fill_byte(seed, i, thread, k++)) {
        return false;
      }
    } else if (buf[at] != kPoison) {
      return false;
    }
  }
  return k == s.packed();
}

// --- halo_coll / halo_p2p -----------------------------------------------------

halo::Config halo_config() {
  halo::Config c;
  c.nx = c.ny = c.nz = 24;
  c.vals = 8;
  c.radius = 3;
  c.px = 2;
  c.py = c.pz = 1;
  c.reorder = 1;
  return c;
}

/// One rank of the Astaroth-style exchange on a periodic 2x1x1 rank grid.
/// Every gridpoint holds a seeded function of its global coordinates, so
/// after an exchange the whole local array, ghost shells included, must
/// equal that function at the wrapped coordinates.
class HaloRank final : public Rank {
public:
  HaloRank(std::uint64_t seed, HaloPath path)
      : cfg_(halo_config()), seed_(seed), path_(path) {
    grid_ = static_cast<double *>(device_alloc(cfg_.grid_bytes()));
    std::memset(grid_, 0, cfg_.grid_bytes());
  }
  ~HaloRank() override {
    exchanger_.reset();
    vcuda::Free(grid_);
  }
  HaloRank(const HaloRank &) = delete;
  HaloRank &operator=(const HaloRank &) = delete;

  void connect() override {
    exchanger_ = std::make_unique<halo::Exchanger>(cfg_, MPI_COMM_WORLD);
  }

  Latency op(OpId) override {
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    if (path_ == HaloPath::Collective) {
      exchanger_->exchange(grid_);
      residual_ = exchanger_->residual_norm(grid_);
    } else {
      exchanger_->exchange_isend(grid_);
    }
    return static_cast<Latency>(vcuda::virtual_now() - t0);
  }

  [[nodiscard]] std::uint64_t warmup_ops() const override { return 16; }

  void prepare(std::uint64_t) override {
    if (expected_.empty()) {
      build_images(); // benchmark input, kept out of the timed set-up
    }
    std::memcpy(grid_, poisoned_.data(), cfg_.grid_bytes());
  }

  bool verify(std::uint64_t) override {
    return std::memcmp(grid_, expected_.data(), cfg_.grid_bytes()) == 0;
  }

  [[nodiscard]] double residual() const override { return residual_; }

private:
  void build_images() {
    const int r = cfg_.radius;
    const int X = cfg_.nx + 2 * r, Y = cfg_.ny + 2 * r, Z = cfg_.nz + 2 * r;
    const int gnx = cfg_.nx * cfg_.px;
    const int rx = exchanger_->rank(); // Cartesian rank = x coordinate
    const auto wrap = [](int v, int n) { return ((v % n) + n) % n; };
    const std::size_t cells = cfg_.grid_bytes() / sizeof(double);
    expected_.resize(cells);
    poisoned_.resize(cells);
    double poison = 0.0;
    const std::uint64_t poison_bits = 0x7FF8DEADBEEF0000ULL; // a quiet NaN
    std::memcpy(&poison, &poison_bits, sizeof poison);
    std::size_t at = 0;
    for (int z = 0; z < Z; ++z) {
      for (int y = 0; y < Y; ++y) {
        for (int x = 0; x < X; ++x) {
          const int gx = wrap(rx * cfg_.nx + x - r, gnx);
          const int gy = wrap(y - r, cfg_.ny);
          const int gz = wrap(z - r, cfg_.nz);
          const bool ghost = x < r || x >= cfg_.nx + r || y < r ||
                             y >= cfg_.ny + r || z < r || z >= cfg_.nz + r;
          const std::uint64_t point =
              (static_cast<std::uint64_t>(gz) * cfg_.ny + gy) * gnx + gx;
          for (int v = 0; v < cfg_.vals; ++v, ++at) {
            const std::uint64_t h =
                seeded(seed_, kFill, point, static_cast<std::uint64_t>(v));
            expected_[at] = static_cast<double>(h >> 11) * 0x1p-53;
            poisoned_[at] = ghost ? poison : expected_[at];
          }
        }
      }
    }
  }

  halo::Config cfg_;
  std::uint64_t seed_;
  HaloPath path_;
  double *grid_ = nullptr;
  std::unique_ptr<halo::Exchanger> exchanger_;
  std::vector<double> expected_, poisoned_;
  double residual_ = std::numeric_limits<double>::quiet_NaN();
};

// --- p2p_mix ------------------------------------------------------------------

// Fig. 11 shapes: 2-D objects of these packed sizes, in runs of these block
// sizes, pitch = 2 x block.
constexpr std::array<std::size_t, 4> kObjects = {1024, 16 * 1024, 256 * 1024,
                                                 1024 * 1024};
constexpr std::array<std::size_t, 5> kBlocks = {1, 4, 16, 64, 256};
constexpr std::size_t kShapes = kObjects.size() * kBlocks.size();

Strided p2p_shape(std::size_t s) {
  const std::size_t block = kBlocks[s % kBlocks.size()];
  return Strided{block, kObjects[s / kBlocks.size()] / block};
}

enum class Residency : std::uint8_t { DeviceStrided, DeviceContiguous, Host };
enum class Api : std::uint8_t { Blocking, Nonblocking, Persistent };
constexpr std::size_t kResidencies = 3;

// One stratum of the op stream holds every (shape, residency slot, API
// slot) combination once, in seeded order: residency 8/1/1 slots of 10
// (device-strided / device-contiguous / host) and API 2/1/1 slots of 4
// (blocking / Isend+Wait / Start+Wait). Whole strata keep the mix exact in
// every run, so seeds change the order ops arrive in, not their proportions.
constexpr std::size_t kStratum = kShapes * 10 * 4;

struct P2POp {
  std::size_t shape = 0;
  Residency res = Residency::DeviceStrided;
  Api api = Api::Blocking;
};

constexpr int kAckTag = 1000;

/// Receiver-timed ping-pong: thread 0 sends the op's object, thread 1
/// receives it and answers with a 4-byte host ack.
class P2PRank final : public Rank {
public:
  P2PRank(std::uint64_t seed, int thread) : seed_(seed), thread_(thread) {
    for (std::size_t s = 0; s < kShapes; ++s) {
      const Strided shape = p2p_shape(s);
      device_.push_back(static_cast<std::uint8_t *>(
          device_alloc(shape.extent())));
      host_.emplace_back(new std::uint8_t[shape.extent()]); // left unset
    }
  }
  ~P2PRank() override {
    for (MPI_Request &ch : channels_) {
      MPI_Request_free(&ch);
    }
    for (MPI_Datatype &t : types_) {
      MPI_Type_free(&t);
    }
    for (std::uint8_t *p : device_) {
      vcuda::Free(p);
    }
  }
  P2PRank(const P2PRank &) = delete;
  P2PRank &operator=(const P2PRank &) = delete;

  void connect() override {
    for (std::size_t s = 0; s < kShapes; ++s) {
      types_.push_back(commit_vector(p2p_shape(s)));
    }
    for (std::size_t s = 0; s < kShapes; ++s) {
      for (std::size_t r = 0; r < kResidencies; ++r) {
        const P2POp o{s, static_cast<Residency>(r), Api::Persistent};
        MPI_Request ch = MPI_REQUEST_NULL;
        if (thread_ == 0) {
          MPI_Send_init(buffer(o), count(o), type(o), 1, tag(o),
                        MPI_COMM_WORLD, &ch);
        } else {
          MPI_Recv_init(buffer(o), count(o), type(o), 0, tag(o),
                        MPI_COMM_WORLD, &ch);
        }
        channels_.push_back(ch);
      }
    }
  }

  Latency op(OpId id) override {
    const P2POp o = describe(id);
    MPI_Request &ch = channels_[o.shape * kResidencies +
                                static_cast<std::size_t>(o.res)];
    if (thread_ == 0) {
      switch (o.api) {
      case Api::Blocking:
        MPI_Send(buffer(o), count(o), type(o), 1, tag(o), MPI_COMM_WORLD);
        break;
      case Api::Nonblocking: {
        MPI_Request req = MPI_REQUEST_NULL;
        MPI_Isend(buffer(o), count(o), type(o), 1, tag(o), MPI_COMM_WORLD,
                  &req);
        MPI_Wait(&req, MPI_STATUS_IGNORE);
        break;
      }
      case Api::Persistent:
        set_wait_kind(WaitKind::Persistent);
        MPI_Start(&ch);
        MPI_Wait(&ch, MPI_STATUS_IGNORE);
        set_wait_kind(WaitKind::Engine);
        break;
      }
      MPI_Recv(&ack_, 1, MPI_INT, 1, kAckTag, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
      return -1;
    }
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    switch (o.api) {
    case Api::Blocking:
      MPI_Recv(buffer(o), count(o), type(o), 0, tag(o), MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
      break;
    case Api::Nonblocking: {
      MPI_Request req = MPI_REQUEST_NULL;
      MPI_Irecv(buffer(o), count(o), type(o), 0, tag(o), MPI_COMM_WORLD,
                &req);
      MPI_Wait(&req, MPI_STATUS_IGNORE);
      break;
    }
    case Api::Persistent:
      set_wait_kind(WaitKind::Persistent);
      MPI_Start(&ch);
      MPI_Wait(&ch, MPI_STATUS_IGNORE);
      set_wait_kind(WaitKind::Engine);
      break;
    }
    const Latency latency = static_cast<Latency>(vcuda::virtual_now() - t0);
    MPI_Send(&ack_, 1, MPI_INT, 0, kAckTag, MPI_COMM_WORLD);
    return latency;
  }

  [[nodiscard]] std::uint64_t warmup_ops() const override {
    return kShapes * kResidencies * 3;
  }

  void prepare(std::uint64_t i) override {
    const P2POp o = describe({OpKind::Timed, i});
    const Strided shape = p2p_shape(o.shape);
    const bool contiguous = o.res == Residency::DeviceContiguous;
    auto *buf = static_cast<std::uint8_t *>(buffer(o));
    if (thread_ == 0) {
      fill_strided(buf, shape, contiguous, seed_, i, 0);
    } else {
      std::memset(buf, kPoison, contiguous ? shape.packed() : shape.extent());
    }
  }

  int op_class(std::uint64_t i) override {
    const P2POp o = describe({OpKind::Timed, i});
    return o.res == Residency::DeviceStrided && o.api == Api::Blocking
               ? static_cast<int>(o.shape)
               : -1;
  }

  bool verify(std::uint64_t i) override {
    if (thread_ == 0) {
      return true;
    }
    const P2POp o = describe({OpKind::Timed, i});
    return check_strided(static_cast<const std::uint8_t *>(buffer(o)),
                         p2p_shape(o.shape),
                         o.res == Residency::DeviceContiguous, seed_, i, 0);
  }

private:
  P2POp describe(OpId id) {
    switch (id.kind) {
    case OpKind::Cold: // 16 KiB of 16 B runs: mid-sized, device, blocking
      return {1 * kBlocks.size() + 2, Residency::DeviceStrided,
              Api::Blocking};
    case OpKind::Warm:
      return {id.index % kShapes,
              static_cast<Residency>(id.index / kShapes % kResidencies),
              static_cast<Api>(id.index / (kShapes * kResidencies) % 3)};
    case OpKind::Timed: break;
    }
    const std::uint64_t stratum = id.index / kStratum;
    if (stratum != perm_stratum_) {
      perm_.resize(kStratum);
      std::iota(perm_.begin(), perm_.end(), 0);
      for (std::size_t k = kStratum - 1; k > 0; --k) {
        std::swap(perm_[k], perm_[seeded(seed_, kOrder, stratum, k) % (k + 1)]);
      }
      perm_stratum_ = stratum;
    }
    const std::size_t combo = perm_[id.index % kStratum];
    const std::size_t res_slot = combo / kShapes % 10;
    const std::size_t api_slot = combo / (kShapes * 10);
    return {combo % kShapes,
            res_slot < 8    ? Residency::DeviceStrided
            : res_slot == 8 ? Residency::DeviceContiguous
                            : Residency::Host,
            api_slot < 2    ? Api::Blocking
            : api_slot == 2 ? Api::Nonblocking
                            : Api::Persistent};
  }

  void *buffer(const P2POp &o) {
    return o.res == Residency::Host
               ? static_cast<void *>(host_[o.shape].get())
               : static_cast<void *>(device_[o.shape]);
  }
  int count(const P2POp &o) const {
    return o.res == Residency::DeviceContiguous
               ? static_cast<int>(p2p_shape(o.shape).packed())
               : 1;
  }
  MPI_Datatype type(const P2POp &o) const {
    return o.res == Residency::DeviceContiguous ? MPI_BYTE : types_[o.shape];
  }
  static int tag(const P2POp &o) {
    return 1 + static_cast<int>(o.shape * kResidencies +
                                static_cast<std::size_t>(o.res));
  }

  std::uint64_t seed_;
  int thread_;
  std::vector<MPI_Datatype> types_;
  std::vector<std::uint8_t *> device_;
  std::vector<std::unique_ptr<std::uint8_t[]>> host_;
  std::vector<MPI_Request> channels_;
  std::vector<std::uint32_t> perm_;
  std::uint64_t perm_stratum_ = ~std::uint64_t{0};
  int ack_ = 0;
};

// --- hotpath_mt ---------------------------------------------------------------

constexpr Strided kHotShape{8, 128}; // 1 KiB of 8 B runs

/// One plain thread with its own single-rank world hammering the request
/// engine and the persistent fast path with self-traffic.
class HotpathRank final : public Rank {
public:
  HotpathRank(std::uint64_t seed, int thread) : seed_(seed), thread_(thread) {
    for (std::uint8_t *&p : bufs_) {
      p = static_cast<std::uint8_t *>(device_alloc(kHotShape.extent()));
    }
  }
  ~HotpathRank() override {
    MPI_Request_free(&channels_[0]);
    MPI_Request_free(&channels_[1]);
    MPI_Type_free(&type_);
    for (std::uint8_t *p : bufs_) {
      vcuda::Free(p);
    }
  }
  HotpathRank(const HotpathRank &) = delete;
  HotpathRank &operator=(const HotpathRank &) = delete;

  void connect() override {
    type_ = commit_vector(kHotShape);
    MPI_Recv_init(bufs_[2], 1, type_, 0, thread_ + 4096, MPI_COMM_WORLD,
                  &channels_[0]);
    MPI_Send_init(bufs_[0], 1, type_, 0, thread_ + 4096, MPI_COMM_WORLD,
                  &channels_[1]);
  }

  Latency op(OpId) override {
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
    MPI_Irecv(bufs_[1], 1, type_, 0, thread_, MPI_COMM_WORLD, &reqs[0]);
    MPI_Isend(bufs_[0], 1, type_, 0, thread_, MPI_COMM_WORLD, &reqs[1]);
    MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE);
    set_wait_kind(WaitKind::Persistent);
    MPI_Start(&channels_[0]);
    MPI_Start(&channels_[1]);
    MPI_Waitall(2, channels_.data(), MPI_STATUSES_IGNORE);
    set_wait_kind(WaitKind::Engine);
    return static_cast<Latency>(vcuda::virtual_now() - t0);
  }

  [[nodiscard]] std::uint64_t warmup_ops() const override { return 256; }

  void prepare(std::uint64_t i) override {
    fill_strided(bufs_[0], kHotShape, false, seed_, i, thread_);
    std::memset(bufs_[1], kPoison, kHotShape.extent());
    std::memset(bufs_[2], kPoison, kHotShape.extent());
  }

  bool verify(std::uint64_t i) override {
    return check_strided(bufs_[1], kHotShape, false, seed_, i, thread_) &&
           check_strided(bufs_[2], kHotShape, false, seed_, i, thread_);
  }

private:
  std::uint64_t seed_;
  int thread_;
  MPI_Datatype type_ = nullptr;
  std::array<std::uint8_t *, 3> bufs_{}; ///< send, Irecv target, channel target
  std::array<MPI_Request, 2> channels_{MPI_REQUEST_NULL, MPI_REQUEST_NULL};
};

} // namespace

std::uint64_t seeded(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t a, std::uint64_t b) {
  return mix64(seed ^ mix64(stream ^ mix64(a ^ mix64(b))));
}

bool verified(std::uint64_t seed, std::uint64_t i) {
  return seeded(seed, kSample, i) % 64 == 0;
}

std::unique_ptr<Rank> make_halo_rank(std::uint64_t seed, HaloPath path) {
  return std::make_unique<HaloRank>(seed, path);
}

std::unique_ptr<Rank> make_p2p_rank(std::uint64_t seed, int thread) {
  return std::make_unique<P2PRank>(seed, thread);
}

std::unique_ptr<Rank> make_hotpath_rank(std::uint64_t seed, int thread) {
  return std::make_unique<HotpathRank>(seed, thread);
}

std::vector<Operand> p2p_operands() {
  std::vector<Operand> out;
  for (std::size_t s = 0; s < kShapes; ++s) {
    out.emplace_back(p2p_shape(s).block, p2p_shape(s).packed());
  }
  return out;
}

std::vector<Operand> hotpath_operands() {
  return {{kHotShape.block, kHotShape.packed()}};
}

std::size_t halo_bytes() {
  std::size_t total = 0;
  for (const Operand &o : halo_operands()) {
    total += o.second;
  }
  return total;
}

std::vector<Operand> halo_operands() {
  const halo::Config c = halo_config();
  const std::size_t word = c.vals * sizeof(double);
  std::vector<Operand> out;
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) {
          continue;
        }
        const auto span = [&c](int d, int n) {
          return static_cast<std::size_t>(d == 0 ? n : c.radius);
        };
        const std::size_t block = span(dx, c.nx) * word;
        out.emplace_back(block, block * span(dy, c.ny) * span(dz, c.nz));
      }
    }
  }
  return out;
}

} // namespace bm
