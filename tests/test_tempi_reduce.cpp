// The reduction engine (tempi/reduce.*): device combine kernels vs a
// host reference across the op x word matrix, engine-vs-system bitwise
// equivalence for named datatypes (including mixed engine/system ranks in
// one call), derived-datatype correctness against an elementwise oracle
// under every schedule, floating-point schedule determinism, MPI_IN_PLACE,
// zero counts, self-only comms, the TEMPI_RED kill-switch, the
// fig16-scale 256-rank case, and repeated calls that replay a recorded
// schedule.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/kernels.hpp"
#include "tempi/packer.hpp"
#include "tempi/reduce.hpp"
#include "tempi/tempi.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace {

using testing_helpers::counter;
using testing_helpers::reference_pack;
using testing_helpers::reference_unpack;
using testing_helpers::SpaceBuffer;

using tempi::ReduceOp;
using tempi::ReduceWord;
using tempi::red::Schedule;

// --- device combine kernels --------------------------------------------------

template <typename T> T host_combine(ReduceOp op, T a, T b) {
  switch (op) {
  case ReduceOp::Sum: return static_cast<T>(a + b);
  case ReduceOp::Prod: return static_cast<T>(a * b);
  case ReduceOp::Min: return b < a ? b : a;
  case ReduceOp::Max: return a < b ? b : a;
  default: break;
  }
  if constexpr (std::is_integral_v<T>) {
    switch (op) {
    case ReduceOp::Lor: return static_cast<T>((a != 0) || (b != 0) ? 1 : 0);
    case ReduceOp::Land: return static_cast<T>((a != 0) && (b != 0) ? 1 : 0);
    case ReduceOp::Bor: return static_cast<T>(a | b);
    case ReduceOp::Band: return static_cast<T>(a & b);
    default: break;
    }
  }
  return a;
}

template <typename T> ReduceWord word_of();
template <> ReduceWord word_of<std::int32_t>() { return ReduceWord::I32; }
template <> ReduceWord word_of<std::int64_t>() { return ReduceWord::I64; }
template <> ReduceWord word_of<float>() { return ReduceWord::F32; }
template <> ReduceWord word_of<double>() { return ReduceWord::F64; }

template <typename T> void check_kernel_op(ReduceOp op) {
  constexpr std::size_t kCount = 257; // odd: off any block-size multiple
  SpaceBuffer inout(vcuda::MemorySpace::Device, kCount * sizeof(T));
  SpaceBuffer in(vcuda::MemorySpace::Device, kCount * sizeof(T));
  std::vector<T> a(kCount), b(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    // Small signed values: exact in every word type, mix of zeros and
    // negatives so the logical ops see both truth values.
    a[i] = static_cast<T>(static_cast<int>(i % 7) - 3);
    b[i] = static_cast<T>(static_cast<int>(i % 5) - 2);
  }
  std::memcpy(inout.get(), a.data(), kCount * sizeof(T));
  std::memcpy(in.get(), b.data(), kCount * sizeof(T));
  ASSERT_EQ(tempi::launch_reduce(op, word_of<T>(), inout.get(), in.get(),
                                 kCount, vcuda::default_stream()),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());
  std::vector<T> got(kCount);
  std::memcpy(got.data(), inout.get(), kCount * sizeof(T));
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i], host_combine<T>(op, a[i], b[i]))
        << "op " << static_cast<int>(op) << " index " << i;
  }
}

TEST(ReduceKernels, OpWordMatrixMatchesHostReference) {
  const ReduceOp all[] = {ReduceOp::Sum,  ReduceOp::Prod, ReduceOp::Min,
                          ReduceOp::Max,  ReduceOp::Lor,  ReduceOp::Land,
                          ReduceOp::Bor,  ReduceOp::Band};
  const ReduceOp arith[] = {ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min,
                            ReduceOp::Max};
  for (ReduceOp op : all) {
    check_kernel_op<std::int32_t>(op);
    check_kernel_op<std::int64_t>(op);
  }
  for (ReduceOp op : arith) {
    check_kernel_op<float>(op);
    check_kernel_op<double>(op);
  }
}

TEST(ReduceKernels, FloatingWordsRejectLogicalAndBitwiseOps) {
  SpaceBuffer buf(vcuda::MemorySpace::Device, 64);
  for (ReduceOp op :
       {ReduceOp::Lor, ReduceOp::Land, ReduceOp::Bor, ReduceOp::Band}) {
    EXPECT_EQ(tempi::launch_reduce(op, ReduceWord::F32, buf.get(), buf.get(),
                                   4, vcuda::default_stream()),
              vcuda::Error::InvalidValue);
    EXPECT_EQ(tempi::launch_reduce(op, ReduceWord::F64, buf.get(), buf.get(),
                                   4, vcuda::default_stream()),
              vcuda::Error::InvalidValue);
  }
}

TEST(ReduceKernels, SpanCombineMatchesContiguousReference) {
  // launch_reduce_spans must fold a packed stream into the strided
  // objects exactly like unpack + elementwise combine would.
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  MPI_Datatype t = nullptr;
  MPI_Type_vector(8, 4, 12, MPI_INT, &t);
  MPI_Type_commit(&t);
  const auto packer = tempi::find_packer(t);
  ASSERT_NE(packer, nullptr);
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_get_extent(t, &lb, &extent);
  constexpr int kObjects = 3;
  const std::size_t packed = packer->packed_bytes(kObjects);
  const std::size_t words = packed / sizeof(std::int32_t);

  SpaceBuffer obj(vcuda::MemorySpace::Device,
                  kObjects * static_cast<std::size_t>(extent) + 64);
  SpaceBuffer stream(vcuda::MemorySpace::Device, packed);
  std::vector<std::int32_t> base(words), addend(words);
  for (std::size_t i = 0; i < words; ++i) {
    base[i] = static_cast<std::int32_t>(i) * 3 + 1;
    addend[i] = 1000 - static_cast<std::int32_t>(i);
  }
  std::memset(obj.get(), 0, obj.size());
  {
    std::vector<std::byte> seed(packed);
    std::memcpy(seed.data(), base.data(), packed);
    reference_unpack(obj.get(), kObjects, *t, seed);
  }
  std::memcpy(stream.get(), addend.data(), packed);
  const tempi::PackSpan span{0, 0, kObjects};
  ASSERT_EQ(tempi::launch_reduce_spans(
                ReduceOp::Sum, ReduceWord::I32, packer->plan(),
                packer->block(), packer->type_extent(), obj.get(),
                stream.get(), std::span<const tempi::PackSpan>(&span, 1),
                vcuda::default_stream()),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());
  const std::vector<std::byte> out = reference_pack(obj.get(), kObjects, *t);
  ASSERT_EQ(out.size(), packed);
  std::vector<std::int32_t> got(words);
  std::memcpy(got.data(), out.data(), packed);
  for (std::size_t i = 0; i < words; ++i) {
    ASSERT_EQ(got[i], base[i] + addend[i]) << "word " << i;
  }
  MPI_Type_free(&t);
}

// --- shared run harnesses ----------------------------------------------------

vcuda::MemorySpace all_device(int) { return vcuda::MemorySpace::Device; }

/// One MPI_Allreduce of `count` T elements on `ranks` ranks; returns
/// every rank's raw result bytes (memcmp-strict: float comparisons here
/// mean bitwise agreement, not approximate equality).
template <typename T>
std::vector<std::vector<std::byte>>
run_allreduce_named(bool engine, int ranks, int rpn, MPI_Datatype dt,
                    MPI_Op op, int count, bool in_place,
                    const std::function<vcuda::MemorySpace(int)> &space,
                    const std::function<T(int, int)> &value) {
  tempi::red::set_enabled(engine);
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    SpaceBuffer sbuf(space(rank), bytes + 8);
    SpaceBuffer rbuf(space(rank), bytes + 8);
    std::vector<T> vals(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      vals[static_cast<std::size_t>(i)] = value(rank, i);
    }
    std::memcpy(sbuf.get(), vals.data(), bytes);
    std::memset(rbuf.get(), 0xAA, rbuf.size());
    if (in_place) {
      std::memcpy(rbuf.get(), vals.data(), bytes);
    }
    ASSERT_EQ(MPI_Allreduce(in_place ? MPI_IN_PLACE : sbuf.get(), rbuf.get(),
                            count, dt, op, MPI_COMM_WORLD),
              MPI_SUCCESS);
    out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                               rbuf.bytes() + bytes);
    MPI_Finalize();
  });
  tempi::red::set_enabled(true);
  return out;
}

/// A nested strided derived type over one uniform named `base` — the
/// shape family the engine admits. Seeded so every rank builds the same
/// type.
MPI_Datatype uniform_strided_type(std::mt19937 &gen, MPI_Datatype base) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen);
  };
  MPI_Datatype inner = nullptr;
  MPI_Type_vector(pick(2, 5), pick(1, 3), pick(4, 7), base, &inner);
  MPI_Datatype outer = nullptr;
  MPI_Type_contiguous(pick(1, 3), inner, &outer);
  MPI_Type_free(&inner);
  MPI_Type_commit(&outer);
  return outer;
}

/// One derived-datatype MPI_Allreduce under `forced`, validated against
/// the elementwise oracle (sum over ranks at every packed element slot).
/// `space(rank)` mixes Fused (device) and Host mode ranks in one call.
void run_allreduce_derived_int(
    int ranks, int rpn, unsigned seed, Schedule forced, bool in_place,
    const std::function<vcuda::MemorySpace(int)> &space) {
  tempi::red::set_forced_schedule(forced);
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    std::mt19937 gen(seed);
    MPI_Datatype t = uniform_strided_type(gen, MPI_INT);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const int count = 3;
    const std::size_t packed = static_cast<std::size_t>(t->size) * count;
    const std::size_t words = packed / sizeof(std::int32_t);
    SpaceBuffer sbuf(space(rank),
                     static_cast<std::size_t>(extent) * count + 64);
    SpaceBuffer rbuf(space(rank),
                     static_cast<std::size_t>(extent) * count + 64);
    std::vector<std::int32_t> mine(words);
    for (std::size_t i = 0; i < words; ++i) {
      mine[i] = rank * 1000 + static_cast<std::int32_t>(i);
    }
    std::vector<std::byte> stream(packed);
    std::memcpy(stream.data(), mine.data(), packed);
    std::memset(sbuf.get(), 0x55, sbuf.size());
    std::memset(rbuf.get(), 0xAA, rbuf.size());
    if (in_place) {
      reference_unpack(rbuf.get(), count, *t, stream);
    } else {
      reference_unpack(sbuf.get(), count, *t, stream);
    }
    ASSERT_EQ(MPI_Allreduce(in_place ? MPI_IN_PLACE : sbuf.get(), rbuf.get(),
                            count, t, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    const std::vector<std::byte> out = reference_pack(rbuf.get(), count, *t);
    std::vector<std::int32_t> got(words);
    std::memcpy(got.data(), out.data(), packed);
    for (std::size_t i = 0; i < words; ++i) {
      std::int32_t want = 0;
      for (int r = 0; r < ranks; ++r) {
        want += r * 1000 + static_cast<std::int32_t>(i);
      }
      ASSERT_EQ(got[i], want)
          << "rank " << rank << " word " << i << " schedule "
          << tempi::red::schedule_name(forced);
    }
    // The unpack writes only the type's data blocks: the gap bytes of a
    // non-in-place recvbuf keep their sentinel.
    if (!in_place) {
      std::vector<std::byte> gaps(static_cast<std::size_t>(extent) * count,
                                  std::byte{0xAA});
      reference_unpack(gaps.data(), count, *t, out);
      EXPECT_EQ(std::memcmp(gaps.data(), rbuf.get(), gaps.size()), 0);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::red::set_forced_schedule(Schedule::Auto);
}

// --- named-datatype equivalence (engine vs system, bitwise) ------------------

TEST(Reduce, NamedAllreduceMatchesSystemBitwise) {
  tempi::ScopedInterposer guard;
  const auto ints = [](int r, int i) {
    return static_cast<std::int32_t>((r + 1) * (i + 3) - 7);
  };
  const auto dbls = [](int r, int i) {
    return 1.0 / (r + 1) + 1e-9 * i; // association-sensitive
  };
  const auto e1 = run_allreduce_named<std::int32_t>(
      true, 4, 2, MPI_INT, MPI_SUM, 19, false, all_device, ints);
  const auto s1 = run_allreduce_named<std::int32_t>(
      false, 4, 2, MPI_INT, MPI_SUM, 19, false, all_device, ints);
  EXPECT_EQ(e1, s1);
  // Doubles: the engine's named linear schedule replays the system
  // association order, so even rounding agrees bit for bit.
  const auto e2 = run_allreduce_named<double>(
      true, 5, 2, MPI_DOUBLE, MPI_SUM, 33, false, all_device, dbls);
  const auto s2 = run_allreduce_named<double>(
      false, 5, 2, MPI_DOUBLE, MPI_SUM, 33, false, all_device, dbls);
  EXPECT_EQ(e2, s2);
  const auto e3 = run_allreduce_named<std::int32_t>(
      true, 4, 2, MPI_INT, MPI_BOR, 8, false, all_device, ints);
  const auto s3 = run_allreduce_named<std::int32_t>(
      false, 4, 2, MPI_INT, MPI_BOR, 8, false, all_device, ints);
  EXPECT_EQ(e3, s3);
}

TEST(Reduce, NamedAllreduceInPlaceMatchesSystem) {
  tempi::ScopedInterposer guard;
  const auto vals = [](int r, int i) {
    return static_cast<std::int32_t>(r * 31 + i);
  };
  const auto engine = run_allreduce_named<std::int32_t>(
      true, 4, 2, MPI_INT, MPI_MAX, 11, true, all_device, vals);
  const auto system = run_allreduce_named<std::int32_t>(
      false, 4, 2, MPI_INT, MPI_MAX, 11, true, all_device, vals);
  EXPECT_EQ(engine, system);
}

TEST(Reduce, MixedEngineAndSystemRanksInteroperate) {
  // Per-rank contract on named types: rank 0 keeps host buffers and rides
  // the system path while the others enter the engine — one collective,
  // bitwise-equal results everywhere.
  tempi::ScopedInterposer guard;
  const auto space = [](int rank) {
    return rank == 0 ? vcuda::MemorySpace::Pageable
                     : vcuda::MemorySpace::Device;
  };
  const auto vals = [](int r, int i) {
    return 0.5 * (r + 1) + 1e-8 * (i + 1);
  };
  const auto mixed = run_allreduce_named<double>(
      true, 4, 2, MPI_DOUBLE, MPI_SUM, 21, false, space, vals);
  const auto system = run_allreduce_named<double>(
      false, 4, 2, MPI_DOUBLE, MPI_SUM, 21, false, space, vals);
  EXPECT_EQ(mixed, system);
}

TEST(Reduce, NamedAllreduceMatchesSystemAt256Ranks32Nodes) {
  tempi::ScopedInterposer guard;
  const auto vals = [](int r, int i) {
    return 1.0 / (r + 1) + 1e-12 * i;
  };
  const auto engine = run_allreduce_named<double>(
      true, 256, 8, MPI_DOUBLE, MPI_SUM, 5, false, all_device, vals);
  const auto system = run_allreduce_named<double>(
      false, 256, 8, MPI_DOUBLE, MPI_SUM, 5, false, all_device, vals);
  ASSERT_EQ(engine.size(), system.size());
  for (std::size_t r = 0; r < engine.size(); ++r) {
    ASSERT_EQ(engine[r], system[r]) << "rank " << r;
  }
}

// --- derived-datatype engine (every rank in the engine) ----------------------

TEST(Reduce, DerivedAllreduceMatchesOracleUnderEverySchedule) {
  tempi::ScopedInterposer guard;
  for (Schedule s : {Schedule::Auto, Schedule::Linear, Schedule::Ring,
                     Schedule::Doubling}) {
    // P = 5: non-power-of-two, so recursive doubling exercises the
    // extra-rank pre/post exchanges.
    run_allreduce_derived_int(5, 2, 42u, s, false, all_device);
  }
}

TEST(Reduce, DerivedAllreduceHostModeRanksMatchOracle) {
  // Derived types have no functioning system path, so host-resident
  // ranks run the engine in Host mode (baseline pack + apply_reduce) —
  // same packed wire, same result.
  tempi::ScopedInterposer guard;
  const auto space = [](int rank) {
    return rank % 2 == 0 ? vcuda::MemorySpace::Pageable
                         : vcuda::MemorySpace::Device;
  };
  run_allreduce_derived_int(4, 2, 7u, Schedule::Ring, false, space);
  run_allreduce_derived_int(4, 2, 7u, Schedule::Doubling, false, space);
}

TEST(Reduce, DerivedAllreduceInPlaceMatchesOracle) {
  tempi::ScopedInterposer guard;
  run_allreduce_derived_int(4, 2, 9u, Schedule::Ring, true, all_device);
  run_allreduce_derived_int(4, 2, 9u, Schedule::Linear, true, all_device);
}

TEST(Reduce, SelfOnlyCommAndZeroCount) {
  tempi::ScopedInterposer guard;
  // P = 1 under every schedule: the engine degenerates to pack + unpack.
  for (Schedule s : {Schedule::Linear, Schedule::Ring, Schedule::Doubling}) {
    run_allreduce_derived_int(1, 1, 3u, s, false, all_device);
  }
  // A zero-count derived call must consume its collective-sequence slots
  // so a following reduction still pairs correctly.
  sysmpi::RunConfig cfg;
  cfg.ranks = 3;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(4, 2, 5, MPI_INT, &t);
    MPI_Type_commit(&t);
    SpaceBuffer buf(vcuda::MemorySpace::Device, 256);
    ASSERT_EQ(MPI_Allreduce(buf.get(), buf.bytes() + 128, 0, t, MPI_SUM,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    std::int32_t v = rank + 1;
    std::int32_t sum = 0;
    SpaceBuffer dv(vcuda::MemorySpace::Device, sizeof(v));
    SpaceBuffer dsum(vcuda::MemorySpace::Device, sizeof(sum));
    std::memcpy(dv.get(), &v, sizeof(v));
    ASSERT_EQ(MPI_Allreduce(dv.get(), dsum.get(), 1, MPI_INT, MPI_SUM,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    std::memcpy(&sum, dsum.get(), sizeof(sum));
    EXPECT_EQ(sum, 6);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

// --- floating-point schedule ordering ----------------------------------------

/// One forced-schedule float-SUM allreduce over a derived type; returns
/// rank 0's packed result bytes.
std::vector<std::byte> float_sum_once(Schedule forced, unsigned seed) {
  tempi::red::set_forced_schedule(forced);
  std::vector<std::byte> out;
  sysmpi::RunConfig cfg;
  cfg.ranks = 8;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 9, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const std::size_t packed = static_cast<std::size_t>(t->size);
    const std::size_t words = packed / sizeof(float);
    std::mt19937 gen(seed + static_cast<unsigned>(rank) * 977u);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> mine(words);
    for (auto &f : mine) {
      f = dist(gen);
    }
    std::vector<std::byte> stream(packed);
    std::memcpy(stream.data(), mine.data(), packed);
    SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) + 64);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) + 64);
    std::memset(sbuf.get(), 0, sbuf.size());
    std::memset(rbuf.get(), 0, rbuf.size());
    reference_unpack(sbuf.get(), 1, *t, stream);
    ASSERT_EQ(MPI_Allreduce(sbuf.get(), rbuf.get(), 1, t, MPI_SUM,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    if (rank == 0) {
      out = reference_pack(rbuf.get(), 1, *t);
    }
    // Every schedule is rank-symmetric for allreduce: all ranks must
    // agree bitwise. Verify by reducing the packed result again with a
    // bitwise op over named ints.
    const std::vector<std::byte> me = reference_pack(rbuf.get(), 1, *t);
    std::vector<std::int32_t> words32(words);
    std::memcpy(words32.data(), me.data(), packed);
    SpaceBuffer din(vcuda::MemorySpace::Device, packed);
    SpaceBuffer dmin(vcuda::MemorySpace::Device, packed);
    SpaceBuffer dmax(vcuda::MemorySpace::Device, packed);
    std::memcpy(din.get(), words32.data(), packed);
    ASSERT_EQ(MPI_Allreduce(din.get(), dmin.get(),
                            static_cast<int>(words), MPI_INT, MPI_MIN,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Allreduce(din.get(), dmax.get(),
                            static_cast<int>(words), MPI_INT, MPI_MAX,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(std::memcmp(dmin.get(), dmax.get(), packed), 0)
        << "ranks disagree bitwise under "
        << tempi::red::schedule_name(forced);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::red::set_forced_schedule(Schedule::Auto);
  return out;
}

TEST(Reduce, FloatSumSchedulesDeterministicButAssociationDiffers) {
  tempi::ScopedInterposer guard;
  const auto ring1 = float_sum_once(Schedule::Ring, 101u);
  const auto ring2 = float_sum_once(Schedule::Ring, 101u);
  const auto dbl1 = float_sum_once(Schedule::Doubling, 101u);
  const auto dbl2 = float_sum_once(Schedule::Doubling, 101u);
  // Same schedule, same inputs: bitwise reproducible.
  EXPECT_EQ(ring1, ring2);
  EXPECT_EQ(dbl1, dbl2);
  // Different association order: the 8-rank random sums round
  // differently somewhere in the 64 elements.
  EXPECT_NE(ring1, dbl1);
  // Both stay within float tolerance of the double-precision reference.
  const std::size_t words = ring1.size() / sizeof(float);
  std::vector<float> ringf(words), dblf(words);
  std::memcpy(ringf.data(), ring1.data(), ring1.size());
  std::memcpy(dblf.data(), dbl1.data(), dbl1.size());
  for (std::size_t i = 0; i < words; ++i) {
    double want = 0.0;
    for (int r = 0; r < 8; ++r) {
      std::mt19937 gen(101u + static_cast<unsigned>(r) * 977u);
      std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
      float v = 0.0f;
      for (std::size_t j = 0; j <= i; ++j) {
        v = dist(gen);
      }
      want += v;
    }
    EXPECT_NEAR(ringf[i], want, 1e-4) << "element " << i;
    EXPECT_NEAR(dblf[i], want, 1e-4) << "element " << i;
  }
}

// --- MPI_Reduce --------------------------------------------------------------

TEST(Reduce, NamedReduceMatchesSystemBitwise) {
  tempi::ScopedInterposer guard;
  std::vector<std::byte> results[2];
  for (const bool engine : {true, false}) {
    tempi::red::set_enabled(engine);
    auto &root_out = results[engine ? 0 : 1];
    sysmpi::RunConfig cfg;
    cfg.ranks = 5;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      constexpr int kCount = 17;
      constexpr int kRoot = 2;
      const std::size_t bytes = kCount * sizeof(double);
      SpaceBuffer sbuf(vcuda::MemorySpace::Device, bytes);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device, bytes);
      std::vector<double> vals(kCount);
      for (int i = 0; i < kCount; ++i) {
        vals[static_cast<std::size_t>(i)] = 1.0 / (rank + 2) + 1e-10 * i;
      }
      std::memcpy(sbuf.get(), vals.data(), bytes);
      std::memset(rbuf.get(), 0xCC, bytes);
      const bool in_place = rank == kRoot;
      if (in_place) {
        std::memcpy(rbuf.get(), vals.data(), bytes);
      }
      ASSERT_EQ(MPI_Reduce(in_place ? MPI_IN_PLACE : sbuf.get(), rbuf.get(),
                           kCount, MPI_DOUBLE, MPI_SUM, kRoot,
                           MPI_COMM_WORLD),
                MPI_SUCCESS);
      if (rank == kRoot) {
        root_out.assign(rbuf.bytes(), rbuf.bytes() + bytes);
      } else {
        // Non-root recvbuf is not a significant argument: untouched.
        std::vector<std::byte> sentinel(bytes, std::byte{0xCC});
        EXPECT_EQ(std::memcmp(rbuf.get(), sentinel.data(), bytes), 0);
      }
      MPI_Finalize();
    });
  }
  tempi::red::set_enabled(true);
  EXPECT_EQ(results[0], results[1]);
}

TEST(Reduce, DerivedReduceMatchesOracleBothSchedules) {
  tempi::ScopedInterposer guard;
  for (Schedule s : {Schedule::Linear, Schedule::Doubling}) {
    tempi::red::set_forced_schedule(s);
    sysmpi::RunConfig cfg;
    cfg.ranks = 6;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      std::mt19937 gen(55u);
      MPI_Datatype t = uniform_strided_type(gen, MPI_INT);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      constexpr int kCount = 2;
      constexpr int kRoot = 3;
      const std::size_t packed = static_cast<std::size_t>(t->size) * kCount;
      const std::size_t words = packed / sizeof(std::int32_t);
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) * kCount + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) * kCount + 64);
      std::vector<std::int32_t> mine(words);
      for (std::size_t i = 0; i < words; ++i) {
        mine[i] = (rank + 1) * 100 - static_cast<std::int32_t>(i);
      }
      std::vector<std::byte> stream(packed);
      std::memcpy(stream.data(), mine.data(), packed);
      std::memset(sbuf.get(), 0, sbuf.size());
      std::memset(rbuf.get(), 0, rbuf.size());
      reference_unpack(sbuf.get(), kCount, *t, stream);
      ASSERT_EQ(MPI_Reduce(sbuf.get(), rbuf.get(), kCount, t, MPI_SUM, kRoot,
                           MPI_COMM_WORLD),
                MPI_SUCCESS);
      if (rank == kRoot) {
        const std::vector<std::byte> out =
            reference_pack(rbuf.get(), kCount, *t);
        std::vector<std::int32_t> got(words);
        std::memcpy(got.data(), out.data(), packed);
        for (std::size_t i = 0; i < words; ++i) {
          std::int32_t want = 0;
          for (int r = 0; r < 6; ++r) {
            want += (r + 1) * 100 - static_cast<std::int32_t>(i);
          }
          ASSERT_EQ(got[i], want) << "word " << i;
        }
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
    tempi::red::set_forced_schedule(Schedule::Auto);
  }
}

// --- MPI_Reduce_scatter(_block) ----------------------------------------------

TEST(Reduce, NamedReduceScatterMatchesSystemBitwise) {
  tempi::ScopedInterposer guard;
  // With host buffers the zero-segment rank runs the system path, which
  // still waits for its zero-count segment from the engine root.
  for (const bool host_zero_rank : {false, true}) {
    std::vector<std::vector<std::byte>> results[2];
    for (const bool engine : {true, false}) {
      tempi::red::set_enabled(engine);
      auto &out = results[engine ? 0 : 1];
      out.assign(4, {});
      sysmpi::RunConfig cfg;
      cfg.ranks = 4;
      cfg.ranks_per_node = 2;
      sysmpi::run_ranks(cfg, [&](int rank) {
        MPI_Init(nullptr, nullptr);
        const int recvcounts[4] = {3, 0, 5, 2}; // a zero-segment rank
        const int total = 10;
        const std::size_t bytes = total * sizeof(double);
        const vcuda::MemorySpace space = host_zero_rank && rank == 1
                                             ? vcuda::MemorySpace::Pageable
                                             : vcuda::MemorySpace::Device;
        SpaceBuffer sbuf(space, bytes);
        SpaceBuffer rbuf(space, bytes + 8);
        std::vector<double> vals(total);
        for (int i = 0; i < total; ++i) {
          vals[static_cast<std::size_t>(i)] = 1.0 / (rank + 1) + 1e-9 * i;
        }
        std::memcpy(sbuf.get(), vals.data(), bytes);
        std::memset(rbuf.get(), 0, rbuf.size());
        ASSERT_EQ(MPI_Reduce_scatter(sbuf.get(), rbuf.get(), recvcounts,
                                     MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        out[static_cast<std::size_t>(rank)].assign(
            rbuf.bytes(),
            rbuf.bytes() + static_cast<std::size_t>(recvcounts[rank]) *
                               sizeof(double));
        MPI_Finalize();
      });
    }
    tempi::red::set_enabled(true);
    for (std::size_t r = 0; r < results[0].size(); ++r) {
      EXPECT_EQ(results[0][r], results[1][r])
          << "rank " << r << " host_zero_rank " << host_zero_rank;
    }
  }
}

TEST(Reduce, DerivedReduceScatterMatchesOracleEverySchedule) {
  tempi::ScopedInterposer guard;
  for (Schedule s : {Schedule::Linear, Schedule::Ring, Schedule::Doubling}) {
    tempi::red::set_forced_schedule(s);
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      std::mt19937 gen(77u);
      MPI_Datatype t = uniform_strided_type(gen, MPI_INT);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      const int recvcounts[4] = {2, 0, 3, 1};
      const int total = 6;
      const std::size_t packed = static_cast<std::size_t>(t->size) * total;
      const std::size_t words_per_obj =
          static_cast<std::size_t>(t->size) / sizeof(std::int32_t);
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) * total + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) * total + 64);
      std::vector<std::int32_t> mine(packed / sizeof(std::int32_t));
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = (rank + 2) * 10 + static_cast<std::int32_t>(i);
      }
      std::vector<std::byte> stream(packed);
      std::memcpy(stream.data(), mine.data(), packed);
      std::memset(sbuf.get(), 0, sbuf.size());
      std::memset(rbuf.get(), 0, rbuf.size());
      reference_unpack(sbuf.get(), total, *t, stream);
      ASSERT_EQ(MPI_Reduce_scatter(sbuf.get(), rbuf.get(), recvcounts, t,
                                   MPI_SUM, MPI_COMM_WORLD),
                MPI_SUCCESS);
      int seg_first = 0; // first object index of my segment
      for (int r = 0; r < rank; ++r) {
        seg_first += recvcounts[r];
      }
      const int myn = recvcounts[rank];
      if (myn > 0) {
        const std::vector<std::byte> out =
            reference_pack(rbuf.get(), myn, *t);
        std::vector<std::int32_t> got(out.size() / sizeof(std::int32_t));
        std::memcpy(got.data(), out.data(), out.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          const std::size_t global =
              static_cast<std::size_t>(seg_first) * words_per_obj + i;
          std::int32_t want = 0;
          for (int r = 0; r < 4; ++r) {
            want += (r + 2) * 10 + static_cast<std::int32_t>(global);
          }
          ASSERT_EQ(got[i], want)
              << "rank " << rank << " word " << i << " schedule "
              << tempi::red::schedule_name(s);
        }
      }
      MPI_Type_free(&t);
      MPI_Finalize();
    });
    tempi::red::set_forced_schedule(Schedule::Auto);
  }
}

TEST(Reduce, NamedReduceScatterBlockMatchesSystem) {
  tempi::ScopedInterposer guard;
  std::vector<std::vector<std::byte>> results[2];
  for (const bool engine : {true, false}) {
    tempi::red::set_enabled(engine);
    auto &out = results[engine ? 0 : 1];
    out.assign(4, {});
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      constexpr int kBlock = 3;
      const std::size_t bytes = 4 * kBlock * sizeof(std::int64_t);
      SpaceBuffer sbuf(vcuda::MemorySpace::Device, bytes);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       kBlock * sizeof(std::int64_t));
      std::vector<std::int64_t> vals(4 * kBlock);
      for (std::size_t i = 0; i < vals.size(); ++i) {
        vals[i] = (rank + 1) * 7 + static_cast<std::int64_t>(i);
      }
      std::memcpy(sbuf.get(), vals.data(), bytes);
      std::memset(rbuf.get(), 0, rbuf.size());
      ASSERT_EQ(MPI_Reduce_scatter_block(sbuf.get(), rbuf.get(), kBlock,
                                         MPI_LONG_LONG, MPI_SUM,
                                         MPI_COMM_WORLD),
                MPI_SUCCESS);
      out[static_cast<std::size_t>(rank)].assign(rbuf.bytes(),
                                                 rbuf.bytes() + rbuf.size());
      MPI_Finalize();
    });
  }
  tempi::red::set_enabled(true);
  for (std::size_t r = 0; r < results[0].size(); ++r) {
    EXPECT_EQ(results[0][r], results[1][r]) << "rank " << r;
  }
}

// --- gates, schedules, counters ----------------------------------------------

TEST(Reduce, ScheduleChoiceFlipsAcrossPayloadSizes) {
  tempi::ScopedInterposer guard;
  sysmpi::RunConfig cfg;
  cfg.ranks = 8;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    if (rank == 0) {
      std::vector<Schedule> seen;
      for (std::size_t bytes = 256; bytes <= (64u << 20); bytes <<= 4) {
        seen.push_back(tempi::red::choose_allreduce_schedule(
            bytes, MPI_COMM_WORLD, true));
      }
      // Small payloads avoid the bandwidth-optimal ring; the biggest
      // sweep point rides it. A flip across the sweep is what
      // bench_fig17_allreduce gates on.
      EXPECT_NE(seen.front(), Schedule::Ring);
      EXPECT_EQ(seen.back(), Schedule::Ring);
      // Forcing overrides the model.
      tempi::red::set_forced_schedule(Schedule::Doubling);
      EXPECT_EQ(tempi::red::choose_allreduce_schedule(1u << 22,
                                                      MPI_COMM_WORLD, true),
                Schedule::Doubling);
      tempi::red::set_forced_schedule(Schedule::Auto);
    }
    MPI_Finalize();
  });
}

TEST(Reduce, ShapeGateAdmitsUniformBasesOnly) {
  tempi::ScopedInterposer guard;
  sysmpi::ensure_self_context();
  EXPECT_TRUE(tempi::red::engine_shape_ok(MPI_INT, MPI_SUM));
  EXPECT_TRUE(tempi::red::engine_shape_ok(MPI_DOUBLE, MPI_MIN));
  EXPECT_TRUE(tempi::red::engine_shape_ok(MPI_LONG_LONG, MPI_BAND));
  // Floating-point bitwise/logical ops have no kernel.
  EXPECT_FALSE(tempi::red::engine_shape_ok(MPI_DOUBLE, MPI_BOR));
  EXPECT_FALSE(tempi::red::engine_shape_ok(MPI_FLOAT, MPI_LAND));
  // Sub-word named types have no device word.
  EXPECT_FALSE(tempi::red::engine_shape_ok(MPI_BYTE, MPI_SUM));
  EXPECT_FALSE(tempi::red::engine_shape_ok(MPI_SHORT, MPI_SUM));
  // Derived over a uniform admissible base: ok (given a packer).
  MPI_Datatype vec = nullptr;
  MPI_Type_vector(4, 2, 6, MPI_INT, &vec);
  MPI_Type_commit(&vec);
  EXPECT_TRUE(tempi::red::engine_shape_ok(vec, MPI_SUM));
  EXPECT_FALSE(tempi::red::engine_shape_ok(vec, static_cast<MPI_Op>(nullptr)));
  MPI_Type_free(&vec);
  // Mixed bases: rejected.
  MPI_Datatype mixed = nullptr;
  MPI_Type_vector(4, 2, 6, MPI_SHORT, &mixed);
  MPI_Type_commit(&mixed);
  EXPECT_FALSE(tempi::red::engine_shape_ok(mixed, MPI_SUM));
  MPI_Type_free(&mixed);
}

TEST(Reduce, KillSwitchAndStatsCounters) {
  tempi::ScopedInterposer guard;
  const auto vals = [](int r, int i) {
    return static_cast<std::int32_t>(r + i);
  };
  tempi::trace::reset_counters();
  run_allreduce_named<std::int32_t>(true, 4, 2, MPI_INT, MPI_SUM, 8, false,
                                    all_device, vals);
  EXPECT_EQ(counter("tempi.red.allreduce"), 4u); // one engine entry per rank
  EXPECT_EQ(counter("tempi.red.fallback"), 0u);
  EXPECT_GT(counter("tempi.red.peer_legs"), 0u);
  EXPECT_GT(counter("tempi.red.kernel_launches"), 0u);

  // Engine disabled: the gate forwards and counts fallbacks instead.
  tempi::trace::reset_counters();
  run_allreduce_named<std::int32_t>(false, 4, 2, MPI_INT, MPI_SUM, 8, false,
                                    all_device, vals);
  EXPECT_EQ(counter("tempi.red.allreduce"), 0u);
  EXPECT_EQ(counter("tempi.red.fallback"), 4u);
  EXPECT_EQ(counter("tempi.red.kernel_launches"), 0u);

  // Host-only named buffers: the engine's per-rank residency check
  // forwards each rank.
  tempi::trace::reset_counters();
  const auto host = [](int) { return vcuda::MemorySpace::Pageable; };
  run_allreduce_named<std::int32_t>(true, 2, 1, MPI_INT, MPI_SUM, 8, false,
                                    host, vals);
  EXPECT_EQ(counter("tempi.red.allreduce"), 0u);
  EXPECT_EQ(counter("tempi.red.fallback"), 2u);
}

/// Collective-sequence slots each reduction entry consumes on every rank
/// of a one-node `ranks`-rank comm, over device buffers of `dt` with
/// `count` objects per rank's segment: {Allreduce, Reduce,
/// Reduce_scatter, Reduce_scatter_block} per rank.
std::vector<std::vector<std::uint64_t>>
reduction_tag_slots(bool engine, int ranks, bool derived, int count) {
  tempi::red::set_enabled(engine);
  std::vector<std::vector<std::uint64_t>> out(
      static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = ranks;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = MPI_INT;
    if (derived) {
      MPI_Type_vector(3, 2, 4, MPI_INT, &t);
      MPI_Type_commit(&t);
    }
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const std::size_t bytes = static_cast<std::size_t>(ranks) *
                                  static_cast<std::size_t>(count) *
                                  static_cast<std::size_t>(extent) +
                              64;
    SpaceBuffer sbuf(vcuda::MemorySpace::Device, bytes);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device, bytes);
    std::memset(sbuf.get(), 0, bytes);
    const std::vector<int> counts(static_cast<std::size_t>(ranks), count);
    const auto slots = [](const std::function<int()> &call) {
      const std::uint64_t before = MPI_COMM_WORLD->collective_seq;
      EXPECT_EQ(call(), MPI_SUCCESS);
      return MPI_COMM_WORLD->collective_seq - before;
    };
    auto &mine = out[static_cast<std::size_t>(rank)];
    mine.push_back(slots([&] {
      return MPI_Allreduce(sbuf.get(), rbuf.get(), ranks * count, t, MPI_SUM,
                           MPI_COMM_WORLD);
    }));
    mine.push_back(slots([&] {
      return MPI_Reduce(sbuf.get(), rbuf.get(), ranks * count, t, MPI_SUM,
                        ranks - 1, MPI_COMM_WORLD);
    }));
    mine.push_back(slots([&] {
      return MPI_Reduce_scatter(sbuf.get(), rbuf.get(), counts.data(), t,
                                MPI_SUM, MPI_COMM_WORLD);
    }));
    mine.push_back(slots([&] {
      return MPI_Reduce_scatter_block(sbuf.get(), rbuf.get(), count, t,
                                      MPI_SUM, MPI_COMM_WORLD);
    }));
    if (derived) {
      MPI_Type_free(&t);
    }
    MPI_Finalize();
  });
  tempi::red::set_enabled(true);
  return out;
}

TEST(Reduce, EveryEntryConsumesItsTagBudget) {
  // Named engine ranks mix with system-path ranks, so they must consume
  // the system's slots; derived calls have no system path and consume
  // the documented budget (allreduce / reduce-scatter 2, reduce 1) under
  // every schedule, zero counts included.
  tempi::ScopedInterposer guard;
  const std::vector<std::uint64_t> derived_budget{2, 1, 2, 2};
  for (const int ranks : {1, 3, 4}) {
    for (const int count : {0, 2}) {
      for (Schedule s : {Schedule::Auto, Schedule::Linear, Schedule::Ring,
                         Schedule::Doubling}) {
        tempi::red::set_forced_schedule(s);
        tempi::trace::reset_counters();
        const auto named = reduction_tag_slots(true, ranks, false, count);
        if (count > 0) {
          EXPECT_EQ(counter("tempi.red.allreduce"),
                    static_cast<std::uint64_t>(ranks));
        }
        const auto system = reduction_tag_slots(false, ranks, false, count);
        const auto derived = reduction_tag_slots(true, ranks, true, count);
        for (std::size_t r = 0; r < named.size(); ++r) {
          const std::string where =
              std::to_string(ranks) + " ranks, count " +
              std::to_string(count) + ", rank " + std::to_string(r) +
              ", schedule " + tempi::red::schedule_name(s);
          EXPECT_EQ(named[r], system[r]) << where;
          EXPECT_EQ(derived[r], derived_budget) << where;
        }
      }
    }
  }
  tempi::red::set_forced_schedule(Schedule::Auto);
}

TEST(Reduce, DoublingLeasesOnlyTheBuffersEachRankTouches) {
  // Ranks above the largest power of two only ship their contribution to
  // a partner and take the result back: they lease the accumulator and
  // no combine scratch. Every other rank leases both.
  tempi::ScopedInterposer guard;
  tempi::red::set_forced_schedule(Schedule::Doubling);
  for (const int ranks : {3, 6}) {
    const int p2 = ranks == 3 ? 2 : 4;
    sysmpi::RunConfig cfg;
    cfg.ranks = ranks;
    cfg.ranks_per_node = ranks;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      MPI_Datatype t = nullptr;
      MPI_Type_vector(4, 2, 5, MPI_INT, &t);
      MPI_Type_commit(&t);
      MPI_Aint lb = 0, extent = 0;
      MPI_Type_get_extent(t, &lb, &extent);
      constexpr int kCount = 2;
      SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) * kCount + 64);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                       static_cast<std::size_t>(extent) * kCount + 64);
      std::memset(sbuf.get(), 0, sbuf.size());
      tempi::reset_buffer_cache_stats();
      ASSERT_EQ(MPI_Allreduce(sbuf.get(), rbuf.get(), kCount, t, MPI_SUM,
                              MPI_COMM_WORLD),
                MPI_SUCCESS);
      const tempi::BufferCacheStats st = tempi::buffer_cache_stats();
      EXPECT_EQ(st.hits + st.misses, rank < p2 ? 2u : 1u)
          << ranks << " ranks, rank " << rank;
      MPI_Type_free(&t);
      MPI_Finalize();
    });
  }
  tempi::red::set_forced_schedule(Schedule::Auto);
}

// --- repeated calls replay their recorded schedule --------------------------

/// Every rank's result bytes after each of `iters` repeated calls.
using Repeats = std::vector<std::vector<std::vector<std::byte>>>;

/// `iters` in-place MPI_Allreduce calls of `count` device doubles on the
/// same buffer (the halo app's residual shape), a fresh payload each.
Repeats repeated_allreduce_named(bool engine, int ranks, int count,
                                 int iters) {
  tempi::red::set_enabled(engine);
  Repeats out(static_cast<std::size_t>(ranks));
  sysmpi::RunConfig cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(double);
    SpaceBuffer buf(vcuda::MemorySpace::Device, bytes);
    for (int it = 0; it < iters; ++it) {
      std::vector<double> vals(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        vals[static_cast<std::size_t>(i)] =
            1.0 / (rank + 1 + it) + 1e-7 * i;
      }
      std::memcpy(buf.get(), vals.data(), bytes);
      ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, buf.get(), count, MPI_DOUBLE,
                              MPI_SUM, MPI_COMM_WORLD),
                MPI_SUCCESS);
      out[static_cast<std::size_t>(rank)].emplace_back(
          buf.bytes(), buf.bytes() + bytes);
    }
    MPI_Finalize();
  });
  tempi::red::set_enabled(true);
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

TEST(ReduceReplay, RepeatedNamedAllreduceInPlaceMatchesSystemBitwise) {
  // Every rank records its linear-fold schedule on the second call and
  // replays it after; the root's combine runs as a recorded graph. The
  // results stay bitwise the system path's, and the trailing system Bcast
  // still runs every call.
  tempi::ScopedInterposer guard;
  for (const int ranks : {2, 3}) {
    tempi::trace::reset_counters();
    const Repeats engine = repeated_allreduce_named(true, ranks, 1, 5);
    const auto n = static_cast<std::uint64_t>(ranks);
    EXPECT_EQ(counter("tempi.sched.captures"), n);
    EXPECT_EQ(counter("tempi.sched.replays"), 3u * n);
    // One device combine per non-root contribution per call, live or
    // replayed.
    EXPECT_EQ(counter("tempi.red.kernel_launches"), 5u * (n - 1));
    expect_same(engine, repeated_allreduce_named(false, ranks, 1, 5));
  }
}

/// Repeated derived-datatype MPI_Allreduce calls on 4 ranks (2 per node)
/// with the same buffers: call k runs under `schedules[k]` (rank 0 forces
/// it, a barrier publishes it) with a fresh payload, validated against the
/// elementwise oracle.
void repeated_allreduce_derived(const std::vector<Schedule> &schedules,
                                bool in_place) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 4;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    std::mt19937 gen(91u);
    MPI_Datatype t = uniform_strided_type(gen, MPI_INT);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const int count = 3;
    const std::size_t packed = static_cast<std::size_t>(t->size) * count;
    const std::size_t words = packed / sizeof(std::int32_t);
    SpaceBuffer sbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) * count + 64);
    SpaceBuffer rbuf(vcuda::MemorySpace::Device,
                     static_cast<std::size_t>(extent) * count + 64);
    for (std::size_t call = 0; call < schedules.size(); ++call) {
      if (rank == 0) {
        tempi::red::set_forced_schedule(schedules[call]);
      }
      MPI_Barrier(MPI_COMM_WORLD);
      const auto value = [&](int r, std::size_t i) {
        return r * 1000 + static_cast<std::int32_t>(i + 7 * call);
      };
      std::vector<std::int32_t> mine(words);
      for (std::size_t i = 0; i < words; ++i) {
        mine[i] = value(rank, i);
      }
      std::vector<std::byte> stream(packed);
      std::memcpy(stream.data(), mine.data(), packed);
      std::memset(rbuf.get(), 0xAA, rbuf.size());
      reference_unpack(in_place ? rbuf.get() : sbuf.get(), count, *t, stream);
      ASSERT_EQ(MPI_Allreduce(in_place ? MPI_IN_PLACE : sbuf.get(),
                              rbuf.get(), count, t, MPI_SUM, MPI_COMM_WORLD),
                MPI_SUCCESS);
      const std::vector<std::byte> out = reference_pack(rbuf.get(), count, *t);
      std::vector<std::int32_t> got(words);
      std::memcpy(got.data(), out.data(), packed);
      for (std::size_t i = 0; i < words; ++i) {
        std::int32_t want = 0;
        for (int r = 0; r < 4; ++r) {
          want += value(r, i);
        }
        ASSERT_EQ(got[i], want)
            << "rank " << rank << " call " << call << " word " << i
            << " schedule " << tempi::red::schedule_name(schedules[call]);
      }
      MPI_Barrier(MPI_COMM_WORLD); // the next call's forcing waits for all
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::red::set_forced_schedule(Schedule::Auto);
}

TEST(ReduceReplay, RepeatedDerivedAllreduceMatchesOracleUnderEverySchedule) {
  tempi::ScopedInterposer guard;
  for (const Schedule s :
       {Schedule::Linear, Schedule::Ring, Schedule::Doubling}) {
    for (const bool in_place : {false, true}) {
      tempi::trace::reset_counters();
      repeated_allreduce_derived({s, s, s, s, s}, in_place);
      EXPECT_EQ(counter("tempi.sched.captures"), 4u)
          << tempi::red::schedule_name(s);
      EXPECT_EQ(counter("tempi.sched.replays"), 4u * 3u)
          << tempi::red::schedule_name(s);
    }
  }
}

TEST(ReduceReplay, ForcedScheduleChangeNeverReplaysTheOldSchedule) {
  // The forced schedule is part of the key: switching it between calls
  // on the same buffers and counts runs (and records) the new schedule.
  tempi::ScopedInterposer guard;
  tempi::trace::reset_counters();
  repeated_allreduce_derived({Schedule::Ring, Schedule::Ring, Schedule::Ring,
                              Schedule::Doubling, Schedule::Doubling,
                              Schedule::Doubling, Schedule::Ring},
                             false);
  EXPECT_EQ(counter("tempi.sched.captures"), 4u * 2u);
  EXPECT_EQ(counter("tempi.sched.replays"), 4u * 3u);
}

TEST(ReduceReplay, RepeatedReduceScatterMatchesSystemBitwise) {
  tempi::ScopedInterposer guard;
  const auto repeated = [](bool engine) {
    tempi::red::set_enabled(engine);
    Repeats out(4);
    sysmpi::RunConfig cfg;
    cfg.ranks = 4;
    cfg.ranks_per_node = 2;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      const int recvcounts[4] = {3, 0, 5, 2};
      const int total = 10;
      const std::size_t bytes = total * sizeof(double);
      SpaceBuffer sbuf(vcuda::MemorySpace::Device, bytes);
      SpaceBuffer rbuf(vcuda::MemorySpace::Device, bytes + 8);
      for (int it = 0; it < 5; ++it) {
        std::vector<double> vals(total);
        for (int i = 0; i < total; ++i) {
          vals[static_cast<std::size_t>(i)] =
              1.0 / (rank + 1 + it) + 1e-9 * i;
        }
        std::memcpy(sbuf.get(), vals.data(), bytes);
        std::memset(rbuf.get(), 0, rbuf.size());
        ASSERT_EQ(MPI_Reduce_scatter(sbuf.get(), rbuf.get(), recvcounts,
                                     MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        out[static_cast<std::size_t>(rank)].emplace_back(
            rbuf.bytes(),
            rbuf.bytes() + static_cast<std::size_t>(recvcounts[rank]) *
                               sizeof(double));
      }
      MPI_Finalize();
    });
    tempi::red::set_enabled(true);
    return out;
  };
  tempi::trace::reset_counters();
  const Repeats engine = repeated(true);
  EXPECT_EQ(counter("tempi.sched.captures"), 4u);
  EXPECT_EQ(counter("tempi.sched.replays"), 4u * 3u);
  expect_same(engine, repeated(false));
}

TEST(Reduce, EnvKillSwitchReadAtInstall) {
  // TEMPI_RED mirrors TEMPI_COLL: no-recompile disabling, decided (and
  // logged) at install time.
  setenv("TEMPI_RED", "0", 1);
  tempi::install();
  EXPECT_FALSE(tempi::red::enabled());
  tempi::uninstall();
  setenv("TEMPI_RED", "1", 1);
  tempi::install();
  EXPECT_TRUE(tempi::red::enabled());
  tempi::uninstall();
  unsetenv("TEMPI_RED");
}

} // namespace
