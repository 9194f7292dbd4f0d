// Per-thread state and operations of each workload.
//
// A Rank owns everything one thread of a workload sets up (buffers,
// datatypes, the halo Exchanger, persistent channels) and runs one
// operation at a time. Its constructor allocates the application's own
// buffers; connect() creates what the library sets up on them. Inputs
// come only from the seed: the op stream, the fill data and the sample of
// verified ops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace bm {

enum class OpKind : std::uint8_t { Cold, Warm, Timed };

struct OpId {
  OpKind kind = OpKind::Timed;
  std::uint64_t index = 0;
};

/// The virtual ns this thread measured for an op; -1 when this thread does
/// not time it (the sender in a receiver-timed ping-pong).
using Latency = std::int64_t;

class Rank {
public:
  virtual ~Rank() = default;
  /// Commit the datatypes and create the Exchanger or persistent channels.
  virtual void connect() = 0;
  /// Run one operation.
  virtual Latency op(OpId id) = 0;
  /// Operations run after the cold op and before timing starts.
  [[nodiscard]] virtual std::uint64_t warmup_ops() const = 0;
  /// Before a verified op: poison receive buffers, fill send buffers.
  virtual void prepare(std::uint64_t i) = 0;
  /// After a verified op: true when every received byte matches.
  virtual bool verify(std::uint64_t i) = 0;
  /// Which class of comparable ops timed op `i` belongs to, or -1 when it
  /// is left out of the system-path comparison.
  [[nodiscard]] virtual int op_class(std::uint64_t) { return 0; }
  /// Result of the last residual_norm(), or NaN.
  [[nodiscard]] virtual double residual() const {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

/// Independent seeded streams of input.
enum Stream : std::uint64_t { kFill = 1, kSample, kOrder, kRegret };

/// A seeded 64-bit hash of up to four words (splitmix64 rounds).
std::uint64_t seeded(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t a = 0, std::uint64_t b = 0);

/// True for the seeded 1-in-64 sample of timed ops that are verified.
bool verified(std::uint64_t seed, std::uint64_t i);

enum class HaloPath : std::uint8_t { Collective, PointToPoint };

std::unique_ptr<Rank> make_halo_rank(std::uint64_t seed, HaloPath path);
std::unique_ptr<Rank> make_p2p_rank(std::uint64_t seed, int thread);
std::unique_ptr<Rank> make_hotpath_rank(std::uint64_t seed, int thread);

/// Packed bytes one halo rank ships per exchange.
std::size_t halo_bytes();

/// (contiguous block bytes, packed bytes) of every datatype a workload
/// sends: the operands its model choices are made on.
using Operand = std::pair<std::size_t, std::size_t>;
std::vector<Operand> halo_operands();
std::vector<Operand> p2p_operands();
std::vector<Operand> hotpath_operands();

} // namespace bm
