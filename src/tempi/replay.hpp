// Repeated-call replay tables.
//
// An application cannot declare an MPI_Pack or an MPI_Isend persistent,
// yet the paper's halo exchange repeats the same packs and sends every
// iteration. Each thread remembers the calls it has seen: the first
// sighting of a call runs live, the second records the call's kernel
// chain as a vcuda graph (its *program*), and every later sighting
// replays that program instead of paying a cold launch and a blocking
// sync. Four stores, each a Table below, follow this rule through
// Table::sight: MPI_Pack/MPI_Unpack's table (tempi.cpp), the request
// engine's program table for Send/Isend/Recv/Irecv and its batch table for
// MPI_Waitall's fused unpacks and deferred sends' fused packs (async.cpp),
// and the collective engine's schedule table (schedule.cpp).
//
// A table is open addressed with linear probing over kSlots slots. Slots
// empty only all at once (clear()), so a probe may stop at the first empty
// slot; a full table replaces its least recently used entry in place.
// Programs that pin memory charge it to the table's byte budget, and the
// least recently used programs are evicted to stay under it.
//
// Pinned entries: a program owned elsewhere (a persistent request's frozen
// program) can be entered under its key with pin(). The table holds it
// only weakly, never evicts it and never charges it to the budget; it
// serves that key from the first sighting on. When its owner releases the
// program (the request is freed, on any thread), the entry lapses to a
// fresh slot at its next sighting: nothing dangles and nothing is replayed
// from it.
//
// Stale programs: entries name packers by raw pointer, and uninstall()
// destroys every packer. uninstall() therefore calls release_all(), which
// clears every thread's table through the registry below, so the programs'
// graphs and pinned leases are released at once.
#pragma once

#include "tempi/perf_model.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

namespace tempi::replay {

/// Entries per table (a power of two).
inline constexpr std::size_t kSlots = 128;

/// Pinned bytes the recorded programs of one thread's table may hold
/// between them. Each store keeps its own account of this one budget: a
/// shared account would need an LRU across stores, and no workload comes
/// near a budget (every store's eviction counter reads 0 on all four
/// end-to-end workloads).
inline constexpr std::size_t kBudget = std::size_t{16} << 20;

/// uninstall() (quiescent by contract): clear every live table of every
/// thread, releasing each program it holds.
void release_all();

/// Mix a key's fields into a slot hash.
template <class Fields> std::uint64_t mix_all(const Fields &fields) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (const std::uint64_t v : fields) {
    x = (x ^ v ^ (x >> 29)) * 0xbf58476d1ce4e5b9ull;
  }
  return x ^ (x >> 32);
}

inline std::uint64_t mix(std::initializer_list<std::uint64_t> fields) {
  return mix_all(fields);
}

inline std::uint64_t bits(const void *p) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
}

/// A key made of an ordered list of programs, named by address (bits()).
/// A table whose entries hold programs under such a key must own them (by
/// shared_ptr) while its recorded program exists, so no address in a
/// recorded key can be reused by a new program.
struct SequenceKey {
  std::vector<std::uint64_t> items;
  bool operator==(const SequenceKey &) const = default;
  [[nodiscard]] std::uint64_t hash() const { return mix_all(items); }
};

/// A recorded graph, destroyed with its owner.
struct GraphDestroyer {
  void operator()(vcuda::GraphHandle g) const { vcuda::GraphDestroy(g); }
};
using GraphPtr = std::unique_ptr<vcuda::Graph, GraphDestroyer>;

namespace detail {

/// The registry's view of a table.
class Clearable {
public:
  virtual void clear() = 0;

protected:
  ~Clearable() = default;
};

void enroll(Clearable *table);
void withdraw(Clearable *table);

} // namespace detail

/// The pin type of a table that holds only programs of its own.
struct NoPin {
  [[nodiscard]] bool expired() const { return true; }
};

/// One thread's table. `Key` needs operator== and `hash()`; `Program` is
/// default-constructible, movable, tests true when recorded, and releases
/// everything it holds when reset to `{}`. `Pin` is the weak reference
/// pin() enters (e.g. std::weak_ptr); `expired()` tells that its owner
/// let the program go.
template <class Key, class Program, class Pin = NoPin>
class Table final : detail::Clearable {
public:
  struct Entry {
    Key key{};
    std::uint64_t last_use = 0; ///< LRU stamp; 0 marks an empty slot
    std::uint64_t stamp = 0;    ///< the caller's stamp `program` serves
    bool sighted = false;       ///< a later sighting may record `program`
    bool pinned = false;        ///< `pin` was entered by pin()
    Program program{};          ///< recorded on the second sighting
    Pin pin{};                  ///< a program owned elsewhere
    std::size_t bytes = 0;      ///< pinned bytes charged to the budget

    /// A pin whose owner still holds the program: never evicted.
    [[nodiscard]] bool live_pin() const { return pinned && !pin.expired(); }
  };

  /// What a record callback hands sight(): the program (empty when
  /// recording failed) and the bytes it pins.
  struct Recorded {
    Program program{};
    std::size_t bytes = 0;
  };

  /// `evictions` counts entries replaced or dropped: a full table's least
  /// recently used key (whether or not it held a program) and a program
  /// evicted to stay under kBudget.
  explicit Table(trace::Counter &evictions) : evictions_(evictions) {
    detail::enroll(this);
  }
  Table(const Table &) = delete;
  Table &operator=(const Table &) = delete;
  ~Table() {
    detail::withdraw(this);
    clear();
  }

  /// One sighting of `key`: the rule every store follows. nullptr on the
  /// first sighting, which the caller runs live. Every later sighting pays
  /// the kMethodMemoHitNs lookup and gets the entry that serves it: a live
  /// pin, or a program recorded under `stamp`. An entry without one (or
  /// whose program another stamp recorded) records now through `record()`,
  /// which returns a Recorded. An empty program comes back as nullptr and
  /// stays unpromoted, so the next sighting tries again; a recorded one
  /// counts a capture on `captures` (when given) and is charged its bytes,
  /// and comes back as nullptr when it alone exceeds the budget.
  template <class Record>
  Entry *sight(const Key &key, std::uint64_t stamp,
               trace::Counter *captures, Record &&record) {
    Entry &e = slot_for(key);
    if (!e.sighted) {
      e.sighted = true;
      return nullptr;
    }
    vcuda::this_thread_timeline().advance(kMethodMemoHitNs); // the lookup
    if (e.pinned || (e.program && e.stamp == stamp)) {
      return &e;
    }
    forget(e); // a program of another stamp: not an eviction
    Recorded r = record();
    if (!r.program) {
      return nullptr;
    }
    if (captures != nullptr) {
      captures->add();
    }
    e.program = std::move(r.program);
    e.stamp = stamp;
    return charge(e, r.bytes) ? &e : nullptr;
  }

  /// Enter `pin` under `key`, replacing any program recorded for it. False
  /// (nothing entered) when half the table already holds live pins, so
  /// recorded programs always keep room.
  bool pin(const Key &key, Pin pin) {
    std::size_t live = 0;
    for (const Entry &e : slots_) {
      live += e.live_pin() && !(e.key == key) ? 1 : 0;
    }
    if (live >= kSlots / 2) {
      return false;
    }
    Entry &e = slot_for(key);
    forget(e);
    e.pin = std::move(pin);
    e.pinned = true;
    e.sighted = true;
    return true;
  }

  /// Drop every entry and the programs they hold.
  void clear() override {
    for (Entry &e : slots_) {
      e = Entry{};
    }
    pinned_ = 0;
  }

private:
  /// The slot holding `key`, claimed for it when absent (the least
  /// recently used entry that is not a live pin goes when the table is
  /// full), its LRU stamp refreshed. A lapsed pin restarts as a fresh
  /// slot.
  Entry &slot_for(const Key &key) {
    ++clock_;
    const auto home = static_cast<std::size_t>(key.hash());
    for (std::size_t p = 0; p < kSlots; ++p) {
      Entry &e = slots_[(home + p) & (kSlots - 1)];
      if (e.last_use == 0 || e.key == key) {
        if (e.pinned && e.pin.expired()) {
          forget(e);
          e = Entry{};
        }
        if (e.last_use == 0) {
          e.key = key; // a fresh slot: not sighted yet
        }
        e.last_use = clock_;
        return e;
      }
    }
    Entry *victim = nullptr;
    for (Entry &e : slots_) {
      if (!e.live_pin() &&
          (victim == nullptr || e.last_use < victim->last_use)) {
        victim = &e;
      }
    }
    drop(*victim);
    *victim = Entry{};
    victim->key = key;
    victim->last_use = clock_;
    return *victim;
  }

  /// Charge `bytes` pinned by `e`'s just-recorded program, then evict the
  /// least recently used programs until the table is within kBudget.
  /// False when `e` itself had to go (it alone exceeds the budget).
  bool charge(Entry &e, std::size_t bytes) {
    e.bytes = bytes;
    pinned_ += bytes;
    while (pinned_ > kBudget) {
      Entry *victim = nullptr;
      for (Entry &v : slots_) {
        if (v.bytes > 0 &&
            (victim == nullptr || v.last_use < victim->last_use)) {
          victim = &v;
        }
      }
      drop(*victim);
      victim->sighted = false; // evicted: the next sighting runs live
    }
    return static_cast<bool>(e.program);
  }

  /// Release `e`'s program and forget its charge (its key stays).
  void forget(Entry &e) {
    e.program = Program{};
    pinned_ -= e.bytes;
    e.bytes = 0;
  }

  /// Evict `e`'s program.
  void drop(Entry &e) {
    evictions_.add();
    forget(e);
  }

  trace::Counter &evictions_;
  std::size_t pinned_ = 0;
  std::array<Entry, kSlots> slots_{};
  std::uint64_t clock_ = 0;
};

/// The calling thread's table of type `T` (one per store: every store's
/// table type differs), allocated at its first use and freed at thread
/// exit. Not a thread_local Table: every thread would then pay for it,
/// since glibc clears each new thread's static TLS block.
template <class T> T &thread_table(trace::Counter &evictions) {
  thread_local std::unique_ptr<T> table;
  if (!table) {
    table = std::make_unique<T>(evictions);
  }
  return *table;
}

} // namespace tempi::replay
