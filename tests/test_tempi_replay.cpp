// The sighting rule of a replay::Table, driven with a fake program type:
// live, record, replay; failed records, stamps, the byte budget, pins, the
// full table's LRU replacement and release_all().
#include "tempi/perf_model.hpp"
#include "tempi/replay.hpp"
#include "tempi/trace.hpp"
#include "vcuda/clock.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <thread>

namespace {

using tempi::replay::kBudget;
using tempi::replay::kSlots;

struct FakeKey {
  int id = 0;
  bool operator==(const FakeKey &) const = default;
  [[nodiscard]] std::uint64_t hash() const {
    return tempi::replay::mix({static_cast<std::uint64_t>(id)});
  }
};

/// A recorded program is a token; the test keeps a weak reference to see
/// the table release it.
struct FakeProgram {
  std::shared_ptr<int> token;
  explicit operator bool() const { return token != nullptr; }
};

/// A program owned outside the table.
struct FakePin {
  std::weak_ptr<int> owner;
  [[nodiscard]] bool expired() const { return owner.expired(); }
};

using Table = tempi::replay::Table<FakeKey, FakeProgram>;
using PinTable = tempi::replay::Table<FakeKey, FakeProgram, FakePin>;

// Counters register for the life of the process, so they live here.
tempi::trace::Counter g_evictions{"test.replay.evictions"};
tempi::trace::Counter g_captures{"test.replay.captures"};

class ReplayTable : public ::testing::Test {
protected:
  void SetUp() override {
    g_evictions.reset();
    g_captures.reset();
  }

  /// Sight `key` in `table` under `stamp`; a record, when asked for,
  /// returns a fresh token pinning `bytes` (or nothing when `fail`). Sets
  /// `charged_` to the virtual time the sighting took.
  template <class T>
  typename T::Entry *sight(T &table, int key, std::uint64_t stamp = 0,
                           std::size_t bytes = 0, bool fail = false) {
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    typename T::Entry *e =
        table.sight(FakeKey{key}, stamp, &g_captures,
                    [&]() -> typename T::Recorded {
                      ++records_;
                      if (fail) {
                        return {};
                      }
                      return {FakeProgram{std::make_shared<int>(key)},
                              bytes};
                    });
    charged_ = vcuda::virtual_now() - t0;
    return e;
  }

  int records_ = 0;
  vcuda::VirtualNs charged_ = 0;
};

TEST_F(ReplayTable, LiveOnTheFirstSightingRecordOnTheSecondReplayAfter) {
  Table table(g_evictions);
  EXPECT_EQ(sight(table, 1), nullptr);
  EXPECT_EQ(charged_, 0);
  EXPECT_EQ(records_, 0);

  Table::Entry *recorded = sight(table, 1);
  ASSERT_NE(recorded, nullptr);
  EXPECT_TRUE(recorded->program);
  EXPECT_EQ(charged_, tempi::kMethodMemoHitNs);
  EXPECT_EQ(records_, 1);
  EXPECT_EQ(g_captures.value(), 1u);

  Table::Entry *replayed = sight(table, 1);
  EXPECT_EQ(replayed, recorded);
  EXPECT_EQ(charged_, tempi::kMethodMemoHitNs);
  EXPECT_EQ(records_, 1);
  EXPECT_EQ(g_captures.value(), 1u);
  EXPECT_EQ(g_evictions.value(), 0u);
}

TEST_F(ReplayTable, AFailedRecordStaysUnpromotedAndIsRetried) {
  Table table(g_evictions);
  EXPECT_EQ(sight(table, 1), nullptr);
  EXPECT_EQ(sight(table, 1, 0, 0, /*fail=*/true), nullptr);
  EXPECT_EQ(charged_, tempi::kMethodMemoHitNs);
  EXPECT_EQ(records_, 1);
  EXPECT_EQ(g_captures.value(), 0u);

  EXPECT_NE(sight(table, 1), nullptr);
  EXPECT_EQ(records_, 2);
  EXPECT_EQ(g_captures.value(), 1u);
}

TEST_F(ReplayTable, AChangedStampReRecordsWithoutAnEviction) {
  Table table(g_evictions);
  sight(table, 1, /*stamp=*/7);
  const std::weak_ptr<int> first = sight(table, 1, 7)->program.token;
  EXPECT_EQ(sight(table, 1, 7)->program.token, first.lock());

  Table::Entry *e = sight(table, 1, /*stamp=*/8);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(e->stamp, 8u);
  EXPECT_EQ(records_, 2);
  EXPECT_EQ(g_captures.value(), 2u);
  EXPECT_EQ(g_evictions.value(), 0u);
  EXPECT_EQ(sight(table, 1, 8), e);
  EXPECT_EQ(records_, 2);
}

TEST_F(ReplayTable, ABudgetEvictionRestartsTheKeyAtAFirstSighting) {
  Table table(g_evictions);
  const std::size_t big = kBudget / 2 + 1;
  sight(table, 1);
  const std::weak_ptr<int> one = sight(table, 1, 0, big)->program.token;
  sight(table, 2);
  ASSERT_NE(sight(table, 2, 0, big), nullptr); // over budget: 1 goes
  EXPECT_TRUE(one.expired());
  EXPECT_EQ(g_evictions.value(), 1u);

  EXPECT_EQ(sight(table, 1), nullptr); // a first sighting again
  EXPECT_EQ(charged_, 0);
  EXPECT_NE(sight(table, 1, 0, big), nullptr); // records; now 2 goes
  EXPECT_EQ(g_evictions.value(), 2u);

  // A program that alone exceeds the budget evicts itself.
  sight(table, 3);
  EXPECT_EQ(sight(table, 3, 0, kBudget + 1), nullptr);
  EXPECT_EQ(g_evictions.value(), 4u); // 1, then 3 itself
  EXPECT_EQ(sight(table, 3), nullptr);
}

TEST_F(ReplayTable, ALivePinServesFromTheFirstSightingAndLapsesWhenReleased) {
  PinTable table(g_evictions);
  auto owner = std::make_shared<int>(5);
  ASSERT_TRUE(table.pin(FakeKey{5}, FakePin{owner}));

  PinTable::Entry *e = sight(table, 5);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->pinned);
  EXPECT_EQ(e->pin.owner.lock(), owner);
  EXPECT_EQ(charged_, tempi::kMethodMemoHitNs);
  EXPECT_EQ(records_, 0);

  owner.reset(); // the owner lets the program go
  EXPECT_EQ(sight(table, 5), nullptr); // a fresh slot: first sighting
  PinTable::Entry *recorded = sight(table, 5);
  ASSERT_NE(recorded, nullptr);
  EXPECT_FALSE(recorded->pinned);
  EXPECT_TRUE(recorded->program);
  EXPECT_EQ(records_, 1);
  EXPECT_EQ(g_evictions.value(), 0u);
}

TEST_F(ReplayTable, AFullTableReplacesItsLeastRecentlyUsedEntryThatIsNotAPin) {
  PinTable table(g_evictions);
  const auto owner = std::make_shared<int>(0);
  ASSERT_TRUE(table.pin(FakeKey{0}, FakePin{owner})); // the oldest entry
  for (int k = 1; k < static_cast<int>(kSlots); ++k) {
    sight(table, k);
  }
  EXPECT_EQ(g_evictions.value(), 0u);

  EXPECT_EQ(sight(table, 1000), nullptr); // full: key 1 goes, not the pin
  EXPECT_EQ(g_evictions.value(), 1u);
  PinTable::Entry *pinned = sight(table, 0);
  ASSERT_NE(pinned, nullptr);
  EXPECT_TRUE(pinned->pinned);
  EXPECT_NE(sight(table, 2), nullptr); // kept: its second sighting records
  EXPECT_EQ(sight(table, 1), nullptr); // replaced: a first sighting
  EXPECT_EQ(g_evictions.value(), 2u);
}

TEST_F(ReplayTable, ReleaseAllEmptiesTheTableOfAThreadThatLivesAcrossIt) {
  std::promise<std::weak_ptr<int>> recorded;
  std::promise<void> released;
  std::shared_future<void> released_future = released.get_future().share();
  std::thread worker([&] {
    Table table(g_evictions);
    sight(table, 1);
    recorded.set_value(sight(table, 1)->program.token);
    released_future.wait();
    EXPECT_EQ(sight(table, 1), nullptr); // a first sighting again
    EXPECT_EQ(charged_, 0);
  });
  const std::weak_ptr<int> program = recorded.get_future().get();
  EXPECT_FALSE(program.expired());
  tempi::replay::release_all();
  EXPECT_TRUE(program.expired());
  released.set_value();
  worker.join();
  EXPECT_EQ(g_evictions.value(), 0u);
}

} // namespace
