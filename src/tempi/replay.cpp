#include "tempi/replay.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

namespace tempi::replay {

namespace {

/// Every live table of every thread. Tables enroll at construction and
/// withdraw at destruction (thread exit) under the same mutex release_all
/// clears them under, so an exiting thread never races the clear.
struct Registry {
  std::mutex mutex;
  std::vector<detail::Clearable *> tables;
};

Registry &registry() {
  // Never destroyed: thread-exit withdrawals may run after static
  // destruction has begun.
  static auto *r = new Registry;
  return *r;
}

} // namespace

void release_all() {
  Registry &r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (detail::Clearable *t : r.tables) {
    t->clear();
  }
}

namespace detail {

void enroll(Clearable *table) {
  Registry &r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.tables.push_back(table);
}

void withdraw(Clearable *table) {
  Registry &r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.tables.erase(std::find(r.tables.begin(), r.tables.end(), table));
}

} // namespace detail

} // namespace tempi::replay
