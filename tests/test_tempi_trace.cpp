// The operation tracer + metrics registry (tempi/trace.hpp): span
// nesting/ordering across the async engine, ring-buffer wraparound drops,
// concurrent emits from plain threads, the Chrome trace-event export's
// structure, the disabled path's no-allocation guarantee, flush()
// idempotence, and the counter registry's coverage and unique names.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "test_helpers.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace trace = tempi::trace;
using testing_helpers::counter;

void run2(const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, body);
}

MPI_Datatype make_vec(int blocks, int block_bytes, int pitch_bytes) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(blocks, block_bytes, pitch_bytes, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

class TempiTrace : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    trace::reset_counters();
    trace::reset();
    trace::set_enabled(true);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::set_trace_path("");
    trace::set_stats_requested(false);
    trace::set_default_ring_capacity(16384);
    trace::reset();
    tempi::uninstall();
  }
};

/// One 2-rank Isend/Irecv of a strided device object, completion via
/// MPI_Wait on both sides.
void isend_round() {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vec(64, 64, 128);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent) + 64);
    MPI_Request req = nullptr;
    if (rank == 0) {
      MPI_Isend(buf, 1, t, 1, 5, MPI_COMM_WORLD, &req);
    } else {
      MPI_Irecv(buf, 1, t, 0, 5, MPI_COMM_WORLD, &req);
    }
    MPI_Wait(&req, MPI_STATUS_IGNORE);
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiTrace, EveryFamilyIsRegisteredAtInstall) {
  // Registration is not a side effect of traffic or of reading a
  // counter: right after install() (SetUp), with nothing sent, each
  // module's counters are listed. Defined first in this file, so no
  // earlier test's traffic has touched any module.
  const auto all = trace::counter_snapshot();
  for (const char *name :
       {"tempi.send.oneshot", "tempi.isend.replays", "tempi.irecv.forwarded",
        "tempi.pack.replays", "tempi.engine.isends",
        "tempi.persistent.inits", "tempi.persistent.forwarded",
        "tempi.pipeline.chunks", "tempi.coll.peer_legs",
        "tempi.red.allreduce", "tempi.topo.remaps",
        "tempi.model.cache_hits", "tempi.model.cache_misses",
        "tempi.model.memo_hits", "tempi.model.observations"}) {
    EXPECT_TRUE(std::any_of(
        all.begin(), all.end(),
        [name](const auto &kv) { return kv.first == name; }))
        << name;
  }
}

TEST_F(TempiTrace, SpanOrderingAcrossAsyncWait) {
  isend_round();
  const trace::Snapshot snap = tempi::trace_snapshot();
  ASSERT_FALSE(snap.spans.empty());
  for (const trace::SpanRecord &rec : snap.spans) {
    EXPECT_GE(rec.t1, rec.t0); // every span is a well-formed interval
  }
  // Sender: the pack must be issued before its wire leg begins. Receiver:
  // the wire leg must begin before the unpack ends. (Virtual clocks are
  // per-rank-thread, so ordering is only compared within one rank.)
  const auto first_t0 = [&snap](int rank, trace::Phase phase) {
    vcuda::VirtualNs best = ~vcuda::VirtualNs{0};
    for (const trace::SpanRecord &rec : snap.spans) {
      if (rec.rank == rank && rec.lane == 0 && rec.phase == phase) {
        best = std::min(best, rec.t0);
      }
    }
    return best;
  };
  const auto count_of = [&snap](int rank, trace::Phase phase,
                                trace::OpKind kind) {
    std::size_t n = 0;
    for (const trace::SpanRecord &rec : snap.spans) {
      if (rec.rank == rank && rec.phase == phase && rec.kind == kind) {
        ++n;
      }
    }
    return n;
  };
  ASSERT_GE(count_of(0, trace::Phase::PackLaunch, trace::OpKind::Isend), 1u);
  ASSERT_GE(count_of(0, trace::Phase::Wire, trace::OpKind::Isend), 1u);
  ASSERT_GE(count_of(1, trace::Phase::Wire, trace::OpKind::Irecv), 1u);
  ASSERT_GE(count_of(1, trace::Phase::Unpack, trace::OpKind::Irecv), 1u);
  EXPECT_LE(first_t0(0, trace::Phase::PackLaunch),
            first_t0(0, trace::Phase::Wire));
  EXPECT_LE(first_t0(1, trace::Phase::Wire),
            first_t0(1, trace::Phase::Unpack));
}

/// One 2-rank transfer of a 4 KiB strided device object rank 0 -> 1,
/// blocking or through Isend/Irecv and MPI_Wait.
void transfer_round(bool blocking) {
  run2([blocking](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vec(64, 64, 128);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent));
    if (blocking && rank == 0) {
      EXPECT_EQ(MPI_Send(buf, 1, t, 1, 6, MPI_COMM_WORLD), MPI_SUCCESS);
    } else if (blocking) {
      EXPECT_EQ(MPI_Recv(buf, 1, t, 0, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
    } else {
      MPI_Request req = nullptr;
      if (rank == 0) {
        MPI_Isend(buf, 1, t, 1, 6, MPI_COMM_WORLD, &req);
      } else {
        MPI_Irecv(buf, 1, t, 0, 6, MPI_COMM_WORLD, &req);
      }
      EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    }
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

std::size_t wire_spans(const trace::Snapshot &snap, int rank,
                       trace::OpKind kind) {
  return static_cast<std::size_t>(std::count_if(
      snap.spans.begin(), snap.spans.end(), [&](const trace::SpanRecord &r) {
        return r.rank == rank && r.phase == trace::Phase::Wire &&
               r.kind == kind;
      }));
}

TEST_F(TempiTrace, PipelinedLegsCarryTheirApiLabel) {
  // 4 KiB in 1 KiB legs: every message rides several wire legs, and each
  // leg is labelled with the call it belongs to.
  tempi::set_send_mode(tempi::SendMode::ForcePipelined);
  tempi::set_chunk_bytes_override(1024);
  transfer_round(/*blocking=*/false);
  trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_GE(wire_spans(snap, 0, trace::OpKind::Isend), 2u);
  EXPECT_GE(wire_spans(snap, 1, trace::OpKind::Irecv), 2u);
  for (const int rank : {0, 1}) {
    EXPECT_EQ(wire_spans(snap, rank, trace::OpKind::Send), 0u);
    EXPECT_EQ(wire_spans(snap, rank, trace::OpKind::Recv), 0u);
  }

  trace::reset();
  transfer_round(/*blocking=*/true);
  snap = tempi::trace_snapshot();
  EXPECT_GE(wire_spans(snap, 0, trace::OpKind::Send), 2u);
  EXPECT_GE(wire_spans(snap, 1, trace::OpKind::Recv), 2u);
  for (const int rank : {0, 1}) {
    EXPECT_EQ(wire_spans(snap, rank, trace::OpKind::Isend), 0u);
    EXPECT_EQ(wire_spans(snap, rank, trace::OpKind::Irecv), 0u);
  }
  tempi::set_chunk_bytes_override(0);
  tempi::set_send_mode(tempi::SendMode::Auto);
}

TEST_F(TempiTrace, WraparoundDropsCountedNotCrashed) {
  trace::set_default_ring_capacity(8);
  trace::reset(); // next armed emit creates a capacity-8 ring
  for (int i = 0; i < 100; ++i) {
    trace::emit(trace::Phase::Wire, trace::OpKind::Send, i, i + 1, 64);
  }
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_EQ(snap.spans.size(), 8u); // drop-new: the first 8 are retained
  EXPECT_EQ(snap.dropped, 92u);
  EXPECT_EQ(snap.spans.front().t0, 0u);
}

TEST_F(TempiTrace, ConcurrentEmitFromPlainThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::emit(trace::Phase::Unpack, trace::OpKind::Recv, i, i + 2, 32,
                    t);
      }
    });
  }
  for (std::thread &t : threads) {
    t.join();
  }
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_EQ(snap.spans.size() + snap.dropped,
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.dropped, 0u); // default capacity holds 1000/thread
  EXPECT_EQ(trace::ring_count(), static_cast<std::size_t>(kThreads));
}

TEST_F(TempiTrace, ChromeTraceExportMatchesMinimalSchema) {
  isend_round();
  const std::string path =
      ::testing::TempDir() + "tempi_trace_schema.json";
  ASSERT_TRUE(trace::write_chrome_trace(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  // Balanced braces/brackets outside string literals.
  long braces = 0, bracks = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++braces;
    } else if (c == '}') {
      --braces;
    } else if (c == '[') {
      ++bracks;
    } else if (c == ']') {
      --bracks;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(bracks, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(bracks, 0);
  const auto count = [&s](const char *needle) {
    std::size_t n = 0;
    for (std::size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"displayTimeUnit\""), std::string::npos);
  // One complete event per retained span, each with ts/dur, plus rank
  // process_name and lane thread_name metadata.
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_EQ(count("\"ph\":\"X\""), snap.spans.size());
  EXPECT_EQ(count("\"dur\":"), snap.spans.size());
  EXPECT_EQ(count("\"ts\":"), snap.spans.size());
  EXPECT_GE(count("\"ph\":\"M\""), 2u);
  EXPECT_GE(count("\"name\":\"process_name\""), 2u); // one per rank
  std::remove(path.c_str());
}

TEST_F(TempiTrace, DisabledPathAllocatesNothing) {
  trace::set_enabled(false);
  trace::reset(); // drop rings created by SetUp-era emits (none) and arm off
  ASSERT_EQ(trace::ring_count(), 0u);
  for (int i = 0; i < 1000; ++i) {
    trace::emit(trace::Phase::Wire, trace::OpKind::Send, i, i + 1);
    trace::ScopedSpan span(trace::Phase::Unpack, trace::OpKind::Recv);
  }
  EXPECT_EQ(trace::ring_count(), 0u); // no ring, no record, no drop
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(TempiTrace, FlushIsIdempotentPerGeneration) {
  const std::string path = ::testing::TempDir() + "tempi_trace_flush.json";
  trace::set_trace_path(path);
  trace::emit(trace::Phase::Wire, trace::OpKind::Send, 0, 10, 64);
  trace::flush();
  std::remove(path.c_str()); // a generation-unchanged flush must not rewrite
  trace::flush();
  std::ifstream second(path);
  EXPECT_FALSE(second.good());
  trace::emit(trace::Phase::Wire, trace::OpKind::Send, 10, 20, 64);
  trace::flush(); // new span -> new generation -> rewritten
  std::ifstream third(path);
  EXPECT_TRUE(third.good());
  std::remove(path.c_str());
}

TEST_F(TempiTrace, CounterRegistryCoversEveryFamily) {
  // Drive every counter family: a blocking send round, an Isend/Irecv
  // round, and a persistent round.
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vec(64, 64, 128);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      MPI_Send(buf, 1, t, 1, 1, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf, 1, t, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Request req = nullptr;
    if (rank == 0) {
      MPI_Send_init(buf, 1, t, 1, 2, MPI_COMM_WORLD, &req);
    } else {
      MPI_Recv_init(buf, 1, t, 0, 2, MPI_COMM_WORLD, &req);
    }
    MPI_Start(&req);
    MPI_Wait(&req, MPI_STATUS_IGNORE);
    MPI_Request_free(&req);
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  isend_round();

  // At least one family must have moved, or this test proves nothing.
  EXPECT_GT(counter("tempi.send.oneshot") + counter("tempi.send.device") +
                counter("tempi.send.staged") +
                counter("tempi.send.pipelined") +
                counter("tempi.send.forwarded"),
            0u);
  EXPECT_GT(counter("tempi.persistent.inits"), 0u);

  // The registry snapshot is sorted and names every family.
  const auto all = trace::counter_snapshot();
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const auto &a, const auto &b) { return a.first < b.first; }));
  const auto has = [&all](const char *name) {
    return std::any_of(all.begin(), all.end(), [name](const auto &kv) {
      return kv.first == name;
    });
  };
  EXPECT_TRUE(has("tempi.send.oneshot"));
  EXPECT_TRUE(has("tempi.engine.isends"));
  EXPECT_TRUE(has("tempi.model.cache_hits"));
  EXPECT_TRUE(has("tempi.lock.pool.acquires")); // gauge, same namespace
}

TEST_F(TempiTrace, CounterAndGaugeNamesAreUnique) {
  // counter_value() returns the first match, so a second counter or a
  // gauge under an existing name would be silently shadowed.
  const auto all = trace::counter_snapshot();
  const auto dup = std::adjacent_find(
      all.begin(), all.end(),
      [](const auto &a, const auto &b) { return a.first == b.first; });
  if (dup != all.end()) {
    ADD_FAILURE() << "duplicate registry name " << dup->first;
  }
}

TEST_F(TempiTrace, ResetCountersZeroesCountersAndKeepsGauges) {
  isend_round();
  EXPECT_GT(counter("tempi.engine.isends"), 0u);
  const std::uint64_t acquires = counter("tempi.lock.pool.acquires");
  EXPECT_GT(acquires, 0u);
  trace::reset_counters();
  for (const auto &[name, value] : trace::counter_snapshot()) {
    if (name.rfind("tempi.lock.", 0) != 0) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
  EXPECT_GE(counter("tempi.lock.pool.acquires"), acquires);
}

TEST_F(TempiTrace, StatsReportPrintsCountersAndPhases) {
  isend_round();
  const std::string path = ::testing::TempDir() + "tempi_trace_stats.txt";
  std::FILE *f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  trace::print_stats_report(f);
  std::fclose(f);
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  EXPECT_NE(s.find("tempi.engine.isends"), std::string::npos);
  EXPECT_NE(s.find("PackLaunch"), std::string::npos);
  EXPECT_NE(s.find("Wire"), std::string::npos);
  std::remove(path.c_str());
}

} // namespace
