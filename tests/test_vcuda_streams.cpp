#include "test_helpers.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

namespace {

using testing_helpers::SpaceBuffer;
using testing_helpers::fill_pattern;

TEST(VirtualClock, AdvanceAndWait) {
  vcuda::Timeline tl;
  EXPECT_EQ(tl.now(), 0u);
  tl.advance(100);
  EXPECT_EQ(tl.now(), 100u);
  tl.wait_until(50); // no going backwards
  EXPECT_EQ(tl.now(), 100u);
  tl.wait_until(250);
  EXPECT_EQ(tl.now(), 250u);
}

TEST(Stream, OpsSerialize) {
  vcuda::Stream s(0);
  EXPECT_EQ(s.enqueue(0, 10), 10u);
  EXPECT_EQ(s.enqueue(0, 10), 20u);    // queued behind the first
  EXPECT_EQ(s.enqueue(100, 10), 110u); // host ran ahead: starts at 100
}

TEST(MemcpyAsync, MovesBytesAndAdvancesTime) {
  SpaceBuffer src(vcuda::MemorySpace::Device, 4096);
  SpaceBuffer dst(vcuda::MemorySpace::Pinned, 4096);
  fill_pattern(src.get(), 4096);

  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  vcuda::StreamHandle stream = vcuda::default_stream();
  ASSERT_EQ(vcuda::MemcpyAsync(dst.get(), src.get(), 4096,
                               vcuda::MemcpyKind::DeviceToHost, stream),
            vcuda::Error::Success);
  ASSERT_EQ(vcuda::StreamSynchronize(stream), vcuda::Error::Success);
  EXPECT_GT(vcuda::virtual_now(), t0);
  EXPECT_EQ(std::memcmp(src.get(), dst.get(), 4096), 0);
}

TEST(MemcpyAsync, DefaultKindInfersFromRegistry) {
  SpaceBuffer dev(vcuda::MemorySpace::Device, 128);
  SpaceBuffer host(vcuda::MemorySpace::Pinned, 128);
  fill_pattern(host.get(), 128, 7);
  ASSERT_EQ(vcuda::Memcpy(dev.get(), host.get(), 128,
                          vcuda::MemcpyKind::Default),
            vcuda::Error::Success);
  EXPECT_EQ(std::memcmp(dev.get(), host.get(), 128), 0);
}

TEST(MemcpyAsync, LargerCopiesTakeLonger) {
  SpaceBuffer a(vcuda::MemorySpace::Device, 1 << 20);
  SpaceBuffer b(vcuda::MemorySpace::Pinned, 1 << 20);
  vcuda::StreamHandle stream = vcuda::default_stream();

  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  vcuda::MemcpyAsync(b.get(), a.get(), 64, vcuda::MemcpyKind::DeviceToHost,
                     stream);
  vcuda::StreamSynchronize(stream);
  const vcuda::VirtualNs small = vcuda::virtual_now() - t0;

  const vcuda::VirtualNs t1 = vcuda::virtual_now();
  vcuda::MemcpyAsync(b.get(), a.get(), 1 << 20,
                     vcuda::MemcpyKind::DeviceToHost, stream);
  vcuda::StreamSynchronize(stream);
  const vcuda::VirtualNs large = vcuda::virtual_now() - t1;

  EXPECT_GT(large, small);
  // 1 MiB at ~45 GB/s is ~23 us of wire time on top of the fixed overheads.
  EXPECT_GT(large, vcuda::us_to_ns(20.0));
}

TEST(StreamQuery, NotReadyUntilSync) {
  SpaceBuffer a(vcuda::MemorySpace::Device, 1 << 20);
  SpaceBuffer b(vcuda::MemorySpace::Device, 1 << 20);
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  vcuda::MemcpyAsync(b.get(), a.get(), 1 << 20,
                     vcuda::MemcpyKind::DeviceToDevice, stream);
  EXPECT_EQ(vcuda::StreamQuery(stream), vcuda::Error::NotReady);
  vcuda::StreamSynchronize(stream);
  EXPECT_EQ(vcuda::StreamQuery(stream), vcuda::Error::Success);
  vcuda::StreamDestroy(stream);
}

TEST(Events, ElapsedTimeBracketsStreamWork) {
  SpaceBuffer a(vcuda::MemorySpace::Device, 1 << 20);
  SpaceBuffer b(vcuda::MemorySpace::Device, 1 << 20);
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  vcuda::EventHandle start = nullptr, stop = nullptr;
  vcuda::EventCreate(&start);
  vcuda::EventCreate(&stop);

  vcuda::EventRecord(start, stream);
  vcuda::MemcpyAsync(b.get(), a.get(), 1 << 20,
                     vcuda::MemcpyKind::DeviceToDevice, stream);
  vcuda::EventRecord(stop, stream);
  vcuda::EventSynchronize(stop);

  float ms = -1.0f;
  ASSERT_EQ(vcuda::EventElapsedTime(&ms, start, stop),
            vcuda::Error::Success);
  EXPECT_GT(ms, 0.0f);
  vcuda::EventDestroy(start);
  vcuda::EventDestroy(stop);
  vcuda::StreamDestroy(stream);
}

TEST(Kernel, BodyRunsAndCostAccrues) {
  bool ran = false;
  vcuda::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {256, 1, 1};
  vcuda::KernelCost cost;
  cost.total_bytes = 1 << 20;
  cost.src = {128, false, vcuda::MemorySpace::Device};
  cost.dst = {0, true, vcuda::MemorySpace::Device};
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::LaunchKernel(cfg, cost, vcuda::default_stream(),
                                [&ran] { ran = true; }),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());
  EXPECT_TRUE(ran);
  EXPECT_GT(vcuda::virtual_now() - t0,
            vcuda::cost_params().kernel_launch_ns);
}

TEST(Kernel, OversizedBlockRejected) {
  vcuda::LaunchConfig cfg;
  cfg.block = {2048, 1, 1}; // > 1024 threads
  EXPECT_EQ(vcuda::LaunchKernel(cfg, vcuda::KernelCost{},
                                vcuda::default_stream(), [] {}),
            vcuda::Error::InvalidValue);
}

/// A segment moving `bytes` with `run`-byte strided writes on the device.
vcuda::KernelSegment segment(std::size_t bytes, std::size_t run) {
  vcuda::KernelSegment s;
  s.cfg.grid = {4, 1, 1};
  s.cfg.block = {128, 1, 1};
  s.cost.total_bytes = bytes;
  s.cost.src = {0, false, vcuda::MemorySpace::Device};
  s.cost.dst = {run, true, vcuda::MemorySpace::Device};
  return s;
}

TEST(FusedKernel, ChargesOneLaunchAndEachSegmentsWork) {
  const vcuda::CostParams &p = vcuda::cost_params();
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  const std::vector<vcuda::KernelSegment> segs = {
      segment(512, 16), segment(64 * 1024, 64), segment(3 << 20, 256)};
  vcuda::VirtualNs expect_dur = p.kernel_fixed_ns;
  for (const vcuda::KernelSegment &s : segs) {
    expect_dur += vcuda::kernel_duration(p, s.cost) - p.kernel_fixed_ns;
  }

  vcuda::reset_counters();
  int runs = 0;
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::LaunchKernel(segs, stream, [&runs] { ++runs; }),
            vcuda::Error::Success);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(vcuda::virtual_now() - t0, p.kernel_launch_ns);
  EXPECT_EQ(vcuda::counters().kernel_launches, 1u);
  EXPECT_EQ(stream->ready_at(), t0 + p.kernel_launch_ns + expect_dur);
  vcuda::StreamDestroy(stream);
}

TEST(FusedKernel, OneSegmentCostsExactlyASingleLaunch) {
  vcuda::StreamHandle single = nullptr, fused = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&single), vcuda::Error::Success);
  ASSERT_EQ(vcuda::StreamCreate(&fused), vcuda::Error::Success);
  const vcuda::KernelSegment s = segment(48 * 1024, 32);

  vcuda::VirtualNs t0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::LaunchKernel(s.cfg, s.cost, single, [] {}),
            vcuda::Error::Success);
  const vcuda::VirtualNs single_host = vcuda::virtual_now() - t0;
  const vcuda::VirtualNs single_end = single->ready_at() - t0;

  t0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::LaunchKernel(std::span(&s, 1), fused, [] {}),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::virtual_now() - t0, single_host);
  EXPECT_EQ(fused->ready_at() - t0, single_end);
  vcuda::StreamDestroy(single);
  vcuda::StreamDestroy(fused);
}

TEST(FusedKernel, EmptySegmentListIsRejected) {
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  EXPECT_EQ(vcuda::LaunchKernel(std::span<const vcuda::KernelSegment>(),
                                stream, [] {}),
            vcuda::Error::InvalidValue);
  vcuda::StreamDestroy(stream);
}

TEST(FusedKernel, CapturesAsOneGraphNodeReplayedAtTheGraphDiscount) {
  // A fused launch on a capturing stream records one kernel node; replay
  // prices it like any in-graph kernel: its fused live duration minus
  // kernel_fixed_ns plus graph_node_sched_ns.
  const vcuda::CostParams &p = vcuda::cost_params();
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  const std::vector<vcuda::KernelSegment> segs = {
      segment(512, 16), segment(64 * 1024, 64), segment(3 << 20, 256)};
  vcuda::VirtualNs live = p.kernel_fixed_ns;
  for (const vcuda::KernelSegment &s : segs) {
    live += vcuda::kernel_duration(p, s.cost) - p.kernel_fixed_ns;
  }

  ASSERT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
  int runs = 0;
  const vcuda::VirtualNs c0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::LaunchKernel(segs, stream, [&runs] { ++runs; }),
            vcuda::Error::Success);
  EXPECT_EQ(vcuda::virtual_now() - c0, p.graph_capture_node_ns);
  vcuda::GraphHandle graph = nullptr;
  ASSERT_EQ(vcuda::GraphEndCapture(stream, &graph), vcuda::Error::Success);
  EXPECT_EQ(runs, 0); // recorded, not run
  EXPECT_EQ(vcuda::GraphNodeCount(graph), 1u);

  vcuda::reset_counters();
  ASSERT_EQ(vcuda::StreamSynchronize(stream), vcuda::Error::Success);
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::GraphLaunch(graph, stream), vcuda::Error::Success);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(vcuda::virtual_now() - t0, p.graph_launch_ns);
  const vcuda::Counters c = vcuda::counters();
  EXPECT_EQ(c.kernel_launches, 0u);
  EXPECT_EQ(c.graph_launches, 1u);
  EXPECT_EQ(c.graph_nodes_replayed, 1u);
  EXPECT_EQ(stream->ready_at(), t0 + p.graph_launch_ns + live -
                                    p.kernel_fixed_ns +
                                    p.graph_node_sched_ns);
  vcuda::GraphDestroy(graph);
  vcuda::StreamDestroy(stream);
}

TEST(Memcpy2D, CopiesPitchedRows) {
  constexpr std::size_t kWidth = 96, kRows = 10, kSPitch = 128,
                        kDPitch = 256;
  SpaceBuffer src(vcuda::MemorySpace::Device, kSPitch * kRows);
  SpaceBuffer dst(vcuda::MemorySpace::Device, kDPitch * kRows);
  fill_pattern(src.get(), kSPitch * kRows);
  ASSERT_EQ(vcuda::Memcpy2DAsync(dst.get(), kDPitch, src.get(), kSPitch,
                                 kWidth, kRows,
                                 vcuda::MemcpyKind::DeviceToDevice,
                                 vcuda::default_stream()),
            vcuda::Error::Success);
  vcuda::StreamSynchronize(vcuda::default_stream());
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(std::memcmp(dst.bytes() + r * kDPitch,
                          src.bytes() + r * kSPitch, kWidth), 0)
        << "row " << r;
  }
}

TEST(Counters, TrackCalls) {
  vcuda::reset_counters();
  SpaceBuffer a(vcuda::MemorySpace::Device, 64);
  SpaceBuffer b(vcuda::MemorySpace::Device, 64);
  vcuda::MemcpyAsync(b.get(), a.get(), 64, vcuda::MemcpyKind::DeviceToDevice,
                     vcuda::default_stream());
  vcuda::StreamSynchronize(vcuda::default_stream());
  const vcuda::Counters c = vcuda::counters();
  EXPECT_EQ(c.memcpy_async_calls, 1u);
  EXPECT_EQ(c.stream_syncs, 1u);
  EXPECT_EQ(c.mallocs, 2u);
}

TEST(Graph, CaptureRecordsWithoutExecuting) {
  SpaceBuffer src(vcuda::MemorySpace::Device, 1024);
  SpaceBuffer dst(vcuda::MemorySpace::Device, 1024);
  fill_pattern(src.get(), 1024, 3);
  std::memset(dst.get(), 0, 1024);

  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  ASSERT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
  EXPECT_TRUE(vcuda::StreamIsCapturing(stream));
  // One open capture per stream.
  EXPECT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::InvalidValue);
  ASSERT_EQ(vcuda::MemcpyAsync(dst.get(), src.get(), 1024,
                               vcuda::MemcpyKind::DeviceToDevice, stream),
            vcuda::Error::Success);
  // Recorded, not executed: payload untouched, stream idle.
  EXPECT_NE(std::memcmp(dst.get(), src.get(), 1024), 0);
  EXPECT_EQ(stream->ready_at(), 0u);
  vcuda::GraphHandle graph = nullptr;
  ASSERT_EQ(vcuda::GraphEndCapture(stream, &graph), vcuda::Error::Success);
  EXPECT_FALSE(vcuda::StreamIsCapturing(stream));
  EXPECT_EQ(vcuda::GraphNodeCount(graph), 1u);

  // Replay moves the bytes and enqueues the node's device duration.
  ASSERT_EQ(vcuda::GraphLaunch(graph, stream), vcuda::Error::Success);
  EXPECT_EQ(std::memcmp(dst.get(), src.get(), 1024), 0);
  EXPECT_GT(stream->ready_at(), 0u);
  vcuda::StreamSynchronize(stream);

  ASSERT_EQ(vcuda::GraphDestroy(graph), vcuda::Error::Success);
  vcuda::StreamDestroy(stream);
}

TEST(Graph, ReplayChargesOneLaunchForTheWholeChain) {
  // Three kernels recorded once: the live path pays kernel_launch_ns per
  // kernel; the replay pays graph_launch_ns once, and each node runs with
  // the in-graph dispatch floor instead of the cold kernel_fixed_ns.
  const vcuda::CostParams &p = vcuda::cost_params();
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);

  vcuda::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  vcuda::KernelCost cost;
  cost.total_bytes = 256;
  cost.src = {256, false, vcuda::MemorySpace::Device};
  cost.dst = {0, true, vcuda::MemorySpace::Device};

  int runs = 0;
  ASSERT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
  const vcuda::VirtualNs capture_t0 = vcuda::virtual_now();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(vcuda::LaunchKernel(cfg, cost, stream, [&runs] { ++runs; }),
              vcuda::Error::Success);
  }
  const vcuda::VirtualNs capture_cost = vcuda::virtual_now() - capture_t0;
  vcuda::GraphHandle graph = nullptr;
  ASSERT_EQ(vcuda::GraphEndCapture(stream, &graph), vcuda::Error::Success);
  EXPECT_EQ(runs, 0); // bodies deferred to replay
  EXPECT_EQ(vcuda::GraphNodeCount(graph), 3u);
  EXPECT_EQ(capture_cost, 3 * p.graph_capture_node_ns);

  vcuda::reset_counters();
  const vcuda::VirtualNs t0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::GraphLaunch(graph, stream), vcuda::Error::Success);
  const vcuda::VirtualNs host_cost = vcuda::virtual_now() - t0;
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(host_cost, p.graph_launch_ns); // one launch, not three
  const vcuda::Counters c = vcuda::counters();
  EXPECT_EQ(c.kernel_launches, 0u); // replays are not cold launches
  EXPECT_EQ(c.graph_launches, 1u);
  EXPECT_EQ(c.graph_nodes_replayed, 3u);

  // Device-side: each node swapped kernel_fixed_ns for graph_node_sched_ns.
  const vcuda::VirtualNs live_dur = vcuda::kernel_duration(p, cost);
  const vcuda::VirtualNs node_dur =
      live_dur - std::min(live_dur, p.kernel_fixed_ns) + p.graph_node_sched_ns;
  EXPECT_EQ(stream->ready_at(), t0 + p.graph_launch_ns + 3 * node_dur);

  // The pre-armed fence folds the stream in for stream_fence_ns, cheaper
  // than a cold synchronize.
  const vcuda::VirtualNs f0 = vcuda::virtual_now();
  ASSERT_EQ(vcuda::StreamFence(stream), vcuda::Error::Success);
  EXPECT_EQ(vcuda::virtual_now(), stream->ready_at() + p.stream_fence_ns);
  EXPECT_GE(vcuda::virtual_now(), f0);
  EXPECT_LT(p.stream_fence_ns, p.stream_sync_ns);

  ASSERT_EQ(vcuda::GraphDestroy(graph), vcuda::Error::Success);
  vcuda::StreamDestroy(stream);
}

TEST(Graph, LaunchOntoCapturingStreamIsRejected) {
  vcuda::StreamHandle stream = nullptr;
  ASSERT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  ASSERT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
  vcuda::GraphHandle empty = nullptr;
  ASSERT_EQ(vcuda::GraphEndCapture(stream, &empty), vcuda::Error::Success);

  ASSERT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
  EXPECT_EQ(vcuda::GraphLaunch(empty, stream), vcuda::Error::InvalidValue);
  vcuda::GraphHandle g2 = nullptr;
  ASSERT_EQ(vcuda::GraphEndCapture(stream, &g2), vcuda::Error::Success);
  EXPECT_EQ(vcuda::GraphLaunch(nullptr, stream), vcuda::Error::InvalidValue);
  EXPECT_EQ(vcuda::GraphEndCapture(stream, &g2), vcuda::Error::InvalidValue);

  vcuda::GraphDestroy(empty);
  vcuda::GraphDestroy(g2);
  vcuda::StreamDestroy(stream);
}

} // namespace
