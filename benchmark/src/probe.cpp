#include "probe.hpp"

#include "interpose/table.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>
#include <utility>

namespace bm {

namespace {

std::atomic<bool> g_armed{false};
std::atomic<int> g_run{0};

std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_threads; // guarded

thread_local ThreadSpans *t_spans = nullptr;
thread_local std::int32_t t_open = -1;
thread_local std::uint64_t t_op = 0;
thread_local WaitKind t_wait = WaitKind::Engine;
thread_local std::uint64_t t_failed = 0;

// What each probe forwards to. Written by install_*_probe() while no rank
// thread runs; read-only while ranks run.
interpose::MpiTable g_app_next;
interpose::MpiTable g_sys_next;

// System-level persistent send requests this thread created, with their
// payload bytes, so a later MPI_Start can be counted as a message.
thread_local std::vector<std::pair<MPI_Request, std::uint64_t>> t_send_inits;

int checked(int rc) {
  if (rc != MPI_SUCCESS) {
    ++t_failed;
  }
  return rc;
}

std::uint64_t payload_bytes(MPI_Datatype dt, long long count) {
  int size = 0;
  if (!armed() || dt == nullptr || count <= 0 ||
      interpose::system_table().Type_size(dt, &size) != MPI_SUCCESS ||
      size <= 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(size) * static_cast<std::uint64_t>(count);
}

Layer wait_layer() {
  return t_wait == WaitKind::Persistent ? Layer::PersistentWait : Layer::Wait;
}

// --- app probe: above TEMPI ---------------------------------------------------

/// Return-code check for every table entry without a span of its own.
template <auto Member> struct Checked;
template <typename... Args, int (*interpose::MpiTable::*Member)(Args...)>
struct Checked<Member> {
  static int call(Args... args) {
    return checked((g_app_next.*Member)(args...));
  }
};

int app_Type_commit(MPI_Datatype *dt) {
  const ScopedSpan span(Layer::Commit);
  return checked(g_app_next.Type_commit(dt));
}

int app_Pack(const void *in, int n, MPI_Datatype dt, void *out, int outsize,
             int *position, MPI_Comm comm) {
  const ScopedSpan span(Layer::Pack, payload_bytes(dt, n));
  return checked(g_app_next.Pack(in, n, dt, out, outsize, position, comm));
}

int app_Unpack(const void *in, int insize, int *position, void *out, int n,
               MPI_Datatype dt, MPI_Comm comm) {
  const ScopedSpan span(Layer::Unpack, payload_bytes(dt, n));
  return checked(g_app_next.Unpack(in, insize, position, out, n, dt, comm));
}

int app_Neighbor_alltoallv(const void *sbuf, const int *scounts,
                           const int *sdispls, MPI_Datatype stype, void *rbuf,
                           const int *rcounts, const int *rdispls,
                           MPI_Datatype rtype, MPI_Comm comm) {
  const ScopedSpan span(Layer::Alltoallv);
  return checked(g_app_next.Neighbor_alltoallv(
      sbuf, scounts, sdispls, stype, rbuf, rcounts, rdispls, rtype, comm));
}

int app_Allreduce(const void *sbuf, void *rbuf, int n, MPI_Datatype dt,
                  MPI_Op op, MPI_Comm comm) {
  const ScopedSpan span(Layer::Allreduce, payload_bytes(dt, n));
  return checked(g_app_next.Allreduce(sbuf, rbuf, n, dt, op, comm));
}

int app_Isend(const void *buf, int n, MPI_Datatype dt, int dest, int tag,
              MPI_Comm comm, MPI_Request *req) {
  const ScopedSpan span(Layer::Post, payload_bytes(dt, n));
  return checked(g_app_next.Isend(buf, n, dt, dest, tag, comm, req));
}

int app_Irecv(void *buf, int n, MPI_Datatype dt, int src, int tag,
              MPI_Comm comm, MPI_Request *req) {
  const ScopedSpan span(Layer::Post, payload_bytes(dt, n));
  return checked(g_app_next.Irecv(buf, n, dt, src, tag, comm, req));
}

int app_Wait(MPI_Request *req, MPI_Status *status) {
  const ScopedSpan span(wait_layer());
  return checked(g_app_next.Wait(req, status));
}

int app_Waitall(int n, MPI_Request *reqs, MPI_Status *statuses) {
  const ScopedSpan span(wait_layer());
  return checked(g_app_next.Waitall(n, reqs, statuses));
}

int app_Send(const void *buf, int n, MPI_Datatype dt, int dest, int tag,
             MPI_Comm comm) {
  const ScopedSpan span(Layer::Send, payload_bytes(dt, n));
  return checked(g_app_next.Send(buf, n, dt, dest, tag, comm));
}

int app_Recv(void *buf, int n, MPI_Datatype dt, int src, int tag,
             MPI_Comm comm, MPI_Status *status) {
  const ScopedSpan span(Layer::Recv, payload_bytes(dt, n));
  return checked(g_app_next.Recv(buf, n, dt, src, tag, comm, status));
}

int app_Start(MPI_Request *req) {
  const ScopedSpan span(Layer::Start);
  return checked(g_app_next.Start(req));
}

int app_Startall(int n, MPI_Request *reqs) {
  const ScopedSpan span(Layer::Start);
  return checked(g_app_next.Startall(n, reqs));
}

// --- system probe: between TEMPI and the system MPI ---------------------------

int sys_Send(const void *buf, int n, MPI_Datatype dt, int dest, int tag,
             MPI_Comm comm) {
  const ScopedSpan span(Layer::SysSend, payload_bytes(dt, n));
  return g_sys_next.Send(buf, n, dt, dest, tag, comm);
}

int sys_Isend(const void *buf, int n, MPI_Datatype dt, int dest, int tag,
              MPI_Comm comm, MPI_Request *req) {
  const ScopedSpan span(Layer::SysSend, payload_bytes(dt, n));
  return g_sys_next.Isend(buf, n, dt, dest, tag, comm, req);
}

int sys_Recv(void *buf, int n, MPI_Datatype dt, int src, int tag,
             MPI_Comm comm, MPI_Status *status) {
  const ScopedSpan span(Layer::SysRecv, payload_bytes(dt, n));
  return g_sys_next.Recv(buf, n, dt, src, tag, comm, status);
}

int sys_Irecv(void *buf, int n, MPI_Datatype dt, int src, int tag,
              MPI_Comm comm, MPI_Request *req) {
  const ScopedSpan span(Layer::SysRecv, payload_bytes(dt, n));
  return g_sys_next.Irecv(buf, n, dt, src, tag, comm, req);
}

int sys_Wait(MPI_Request *req, MPI_Status *status) {
  const ScopedSpan span(Layer::SysWait);
  return g_sys_next.Wait(req, status);
}

int sys_Waitall(int n, MPI_Request *reqs, MPI_Status *statuses) {
  const ScopedSpan span(Layer::SysWait);
  return g_sys_next.Waitall(n, reqs, statuses);
}

int sys_Send_init(const void *buf, int n, MPI_Datatype dt, int dest, int tag,
                  MPI_Comm comm, MPI_Request *req) {
  const int rc = g_sys_next.Send_init(buf, n, dt, dest, tag, comm, req);
  int size = 0;
  if (rc == MPI_SUCCESS &&
      interpose::system_table().Type_size(dt, &size) == MPI_SUCCESS) {
    t_send_inits.emplace_back(*req, static_cast<std::uint64_t>(size) *
                                        static_cast<std::uint64_t>(n));
  }
  return rc;
}

int sys_Request_free(MPI_Request *req) {
  std::erase_if(t_send_inits,
                [req](const auto &entry) { return entry.first == *req; });
  return g_sys_next.Request_free(req);
}

int sys_Start(MPI_Request *req) {
  const auto it =
      std::find_if(t_send_inits.begin(), t_send_inits.end(),
                   [req](const auto &entry) { return entry.first == *req; });
  const bool send = it != t_send_inits.end();
  const ScopedSpan span(send ? Layer::SysSend : Layer::SysRecv,
                        send && armed() ? it->second : 0);
  return g_sys_next.Start(req);
}

} // namespace

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char *layer_name(Layer layer) {
  switch (layer) {
  case Layer::Op: return "op";
  case Layer::Commit: return "translate.commit";
  case Layer::Pack: return "kernels.pack";
  case Layer::Unpack: return "kernels.unpack";
  case Layer::Alltoallv: return "collectives.alltoallv";
  case Layer::Allreduce: return "reduce.allreduce";
  case Layer::Post: return "async.post";
  case Layer::Wait: return "async.waitall";
  case Layer::Send: return "methods.send";
  case Layer::Recv: return "methods.recv";
  case Layer::Start: return "persistent.start";
  case Layer::PersistentWait: return "persistent.wait";
  case Layer::SysSend: return "sysmpi.send";
  case Layer::SysRecv: return "sysmpi.recv";
  case Layer::SysWait: return "sysmpi.wait";
  case Layer::kCount: break;
  }
  return "?";
}

void set_wait_kind(WaitKind kind) { t_wait = kind; }

void set_armed(bool on) { g_armed.store(on, std::memory_order_relaxed); }

bool armed() { return g_armed.load(std::memory_order_relaxed); }

std::uint64_t take_failed_calls() { return std::exchange(t_failed, 0); }

int begin_run() { return g_run.fetch_add(1, std::memory_order_relaxed) + 1; }

void begin_thread(int rank) {
  auto buffer = std::make_unique<ThreadSpans>();
  buffer->run = g_run.load(std::memory_order_relaxed);
  buffer->rank = rank;
  t_spans = buffer.get();
  t_open = -1;
  t_op = 0;
  t_wait = WaitKind::Engine;
  t_failed = 0;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  g_threads.push_back(std::move(buffer));
}

void set_op(std::uint64_t op) { t_op = op; }

ScopedSpan::ScopedSpan(Layer layer, std::uint64_t bytes) {
  if (t_spans == nullptr || !armed()) {
    return;
  }
  index_ = static_cast<std::int32_t>(t_spans->spans.size());
  Span &s = t_spans->spans.emplace_back();
  s.layer = layer;
  s.parent = t_open;
  s.op = t_op;
  s.bytes = bytes;
  t_open = index_;
  // Clocks last, so the bookkeeping above stays outside the span.
  s.v0 = vcuda::virtual_now();
  s.wall0 = wall_ns();
  s.cpu0 = thread_cpu_ns();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) {
    return;
  }
  const std::int64_t cpu1 = thread_cpu_ns();
  const std::int64_t wall1 = wall_ns();
  Span &s = t_spans->spans[static_cast<std::size_t>(index_)];
  s.cpu1 = cpu1;
  s.wall1 = wall1;
  s.v1 = vcuda::virtual_now();
  t_open = s.parent;
}

void install_system_probe() {
  interpose::MpiTable table = interpose::active_table();
  g_sys_next = table;
  table.Send = sys_Send;
  table.Isend = sys_Isend;
  table.Recv = sys_Recv;
  table.Irecv = sys_Irecv;
  table.Wait = sys_Wait;
  table.Waitall = sys_Waitall;
  table.Send_init = sys_Send_init;
  table.Request_free = sys_Request_free;
  table.Start = sys_Start;
  interpose::install(table);
}

void install_app_probe() {
  interpose::MpiTable table = interpose::active_table();
  g_app_next = table;
#define BM_CHECKED(name, ret, args)                                            \
  table.name = &Checked<&interpose::MpiTable::name>::call;
  SYSMPI_FOR_EACH_FN(BM_CHECKED)
#undef BM_CHECKED
  table.Type_commit = app_Type_commit;
  table.Pack = app_Pack;
  table.Unpack = app_Unpack;
  table.Neighbor_alltoallv = app_Neighbor_alltoallv;
  table.Allreduce = app_Allreduce;
  table.Isend = app_Isend;
  table.Irecv = app_Irecv;
  table.Wait = app_Wait;
  table.Waitall = app_Waitall;
  table.Send = app_Send;
  table.Recv = app_Recv;
  table.Start = app_Start;
  table.Startall = app_Startall;
  interpose::install(table);
}

std::vector<ThreadSpans> collect() {
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  std::vector<ThreadSpans> out;
  out.reserve(g_threads.size());
  for (const auto &t : g_threads) {
    out.push_back(*t);
  }
  return out;
}

bool write_chrome_trace(const std::string &path,
                        const std::vector<ThreadSpans> &threads, int run,
                        std::uint64_t max_op) {
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  const char *sep = "\n";
  for (const ThreadSpans &t : threads) {
    if (t.run != run) {
      continue;
    }
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":0,\"args\":{\"name\":\"rank %d\"}}",
                 sep, t.rank, t.rank);
    sep = ",\n";
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span &s = t.spans[i];
      if (s.op < 1 || s.op > max_op) {
        continue;
      }
      std::fprintf(
          f,
          ",\n{\"name\":\"%s\",\"cat\":\"benchmark\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{"
          "\"id\":%zu,\"parent\":%d,\"op\":%llu,\"bytes\":%llu,"
          "\"host_cpu_us\":%.3f,\"wall_start_us\":%.3f,\"wall_us\":%.3f}}",
          layer_name(s.layer), vcuda::ns_to_us(s.v0),
          vcuda::ns_to_us(s.v1 - s.v0), t.rank, i, s.parent,
          static_cast<unsigned long long>(s.op),
          static_cast<unsigned long long>(s.bytes),
          static_cast<double>(s.cpu1 - s.cpu0) / 1e3,
          static_cast<double>(s.wall0) / 1e3,
          static_cast<double>(s.wall1 - s.wall0) / 1e3);
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

} // namespace bm
