#include "layers.hpp"

#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/tempi.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>

namespace bm {

namespace {

struct LayerTotals {
  double virt_ns = 0.0;
  double cpu_ns = 0.0;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median3(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Receiver-timed virtual us of one `block`-run object of `total` bytes on
/// device buffers, 2 ranks on 2 nodes: median of 3 after a warm-up.
double pingpong_us(tempi::SendMode mode, const Operand &o) {
  tempi::set_send_mode(mode);
  double result = 0.0;
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    const auto [block, total] = o;
    MPI_Datatype t = nullptr;
    MPI_Type_vector(static_cast<int>(total / block), static_cast<int>(block),
                    static_cast<int>(2 * block), MPI_BYTE, &t);
    MPI_Type_commit(&t);
    void *buf = nullptr;
    vcuda::Malloc(&buf, 2 * total);
    std::vector<double> us;
    for (int round = 0; round < 4; ++round) {
      int ack = 0;
      if (rank == 0) {
        MPI_Send(buf, 1, t, 1, round, MPI_COMM_WORLD);
        MPI_Recv(&ack, 1, MPI_INT, 1, 999, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      } else {
        const vcuda::VirtualNs t0 = vcuda::virtual_now();
        MPI_Recv(buf, 1, t, 0, round, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        if (round > 0) {
          us.push_back(vcuda::ns_to_us(vcuda::virtual_now() - t0));
        }
        MPI_Send(&ack, 1, MPI_INT, 0, 999, MPI_COMM_WORLD);
      }
    }
    if (rank == 1) {
      result = median3(us);
    }
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
  return result;
}

} // namespace

CounterSnapshot snapshot_counters() {
  CounterSnapshot s;
  for (auto &[name, value] : tempi::trace::counter_snapshot()) {
    s.registry[name] = value;
  }
  s.device = vcuda::counters();
  return s;
}

std::vector<std::pair<std::string, double>>
layer_metrics(const TracedRun &run) {
  std::array<LayerTotals, kLayerCount> layers{};
  double op_virt = 0.0, covered = 0.0, commit_cpu = 0.0;
  std::uint64_t commits = 0;
  for (const ThreadSpans &t : run.threads) {
    const std::size_t n = t.spans.size();
    std::vector<double> child_virt(n, 0.0), child_cpu(n, 0.0);
    for (const Span &s : t.spans) {
      if (s.parent >= 0) {
        child_virt[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.v1 - s.v0);
        child_cpu[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.cpu1 - s.cpu0);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Span &s = t.spans[i];
      const double self_cpu =
          static_cast<double>(s.cpu1 - s.cpu0) - child_cpu[i];
      if (s.layer == Layer::Commit) {
        commit_cpu += self_cpu;
        ++commits;
      }
      if (t.run != run.run || s.op < 1) {
        continue; // set-up spans, or another run's
      }
      const double virt = static_cast<double>(s.v1 - s.v0);
      LayerTotals &l = layers[static_cast<std::size_t>(s.layer)];
      l.virt_ns += virt - child_virt[i];
      l.cpu_ns += self_cpu;
      l.count += 1;
      l.bytes += s.bytes;
      if (s.layer == Layer::Op) {
        op_virt += virt;
        covered += child_virt[i];
      }
    }
  }
  const double ops = static_cast<double>(std::max<std::uint64_t>(run.ops, 1));
  const auto at = [&](Layer l) -> const LayerTotals & {
    return layers[static_cast<std::size_t>(l)];
  };
  const auto virt_us = [&](Layer l) { return at(l).virt_ns / ops / 1e3; };
  const auto host_us = [&](Layer l) { return at(l).cpu_ns / ops / 1e3; };
  const auto delta = [&](const CounterSnapshot &from, const std::string &n) {
    const auto a = run.after.registry.find(n);
    const auto b = from.registry.find(n);
    const std::uint64_t va = a == run.after.registry.end() ? 0 : a->second;
    const std::uint64_t vb = b == from.registry.end() ? 0 : b->second;
    return static_cast<double>(va - vb);
  };
  const auto d = [&](const std::string &n) { return delta(run.before, n); };
  const auto dev = [&](std::uint64_t vcuda::Counters::*field) {
    return static_cast<double>(run.after.device.*field -
                               run.before.device.*field) /
           ops;
  };

  std::vector<std::pair<std::string, double>> m;
  m.emplace_back("host.cpu_us_per_op", run.host_cpu_ns_per_op / 1e3);
  m.emplace_back("host.wall_ops_per_s", run.host_ops_per_s);
  m.emplace_back("translate.commit_host_us",
                 ratio(commit_cpu, static_cast<double>(commits)) / 1e3);

  m.emplace_back("kernels.pack_virt_us", virt_us(Layer::Pack));
  m.emplace_back("kernels.unpack_virt_us", virt_us(Layer::Unpack));
  m.emplace_back("kernels.pack_host_us", host_us(Layer::Pack));
  m.emplace_back("kernels.unpack_host_us", host_us(Layer::Unpack));
  m.emplace_back("kernels.bytes_per_op",
                 static_cast<double>(at(Layer::Pack).bytes +
                                     at(Layer::Unpack).bytes) /
                     ops);

  m.emplace_back("collectives.alltoallv_virt_us", virt_us(Layer::Alltoallv));
  m.emplace_back("collectives.alltoallv_host_us", host_us(Layer::Alltoallv));
  m.emplace_back("collectives.peer_legs_per_op",
                 d("tempi.coll.peer_legs") / ops);
  m.emplace_back("collectives.fallback", d("tempi.coll.fallback"));

  m.emplace_back("reduce.allreduce_virt_us", virt_us(Layer::Allreduce));
  m.emplace_back("reduce.fallback", d("tempi.red.fallback"));

  m.emplace_back("async.post_virt_us", virt_us(Layer::Post));
  m.emplace_back("async.waitall_virt_us", virt_us(Layer::Wait));
  m.emplace_back("async.post_host_us", host_us(Layer::Post));
  m.emplace_back("async.waitall_host_us", host_us(Layer::Wait));
  m.emplace_back("async.batched_syncs_per_op",
                 d("tempi.engine.batched_syncs") / ops);

  m.emplace_back("methods.send_virt_us", virt_us(Layer::Send));
  m.emplace_back("methods.recv_virt_us", virt_us(Layer::Recv));
  const std::array<const char *, 5> methods = {"oneshot", "device", "staged",
                                               "pipelined", "forwarded"};
  double sends = 0.0;
  for (const char *name : methods) {
    sends += d(std::string("tempi.send.") + name) +
             d(std::string("tempi.isend.") + name);
  }
  for (const char *name : methods) {
    m.emplace_back(std::string("methods.share.") + name,
                   ratio(d(std::string("tempi.send.") + name) +
                             d(std::string("tempi.isend.") + name),
                         sends));
  }

  m.emplace_back("persistent.start_virt_us", virt_us(Layer::Start));
  m.emplace_back("persistent.start_host_ns", host_us(Layer::Start) * 1e3);
  m.emplace_back("persistent.replay_ratio",
                 ratio(d("tempi.persistent.replays"),
                       d("tempi.persistent.starts")));

  const double hits = d("tempi.model.cache_hits");
  const double misses = d("tempi.model.cache_misses");
  const double memo = d("tempi.model.memo_hits");
  m.emplace_back("perf_model.choose_host_ns", run.choose_host_ns);
  m.emplace_back("perf_model.cache_hit_ratio", ratio(hits, hits + misses));
  m.emplace_back("perf_model.memo_hit_ratio",
                 ratio(memo, memo + hits + misses));
  m.emplace_back("perf_model.tuner_updates",
                 delta(run.tuner_before, "tempi.model.updates"));
  m.emplace_back("perf_model.generation_bumps",
                 delta(run.tuner_before, "tempi.model.generation_bumps"));
  m.emplace_back("perf_model.choice_regret", run.choice_regret);

  m.emplace_back("buffer_cache.hit_ratio",
                 ratio(static_cast<double>(run.cache_hits),
                       static_cast<double>(run.cache_hits + run.cache_misses)));
  m.emplace_back("buffer_cache.leased_at_end",
                 static_cast<double>(run.leased_at_end));

  m.emplace_back("vcuda.kernel_launches_per_op",
                 dev(&vcuda::Counters::kernel_launches));
  m.emplace_back("vcuda.memcpy_calls_per_op",
                 dev(&vcuda::Counters::memcpy_async_calls));
  m.emplace_back("vcuda.stream_syncs_per_op",
                 dev(&vcuda::Counters::stream_syncs));
  m.emplace_back("vcuda.mallocs_per_op", dev(&vcuda::Counters::mallocs));
  m.emplace_back("vcuda.graph_launches_per_op",
                 dev(&vcuda::Counters::graph_launches));

  m.emplace_back("sysmpi.wire_floor_virt_us", run.wire_floor_us);
  m.emplace_back("sysmpi.messages_per_op",
                 static_cast<double>(at(Layer::SysSend).count) / ops);
  m.emplace_back("sysmpi.bytes_per_op",
                 static_cast<double>(at(Layer::SysSend).bytes) / ops);

  for (const char *lock :
       {"pool", "depot", "vcuda_streams", "trace_rings", "tune_refresh"}) {
    const std::string base = std::string("tempi.lock.") + lock;
    m.emplace_back(std::string("locks.") + lock + ".contended_ratio",
                   ratio(d(base + ".contended"), d(base + ".acquires")));
  }

  using tempi::trace::Phase;
  for (const Phase p :
       {Phase::PackLaunch, Phase::Wire, Phase::Unpack, Phase::GraphReplay,
        Phase::LeaseAcquire, Phase::ModelChoice, Phase::KernelExec,
        Phase::MemcpyExec}) {
    m.emplace_back(std::string("phase.") + tempi::trace::phase_name(p) +
                       ".virt_us_per_op",
                   run.tempi.phases[static_cast<std::size_t>(p)].total_us /
                       ops);
  }
  m.emplace_back("trace.drops", static_cast<double>(run.tempi.dropped));
  m.emplace_back("trace.overhead_pct",
                 100.0 * ratio(run.traced_cpu_ns - run.reference_cpu_ns,
                               run.reference_cpu_ns));
  m.emplace_back("trace.span_coverage_pct", 100.0 * ratio(covered, op_virt));
  return m;
}

double choose_host_ns(const std::vector<Operand> &operands) {
  const tempi::PerfModel &model = tempi::perf_model();
  constexpr int kCalls = 1 << 18;
  std::uint64_t sink = 0;
  const std::int64_t t0 = wall_ns();
  for (int i = 0; i < kCalls; ++i) {
    const Operand &o = operands[static_cast<std::size_t>(i) % operands.size()];
    sink += static_cast<std::uint64_t>(
        model.choose_transfer(o.first, o.second).method);
  }
  const std::int64_t t1 = wall_ns();
  return (static_cast<double>(t1 - t0) + static_cast<double>(sink & 1)) /
         kCalls;
}

double choice_regret(const std::vector<Operand> &operands,
                     std::uint64_t seed) {
  constexpr std::size_t kSample = 6;
  std::vector<Operand> sample = operands;
  for (std::size_t k = sample.size() - 1; k > 0; --k) {
    std::swap(sample[k], sample[seeded(seed, kRegret, k) % (k + 1)]);
  }
  sample.resize(std::min(kSample, sample.size()));
  double log_sum = 0.0;
  for (const Operand &o : sample) {
    const double best =
        std::min({pingpong_us(tempi::SendMode::ForceOneShot, o),
                  pingpong_us(tempi::SendMode::ForceDevice, o),
                  pingpong_us(tempi::SendMode::ForceStaged, o)});
    log_sum += std::log(pingpong_us(tempi::SendMode::Auto, o) / best);
  }
  return std::exp(log_sum / static_cast<double>(sample.size()));
}

double wire_floor_us(FloorShape shape, const std::vector<std::size_t> &bytes) {
  std::vector<double> us(bytes.size(), 0.0);
  const auto device = [](std::size_t n) {
    void *p = nullptr;
    vcuda::Malloc(&p, n);
    return p;
  };
  if (shape == FloorShape::SelfCycle) {
    std::thread worker([&] {
      int provided = 0;
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
      for (std::size_t k = 0; k < bytes.size(); ++k) {
        const int n = static_cast<int>(bytes[k]);
        void *s = device(bytes[k]);
        void *r = device(bytes[k]);
        std::vector<double> rounds;
        for (int round = 0; round < 4; ++round) {
          const vcuda::VirtualNs t0 = vcuda::virtual_now();
          for (int leg = 0; leg < 2; ++leg) {
            MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
            MPI_Irecv(r, n, MPI_BYTE, 0, leg, MPI_COMM_WORLD, &reqs[0]);
            MPI_Isend(s, n, MPI_BYTE, 0, leg, MPI_COMM_WORLD, &reqs[1]);
            MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE);
          }
          if (round > 0) {
            rounds.push_back(vcuda::ns_to_us(vcuda::virtual_now() - t0));
          }
        }
        us[k] = median3(rounds);
        vcuda::Free(s);
        vcuda::Free(r);
      }
      MPI_Finalize();
    });
    worker.join();
  } else {
    sysmpi::RunConfig cfg;
    cfg.ranks = 2;
    cfg.ranks_per_node = 1;
    std::array<std::vector<double>, 2> per_rank;
    sysmpi::run_ranks(cfg, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      const int peer = 1 - rank;
      auto &mine = per_rank[static_cast<std::size_t>(rank)];
      mine.assign(bytes.size(), 0.0);
      for (std::size_t k = 0; k < bytes.size(); ++k) {
        const int n = static_cast<int>(bytes[k]);
        void *s = device(bytes[k]);
        void *r = device(bytes[k]);
        std::vector<double> rounds;
        for (int round = 0; round < 4; ++round) {
          MPI_Barrier(MPI_COMM_WORLD);
          const vcuda::VirtualNs t0 = vcuda::virtual_now();
          if (shape == FloorShape::Exchange) {
            MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
            MPI_Irecv(r, n, MPI_BYTE, peer, round, MPI_COMM_WORLD, &reqs[0]);
            MPI_Isend(s, n, MPI_BYTE, peer, round, MPI_COMM_WORLD, &reqs[1]);
            MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE);
          } else if (rank == 0) {
            MPI_Send(s, n, MPI_BYTE, 1, round, MPI_COMM_WORLD);
          } else {
            MPI_Recv(r, n, MPI_BYTE, 0, round, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
          }
          if (round > 0) {
            rounds.push_back(vcuda::ns_to_us(vcuda::virtual_now() - t0));
          }
        }
        mine[k] = median3(rounds);
        vcuda::Free(s);
        vcuda::Free(r);
      }
      MPI_Finalize();
    });
    for (std::size_t k = 0; k < bytes.size(); ++k) {
      us[k] = shape == FloorShape::Exchange
                  ? std::max(per_rank[0][k], per_rank[1][k])
                  : per_rank[1][k];
    }
  }
  double sum = 0.0;
  for (const double u : us) {
    sum += u;
  }
  return sum / static_cast<double>(us.size());
}

} // namespace bm
