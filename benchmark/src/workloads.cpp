#include "workloads.hpp"

#include "layers.hpp"
#include "probe.hpp"
#include "ranks.hpp"

#include "interpose/table.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace bm {

namespace {

/// How the threads' per-op latencies combine into one sample per op.
enum class Aggregate : std::uint8_t {
  MaxOverRanks, ///< halo: an exchange ends when the slower rank's does
  Receiver,     ///< ping-pong: thread 1 times the receive
  Pooled,       ///< independent threads: every thread's op is a sample
};

struct Workload {
  std::string name;
  bool plain_threads = false; ///< 2 std::threads with self-contexts
  Aggregate aggregate = Aggregate::MaxOverRanks;
  std::uint64_t min_ops = 0;    ///< ops the virtual metrics are taken over
  std::uint64_t traced_ops = 0; ///< length of each loop of a traced run
  /// The system-path comparison reruns the first `system_scan` timed ops
  /// on the system path, keeping up to `system_per_class` of each class.
  std::uint64_t system_scan = 0;
  std::uint64_t system_per_class = 0;
  std::function<std::unique_ptr<Rank>(std::uint64_t, int)> make;
  std::function<std::vector<Operand>()> operands;
  FloorShape floor = FloorShape::Exchange;
  std::function<std::vector<std::size_t>()> floor_bytes;
  const char *paper = ""; ///< the paper's own number to print beside ours
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> table = {
      {"halo_coll", false, Aggregate::MaxOverRanks, 20000, 600, 100, 100,
       [](std::uint64_t seed, int) {
         return make_halo_rank(seed, HaloPath::Collective);
       },
       halo_operands, FloorShape::Exchange,
       [] { return std::vector<std::size_t>{halo_bytes()}; },
       "paper Fig. 12: 917x at 1 node, 1050x at larger scale"},
      {"halo_p2p", false, Aggregate::MaxOverRanks, 20000, 600, 100, 100,
       [](std::uint64_t seed, int) {
         return make_halo_rank(seed, HaloPath::PointToPoint);
       },
       halo_operands, FloorShape::Exchange,
       [] { return std::vector<std::size_t>{halo_bytes()}; },
       "paper Fig. 12: 917x at 1 node, 1050x at larger scale"},
      {"p2p_mix", false, Aggregate::Receiver, 16000, 4000, 800, 3,
       make_p2p_rank, p2p_operands, FloorShape::OneWay,
       [] {
         std::vector<std::size_t> bytes;
         for (const Operand &o : p2p_operands()) {
           bytes.push_back(o.second);
         }
         return bytes;
       },
       "paper Table 1: ping-pong 60us (1KiB), 354us (1MiB); Fig. 11: up to "
       "59000x"},
      {"hotpath_mt", true, Aggregate::Pooled, 20000, 20000, 200, 200,
       make_hotpath_rank, hotpath_operands, FloorShape::SelfCycle,
       [] { return std::vector<std::size_t>{hotpath_operands()[0].second}; },
       "paper Sec. 5: interposer overhead of tens to hundreds of ns per "
       "call"},
  };
  return table;
}

/// Fresh set-ups per run; cold_op_virt_us is their median. setup_s is the
/// median of all but the first kWarmSetups, which also pay the process's
/// one-time costs (heap growth, first-touch page faults, static init) and
/// fall steeply from one to the next.
constexpr int kSetups = 105;
constexpr int kWarmSetups = 5;
/// An untraced run times its loop in kSessions sessions of equal op count,
/// each continuing every (kSetups / kSessions)-th set-up, so that the
/// set-ups are spread over the whole run. On a shared host the CPU time of
/// a set-up follows the machine's load from one second to the next, and a
/// median over set-ups taken in one burst follows the load of that moment.
constexpr int kSessions = 5;
static_assert(kSetups % kSessions == 0);
/// Host metrics are medians over windows of at least this much loop time.
constexpr std::int64_t kWindowNs = 250'000'000;

/// Loop progress at the end of a window (see kWindowNs).
struct Checkpoint {
  std::uint64_t ops = 0;
  std::int64_t cpu_ns = 0;  ///< this thread, verification excluded
  std::int64_t wall_ns = 0; ///< loop wall time, verification excluded
};

/// What one thread saw in a loop. Per-op records stop at the loop's
/// min_ops, so the benchmark's own memory does not grow with run length.
struct LoopResult {
  std::vector<Checkpoint> checkpoints;
  std::vector<Latency> latency;
  std::vector<int> op_class;
  std::vector<std::uint64_t> bad; ///< loop positions of ops with an MPI
                                  ///< error or a mismatch
  std::int64_t cpu_ns = 0;        ///< thread CPU, verification excluded
  std::uint64_t ops = 0;
};

struct ThreadResult {
  Latency cold = -1;
  std::int64_t setup_cpu_ns = 0; ///< thread CPU of MPI_Init, connect, cold op
  std::uint64_t attempted = 0; ///< ops outside the loops
  std::uint64_t failed = 0;
  LoopResult timed, reference;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double residual = std::nan("");
};

/// State the two threads of a run share.
struct Shared {
  std::barrier<> barrier{2};
  std::atomic<bool> stop{false};
  std::atomic<bool> window_end{false};
  std::int64_t start = 0, paused = 0, pause_at = 0; // thread 0 only
  std::int64_t window_start = 0;                    // thread 0 only
  double warm_rss_mib = 0.0;                        // thread 0 only
  TracedRun traced;                                 // thread 0 only
};

/// Run `fn` on thread 0 while thread 1 waits, with both threads between
/// ops.
void on_thread0(int t, Shared &sh, const std::function<void()> &fn) {
  sh.barrier.arrive_and_wait();
  if (t == 0) {
    fn();
  }
  sh.barrier.arrive_and_wait();
}

struct LoopSpec {
  std::uint64_t first = 0; ///< index of the loop's first op in the op stream
  std::uint64_t min_ops = 0;
  double seconds = 0.0;
  bool traced = false;
};

/// The closed loop. Verified ops are bracketed by barriers; the time both
/// threads spend between those barriers (poisoning, checking, deciding
/// whether to stop) is excluded from the host clocks, and the stop
/// decision is only taken there, so both threads run the same ops.
LoopResult run_loop(Rank &rank, int t, Shared &sh, std::uint64_t seed,
                    const LoopSpec &spec) {
  LoopResult out;
  out.latency.reserve(spec.min_ops);
  out.op_class.reserve(spec.min_ops);
  on_thread0(t, sh, [&] {
    sh.stop.store(false, std::memory_order_relaxed);
    sh.paused = 0;
    sh.start = wall_ns();
    sh.window_start = 0;
  });
  std::int64_t excluded = 0;
  const std::int64_t cpu0 = thread_cpu_ns();
  const auto segment = [&](const std::function<void()> &work) {
    const std::int64_t c = thread_cpu_ns();
    sh.barrier.arrive_and_wait();
    if (t == 0) {
      sh.pause_at = wall_ns();
    }
    work();
    sh.barrier.arrive_and_wait();
    if (t == 0) {
      sh.paused += wall_ns() - sh.pause_at;
    }
    excluded += thread_cpu_ns() - c;
  };
  take_failed_calls();
  for (std::uint64_t n = 0;; ++n) {
    const std::uint64_t i = spec.first + n;
    const bool check = verified(seed, i);
    if (check) {
      segment([&] { rank.prepare(i); });
    }
    Latency latency = -1;
    if (spec.traced) {
      set_op(i + 1);
      const ScopedSpan span(Layer::Op);
      latency = rank.op({OpKind::Timed, i});
    } else {
      latency = rank.op({OpKind::Timed, i});
    }
    bool bad = take_failed_calls() != 0;
    if (check) {
      segment([&] {
        bad = !rank.verify(i) || bad;
        if (t == 0) {
          const std::int64_t active = sh.pause_at - sh.start - sh.paused;
          const bool stop = n + 1 >= spec.min_ops &&
                            static_cast<double>(active) >= spec.seconds * 1e9;
          const bool window = stop || active - sh.window_start >= kWindowNs;
          if (window) {
            sh.window_start = active;
          }
          sh.stop.store(stop, std::memory_order_relaxed);
          sh.window_end.store(window, std::memory_order_relaxed);
        }
      });
      if (sh.window_end.load(std::memory_order_relaxed)) {
        out.checkpoints.push_back({n + 1, thread_cpu_ns() - cpu0 - excluded,
                                   sh.window_start});
      }
    }
    if (n < spec.min_ops) {
      out.latency.push_back(latency);
      out.op_class.push_back(rank.op_class(i));
    }
    if (bad) {
      out.bad.push_back(n);
    }
    if (check && sh.stop.load(std::memory_order_relaxed)) {
      out.ops = n + 1;
      break;
    }
  }
  out.cpu_ns = thread_cpu_ns() - cpu0 - excluded;
  return out;
}

/// Thread CPU the calling workload thread spent in MPI_Init. Set-up time
/// counts from MPI_Init, so creating the thread is not counted.
thread_local std::int64_t t_init_cpu = 0;

/// Launch the workload's two threads with MPI initialized on each and wait
/// for them. Returns the run id their spans carry.
int launch(const Workload &w, const std::function<void(int)> &body) {
  const int run = begin_run();
  const auto thread_main = [&](int t) {
    begin_thread(t);
    const std::int64_t cpu0 = thread_cpu_ns();
    if (w.plain_threads) {
      int provided = 0;
      MPI_Init_thread(nullptr, nullptr, MPI_THREAD_MULTIPLE, &provided);
    } else {
      MPI_Init(nullptr, nullptr);
    }
    t_init_cpu = thread_cpu_ns() - cpu0;
    body(t);
    MPI_Finalize();
  };
  if (!w.plain_threads) {
    sysmpi::RunConfig cfg;
    cfg.ranks = 2;
    cfg.ranks_per_node = 1;
    sysmpi::run_ranks(cfg, thread_main);
    return run;
  }
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      try {
        thread_main(t);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) {
          error = std::current_exception();
        }
      }
    });
  }
  for (std::thread &th : threads) {
    th.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return run;
}

/// One latency sample per op (ns) over the first `n` ops.
std::vector<double> samples(const Workload &w, const std::vector<Latency> &a,
                            const std::vector<Latency> &b, std::uint64_t n) {
  std::vector<double> out;
  const std::size_t m = std::min<std::size_t>({n, a.size(), b.size()});
  for (std::size_t i = 0; i < m; ++i) {
    switch (w.aggregate) {
    case Aggregate::MaxOverRanks:
      out.push_back(static_cast<double>(std::max(a[i], b[i])));
      break;
    case Aggregate::Receiver:
      out.push_back(static_cast<double>(b[i]));
      break;
    case Aggregate::Pooled:
      out.push_back(static_cast<double>(a[i]));
      out.push_back(static_cast<double>(b[i]));
      break;
    }
  }
  return out;
}

/// Per-class latency samples of a loop pair (classes as thread 0 saw them).
std::map<int, std::vector<double>> by_class(const Workload &w,
                                            const LoopResult &a,
                                            const LoopResult &b) {
  std::map<int, std::vector<double>> out;
  const std::vector<double> all = samples(w, a.latency, b.latency, a.ops);
  const std::size_t per_op = w.aggregate == Aggregate::Pooled ? 2 : 1;
  for (std::size_t k = 0; k < all.size(); ++k) {
    const int cls = a.op_class[k / per_op];
    if (cls >= 0) {
      out[cls].push_back(all[k]);
    }
  }
  return out;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Thread-CPU ns per op (summed over both threads) and ops per wall second,
/// each the median over consecutive windows of at least kWindowNs of loop
/// time, so a burst of interference from outside the benchmark moves a few
/// windows rather than the whole result.
std::pair<double, double> host_rates(const Workload &w, const LoopResult &a,
                                     const LoopResult &b) {
  const double per_op = w.aggregate == Aggregate::Pooled ? 2.0 : 1.0;
  std::vector<double> cpu_per_op, ops_per_s;
  Checkpoint from_a, from_b;
  const std::size_t n = std::min(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t k = 0; k < n; ++k) {
    const Checkpoint &ca = a.checkpoints[k], &cb = b.checkpoints[k];
    const std::int64_t wall = ca.wall_ns - from_a.wall_ns;
    const double ops = static_cast<double>(ca.ops - from_a.ops) * per_op;
    cpu_per_op.push_back(static_cast<double>(ca.cpu_ns - from_a.cpu_ns +
                                             cb.cpu_ns - from_b.cpu_ns) /
                         ops);
    ops_per_s.push_back(ops / (static_cast<double>(wall) / 1e9));
    from_a = ca;
    from_b = cb;
  }
  return {median(cpu_per_op), median(ops_per_s)};
}

/// Append the next session's loop to `into`.
void append(LoopResult &into, const LoopResult &next) {
  into.latency.insert(into.latency.end(), next.latency.begin(),
                      next.latency.end());
  into.op_class.insert(into.op_class.end(), next.op_class.begin(),
                       next.op_class.end());
  for (const std::uint64_t n : next.bad) {
    into.bad.push_back(into.ops + n);
  }
  into.cpu_ns += next.cpu_ns;
  into.ops += next.ops;
}

/// Ops of a loop pair, and how many of them failed on either thread.
std::pair<std::uint64_t, std::uint64_t>
loop_counts(const Workload &w, const LoopResult &a, const LoopResult &b) {
  if (w.aggregate == Aggregate::Pooled) {
    return {a.ops + b.ops, a.bad.size() + b.bad.size()};
  }
  std::vector<std::uint64_t> either;
  std::set_union(a.bad.begin(), a.bad.end(), b.bad.begin(), b.bad.end(),
                 std::back_inserter(either));
  return {a.ops, either.size()};
}

/// Peak resident set of this program image. getrusage's ru_maxrss is not
/// used: Linux carries it across exec, so a process started from a larger
/// parent (the Python runner) would report the parent's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return kib / 1024.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

const std::vector<std::string> &workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload &w : workloads()) {
      out.push_back(w.name);
    }
    return out;
  }();
  return names;
}

namespace {

/// Ops run after the cold op and before timing starts; they run every kind
/// of op the loop runs. Both threads start each one together, so neither
/// runs ahead and the system MPI never buffers more than one op's messages:
/// the peak resident set read after a warm-up does not depend on how far
/// one thread got ahead of the other.
void warm_up(Rank &rank, Shared &sh, ThreadResult &r) {
  for (std::uint64_t j = 0; j < rank.warmup_ops(); ++j) {
    sh.barrier.arrive_and_wait();
    rank.op({OpKind::Warm, j});
    r.attempted += 1;
    r.failed += take_failed_calls() != 0 ? 1 : 0;
  }
}

/// The measured part of a set-up's run, on thread t: warm-up, then one
/// session of the timed loop, or (traced) an untraced and a traced loop of
/// equal length.
void measure(const Workload &w, const Options &opts, Rank &rank, int t,
             Shared &sh, ThreadResult &r, std::uint64_t session) {
  on_thread0(t, sh, [] { set_armed(false); });
  warm_up(rank, sh, r);
  if (!opts.trace) {
    const std::uint64_t n = w.min_ops / kSessions;
    r.timed = run_loop(rank, t, sh, opts.seed,
                       {session * n, n, opts.seconds / kSessions, false});
    return;
  }
  on_thread0(t, sh, [&] { sh.traced.tuner_before = snapshot_counters(); });
  r.reference =
      run_loop(rank, t, sh, opts.seed, {0, w.traced_ops, opts.seconds, false});
  on_thread0(t, sh, [&] {
    tempi::trace::reset();
    tempi::trace::set_default_ring_capacity(std::size_t{1} << 21);
    tempi::trace::set_enabled(true);
    set_armed(true);
    sh.traced.before = snapshot_counters();
  });
  const tempi::BufferCacheStats c0 = tempi::buffer_cache_stats();
  r.timed = run_loop(rank, t, sh, opts.seed, {0, w.traced_ops, 0.0, true});
  const tempi::BufferCacheStats c1 = tempi::buffer_cache_stats();
  r.cache_hits = c1.hits - c0.hits;
  r.cache_misses = c1.misses - c0.misses;
  on_thread0(t, sh, [&] {
    set_armed(false);
    tempi::trace::set_enabled(false);
    sh.traced.after = snapshot_counters();
    sh.traced.tempi = tempi::trace_snapshot();
  });
}

struct SystemRun {
  std::array<LoopResult, 2> loops;
  std::array<double, 2> residual{std::nan(""), std::nan("")};
  std::uint64_t failed = 0;
};

/// The same seeded ops on the system path (TEMPI not installed): the first
/// system_per_class ops of each class among the first system_scan. Every
/// one is verified; there are few, and this run is not timed.
SystemRun run_system_path(const Workload &w, std::uint64_t seed) {
  SystemRun out;
  std::array<std::uint64_t, 2> failed{0, 0};
  install_app_probe();
  launch(w, [&](int t) {
    const auto ut = static_cast<std::size_t>(t);
    LoopResult &loop = out.loops[ut];
    std::unique_ptr<Rank> rank = w.make(seed, t);
    rank->connect();
    failed[ut] += take_failed_calls() != 0 ? 1 : 0;
    std::map<int, std::uint64_t> taken;
    for (std::uint64_t i = 0; i < w.system_scan; ++i) {
      const int cls = rank->op_class(i);
      if (cls < 0 || taken[cls] >= w.system_per_class) {
        continue;
      }
      ++taken[cls];
      rank->prepare(i);
      loop.latency.push_back(rank->op({OpKind::Timed, i}));
      loop.op_class.push_back(cls);
      const bool bad = take_failed_calls() != 0;
      failed[ut] += !rank->verify(i) || bad ? 1 : 0;
    }
    loop.ops = loop.latency.size();
    out.residual[ut] = rank->residual();
    rank.reset();
    failed[ut] += take_failed_calls() != 0 ? 1 : 0;
  });
  interpose::uninstall();
  out.failed = failed[0] + failed[1];
  return out;
}

} // namespace

Report run_workload(const Options &opts) {
  const auto found = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload &w) { return w.name == opts.workload; });
  if (found == workloads().end()) {
    throw std::invalid_argument("unknown workload " + opts.workload);
  }
  const Workload &w = *found;
  const bool pooled = w.aggregate == Aggregate::Pooled;
  Report report;
  std::array<ThreadResult, 2> res;
  std::array<LoopResult, 2> timed;
  Shared sh;
  std::vector<double> setups, colds;
  std::uint64_t leased = 0;
  int loop_run = 0;
  const int per_session = opts.trace ? kSetups : kSetups / kSessions;

  // Fresh set-ups: install, create everything, run the cold op. Every
  // per_session-th one goes on into the warm-up and a session of the timed
  // loop (traced: the last one, into both loops). A set-up is timed
  // in thread CPU: install on this thread, plus on both workload threads
  // MPI_Init and everything from connect() to the end of the cold op. Work
  // moved into set-up shows, while wake-up latencies of a shared 2-core
  // host, which dominate a millisecond of wall time, do not. Allocating and
  // clearing the application's own buffers is not the library's set-up and
  // is not timed.
  for (int rep = 0; rep < kSetups; ++rep) {
    const bool last = rep == kSetups - 1;
    const bool measured = (rep + 1) % per_session == 0;
    res = {};
    const std::int64_t install_cpu0 = thread_cpu_ns();
    if (opts.trace) {
      install_system_probe();
      set_armed(true); // MPI_Type_commit spans of the set-up
    }
    tempi::install();
    install_app_probe();
    const std::int64_t install_cpu = thread_cpu_ns() - install_cpu0;
    loop_run = launch(w, [&](int t) {
      ThreadResult &r = res[static_cast<std::size_t>(t)];
      std::unique_ptr<Rank> rank = w.make(opts.seed, t);
      const std::int64_t cpu0 = thread_cpu_ns();
      rank->connect();
      r.cold = rank->op({OpKind::Cold, static_cast<std::uint64_t>(rep)});
      r.attempted += 1;
      r.failed += take_failed_calls() != 0 ? 1 : 0;
      r.setup_cpu_ns = t_init_cpu + thread_cpu_ns() - cpu0;
      if (rep == 0 && !opts.trace) {
        // peak_rss_mib: the first set-up plus a warm-up, which runs every
        // kind of op the loop runs. Read later, the peak would also count
        // how the heaps of ever new threads fragment and how far one
        // thread ran ahead of the other in the loop, which vary with
        // thread timing from run to run.
        warm_up(*rank, sh, r);
        on_thread0(t, sh, [&] { sh.warm_rss_mib = peak_rss_mib(); });
      }
      if (measured) {
        measure(w, opts, *rank, t, sh, r,
                static_cast<std::uint64_t>(rep / per_session));
        r.residual = rank->residual();
      }
      rank.reset();
      r.failed += take_failed_calls() != 0 ? 1 : 0;
    });
    setups.push_back(static_cast<double>(install_cpu + res[0].setup_cpu_ns +
                                         res[1].setup_cpu_ns) /
                     1e9);
    for (const double c : samples(w, {res[0].cold}, {res[1].cold}, 1)) {
      colds.push_back(c);
    }
    report.attempted += res[0].attempted + (pooled ? res[1].attempted : 0);
    report.failed += res[0].failed + res[1].failed;
    if (measured) {
      append(timed[0], res[0].timed);
      append(timed[1], res[1].timed);
    }
    leased = tempi::buffer_cache_stats().leased_now;
    report.failed += leased != 0 ? 1 : 0;
    if (!last) {
      tempi::uninstall();
    }
  }
  const auto [ops, loop_failed] = loop_counts(w, timed[0], timed[1]);
  report.attempted += ops;
  report.failed += loop_failed;
  report.info.emplace_back("calibration", tempi::model_calibration_source());
  report.info.emplace_back("setups", std::to_string(kSetups));
  report.info.emplace_back("loop_ops", std::to_string(ops));

  if (opts.trace) {
    const auto [ref_ops, ref_failed] =
        loop_counts(w, res[0].reference, res[1].reference);
    report.attempted += ref_ops;
    report.failed += ref_failed;
    TracedRun &tr = sh.traced;
    tr.threads = collect();
    tr.run = loop_run;
    tr.ops = ops;
    tr.traced_cpu_ns = static_cast<double>(timed[0].cpu_ns + timed[1].cpu_ns);
    tr.reference_cpu_ns =
        static_cast<double>(res[0].reference.cpu_ns +
                            res[1].reference.cpu_ns) *
        static_cast<double>(ops) /
        static_cast<double>(std::max<std::uint64_t>(ref_ops, 1));
    std::tie(tr.host_cpu_ns_per_op, tr.host_ops_per_s) =
        host_rates(w, res[0].reference, res[1].reference);
    tr.cache_hits = res[0].cache_hits + res[1].cache_hits;
    tr.cache_misses = res[0].cache_misses + res[1].cache_misses;
    tr.leased_at_end = leased;
    tr.choose_host_ns = choose_host_ns(w.operands());
    tr.choice_regret = choice_regret(w.operands(), opts.seed);
    tr.wire_floor_us = wire_floor_us(w.floor, w.floor_bytes());
    report.metrics = layer_metrics(tr);
    if (!opts.trace_file.empty() &&
        !write_chrome_trace(opts.trace_file, tr.threads, tr.run, 100)) {
      throw std::runtime_error("cannot write " + opts.trace_file);
    }
    tempi::uninstall();
    return report;
  }

  tempi::uninstall();
  const SystemRun sys = run_system_path(w, opts.seed);
  report.attempted +=
      sys.loops[0].ops + (pooled ? sys.loops[1].ops : 0);
  report.failed += sys.failed;
  // residual_norm must agree bitwise across ranks and with the system path.
  if (!std::isnan(res[0].residual) &&
      (!same_bits(res[0].residual, res[1].residual) ||
       !same_bits(res[0].residual, sys.residual[0]) ||
       !same_bits(res[1].residual, sys.residual[1]))) {
    report.failed += 1;
  }

  // Speedup over the system path: per class of comparable ops, system
  // median over TEMPI median; geometric mean over the classes.
  const auto tempi_classes = by_class(w, timed[0], timed[1]);
  const auto sys_classes = by_class(w, sys.loops[0], sys.loops[1]);
  double log_speedup = 0.0;
  for (const auto &[cls, sys_ns] : sys_classes) {
    log_speedup += std::log(median(sys_ns) / median(tempi_classes.at(cls)));
  }
  const double speedup =
      std::exp(log_speedup / static_cast<double>(sys_classes.size()));
  const std::vector<double> lat =
      samples(w, timed[0].latency, timed[1].latency, w.min_ops);

  report.metrics = {
      {"op_virt_us_p50", percentile(lat, 50) / 1e3},
      {"op_virt_us_p99", percentile(lat, 99) / 1e3},
      {"cold_op_virt_us", median(colds) / 1e3},
      {"speedup_vs_system", speedup},
      {"setup_s", median({setups.begin() + kWarmSetups, setups.end()})},
      {"peak_rss_mib", sh.warm_rss_mib},
  };
  report.info.emplace_back("virt_samples", std::to_string(lat.size()));
  report.info.emplace_back("system_ops", std::to_string(sys.loops[0].ops));
  report.info.emplace_back("system_classes",
                           std::to_string(sys_classes.size()));
  report.info.emplace_back("paper", w.paper);
  return report;
}

} // namespace bm
