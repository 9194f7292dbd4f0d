// The benchmark's workloads and the run that measures one of them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bm {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0; ///< wall seconds the timed loop runs at least
  bool trace = false;    ///< per-layer run instead of the end-to-end one
  std::string trace_file; ///< Chrome trace of the benchmark's spans, or ""
};

struct Report {
  std::uint64_t attempted = 0; ///< operations run, set-ups included
  std::uint64_t failed = 0;    ///< operations with an MPI error or mismatch
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
};

/// Names run_workload() accepts.
const std::vector<std::string> &workload_names();

/// Measure one workload: repeated fresh set-ups, a warm-up, then either the
/// untraced timed loop plus the system-path comparison (end-to-end
/// metrics) or an untraced and a traced loop of equal length (per-layer
/// metrics).
Report run_workload(const Options &opts);

} // namespace bm
