// tempi_benchmark: measures one workload of the TEMPI reproduction end to
// end and prints one JSON object on its last line of stdout.
//
//   tempi_benchmark --workload <name> --seed <n> --seconds <s>
//                   [--trace 0|1] [--trace-file <path>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// benchmark/run.py builds this program, runs it and formats its output.
#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

namespace {

std::string json_string(const std::string &s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

int usage(const char *argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "[--trace 0|1] [--trace-file <path>]\nworkloads:",
               argv0);
  for (const std::string &name : bm::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) ||                       \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "tempi_benchmark: refusing to measure a debug or "
                       "sanitizer build; configure with "
                       "-DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  bm::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char *value = argv[i + 1];
    char *end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (key == "--trace-file") {
      opts.trace_file = value;
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || !(opts.seconds >= 0.0)) {
    return usage(argv[0]);
  }

  bm::Report report;
  try {
    report = bm::run_workload(opts);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "tempi_benchmark: %s\n", e.what());
    return 2;
  }

  std::string out = "{\"workload\": " + json_string(opts.workload) +
                    ", \"seed\": " + std::to_string(opts.seed) +
                    ", \"trace\": " + (opts.trace ? "1" : "0") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"metrics\": {";
  const char *sep = "";
  // A metric that could not be measured (NaN, as from an empty sample) is
  // written as null, which run.py reports as missing.
  for (const auto &[name, value] : report.metrics) {
    char num[64] = "null";
    if (std::isfinite(value)) {
      std::snprintf(num, sizeof num, "%.17g", value);
    }
    out += sep + json_string(name) + ": " + num;
    sep = ", ";
  }
  out += "}, \"info\": {";
  sep = "";
  report.info.emplace_back("nproc",
                           std::to_string(std::thread::hardware_concurrency()));
#if defined(__clang__)
  report.info.emplace_back("compiler", "clang " __clang_version__);
#else
  report.info.emplace_back("compiler", "gcc " __VERSION__);
#endif
  for (const auto &[key, value] : report.info) {
    out += sep + json_string(key) + ": " + json_string(value);
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
