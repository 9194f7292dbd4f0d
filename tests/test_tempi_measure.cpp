// The system-measurement workflow (Sec. 6.3): measure_system() produces
// tables consistent with the built-in calibration, the file round-trips,
// and MPI_Init picks the file up.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/measure.hpp"
#include "tempi/tempi.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

namespace {

/// Shared one-shot measurement (the full grid takes a few seconds).
const tempi::SystemPerf &measured() {
  static const tempi::SystemPerf perf = tempi::measure_system(3);
  return perf;
}

TEST(Measure, TransferTablesShowTheFig9aStructure) {
  const tempi::SystemPerf &p = measured();
  EXPECT_LT(p.cpu_cpu.query(8.0), p.gpu_gpu.query(8.0)); // floors
  EXPECT_GT(p.gpu_gpu.query(8.0), 5.0);
  EXPECT_GT(p.cpu_cpu.query(1 << 20), 50.0); // bandwidth regime
}

TEST(Measure, MeasuredMatchesBuiltinCalibration) {
  // The empirical measurement of the virtual platform must agree with the
  // analytic tables derived from the same cost model (within measurement
  // granularity): this ties the two model paths together.
  const tempi::SystemPerf &emp = measured();
  const tempi::SystemPerf ana = tempi::builtin_perf();
  for (const double size : {64.0, 4096.0, 262144.0}) {
    EXPECT_NEAR(emp.cpu_cpu.query(size), ana.cpu_cpu.query(size),
                0.25 * ana.cpu_cpu.query(size) + 1.0)
        << size;
    EXPECT_NEAR(emp.d2h.query(size), ana.d2h.query(size),
                0.25 * ana.d2h.query(size) + 1.0)
        << size;
  }
  for (const double block : {1.0, 32.0, 128.0}) {
    EXPECT_NEAR(emp.device_pack.query(block, 1 << 20),
                ana.device_pack.query(block, 1 << 20),
                0.3 * ana.device_pack.query(block, 1 << 20) + 2.0)
        << block;
  }
}

TEST(Measure, PackTablesShowBlockStructure) {
  const tempi::SystemPerf &p = measured();
  EXPECT_GT(p.device_pack.query(1.0, 1 << 22),
            p.device_pack.query(128.0, 1 << 22));
  EXPECT_GT(p.oneshot_unpack.query(4.0, 1 << 20),
            p.oneshot_pack.query(4.0, 1 << 20));
}

TEST(Measure, FileRoundtripAndInitLoad) {
  const std::string path = "test_measure_init.txt";
  ASSERT_TRUE(tempi::save_perf(measured(), path));

  // MPI_Init under the interposer should load this file.
  ::setenv("TEMPI_PERF_FILE", path.c_str(), 1);
  EXPECT_EQ(tempi::perf_file_path(), path);
  tempi::install();
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  sysmpi::run_ranks(cfg, [](int) {
    MPI_Init(nullptr, nullptr);
    MPI_Finalize();
  });
  tempi::uninstall();
  ::unsetenv("TEMPI_PERF_FILE");
  std::filesystem::remove(path);
}

TEST(Measure, DefaultPathWithoutEnv) {
  ::unsetenv("TEMPI_PERF_FILE");
  EXPECT_EQ(tempi::perf_file_path(), "tempi_perf.txt");
}

TEST(Measure, ModelFromMeasurementsSelectsLikeBuiltin) {
  const tempi::PerfModel empirical{measured()};
  const tempi::PerfModel analytic{};
  int agree = 0, total = 0;
  for (std::size_t block : {1u, 8u, 64u, 256u}) {
    for (std::size_t size : {1024u, 65536u, 1u << 20, 4u << 20}) {
      ++total;
      if (empirical.choose_transfer(block, size).method ==
          analytic.choose_transfer(block, size).method) {
        ++agree;
      }
    }
  }
  // Near-unanimous agreement; boundary cells may flip.
  EXPECT_GE(agree, total - 2);
}

} // namespace
