// Datatype zoo: the Sec. 2 menagerie — many distinct MPI constructions of
// the same 3-D object — shown translating and canonicalizing to one common
// IR, then packing at identical speed through TEMPI.
//
// Usage: ./examples/datatype_zoo
#include "interpose/table.hpp"
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/canonicalize.hpp"
#include "tempi/tempi.hpp"
#include "tempi/translate.hpp"
#include "vcuda/runtime.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

// The Fig. 1 object: E0 x E1 x E2 floats in an A0 x A1 x A2 byte
// allocation. A row of E0 = 100 floats is 400 bytes, so A0 is widened to
// 512 bytes, the next power of two that holds it.
constexpr int kA0 = 512, kA1 = 512, kA2 = 64;
constexpr int kE0 = 100, kE1 = 13, kE2 = 47;

struct ZooEntry {
  std::string name;
  MPI_Datatype type;
};

std::vector<ZooEntry> build_zoo() {
  std::vector<ZooEntry> zoo;

  {
    const int sizes[3] = {kA2, kA1, kA0 / 4};
    const int subsizes[3] = {kE2, kE1, kE0};
    const int starts[3] = {0, 0, 0};
    MPI_Datatype t = nullptr;
    MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C,
                             MPI_FLOAT, &t);
    zoo.push_back({"subarray<float>", t});
  }
  {
    const int sizes[3] = {kA2, kA1, kA0};
    const int subsizes[3] = {kE2, kE1, kE0 * 4};
    const int starts[3] = {0, 0, 0};
    MPI_Datatype t = nullptr;
    MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C,
                             MPI_BYTE, &t);
    zoo.push_back({"subarray<byte>", t});
  }
  {
    MPI_Datatype plane = nullptr, cuboid = nullptr;
    MPI_Type_vector(kE1, kE0, kA0 / 4, MPI_FLOAT, &plane);
    MPI_Type_create_hvector(kE2, 1, static_cast<MPI_Aint>(kA0) * kA1, plane,
                            &cuboid);
    MPI_Type_free(&plane);
    zoo.push_back({"hvector(vector<float>)", cuboid});
  }
  {
    MPI_Datatype row = nullptr, plane = nullptr, cuboid = nullptr;
    MPI_Type_contiguous(kE0, MPI_FLOAT, &row);
    MPI_Type_create_hvector(kE1, 1, kA0, row, &plane);
    MPI_Type_create_hvector(kE2, 1, static_cast<MPI_Aint>(kA0) * kA1, plane,
                            &cuboid);
    MPI_Type_free(&plane);
    MPI_Type_free(&row);
    zoo.push_back({"hvector(hvector(contig))", cuboid});
  }
  {
    MPI_Datatype row = nullptr, plane = nullptr, cuboid = nullptr;
    MPI_Type_vector(1, kE0, 1, MPI_FLOAT, &row);
    MPI_Type_create_hvector(kE1, 1, kA0, row, &plane);
    MPI_Type_create_hvector(kE2, 1, static_cast<MPI_Aint>(kA0) * kA1, plane,
                            &cuboid);
    MPI_Type_free(&plane);
    MPI_Type_free(&row);
    zoo.push_back({"hvector(hvector(vector))", cuboid});
  }
  {
    const int sizes[2] = {kA1, kA0 / 4};
    const int subsizes[2] = {kE1, kE0};
    const int starts[2] = {0, 0};
    MPI_Datatype plane = nullptr, cuboid = nullptr;
    MPI_Type_create_subarray(2, sizes, subsizes, starts, MPI_ORDER_C,
                             MPI_FLOAT, &plane);
    MPI_Type_create_hvector(kE2, 1, static_cast<MPI_Aint>(kA0) * kA1, plane,
                            &cuboid);
    MPI_Type_free(&plane);
    zoo.push_back({"hvector(subarray2d)", cuboid});
  }
  return zoo;
}

} // namespace

int main() {
  sysmpi::ensure_self_context();
  tempi::ScopedInterposer guard;

  std::printf("Six constructions of the same %dx%dx%d-float object:\n\n",
              kE0, kE1, kE2);

  std::vector<ZooEntry> zoo = build_zoo();
  std::string canonical;
  for (const ZooEntry &e : zoo) {
    auto ir = tempi::translate(e.type, interpose::system_table());
    if (!ir) {
      std::printf("  %-28s (not translatable)\n", e.name.c_str());
      continue;
    }
    const std::size_t raw_depth = ir->depth();
    tempi::simplify(*ir);
    const std::string canon = tempi::to_string(*ir);
    std::printf("  %-28s depth %zu -> %zu   %s\n", e.name.c_str(), raw_depth,
                ir->depth(), canon.c_str());
    if (canonical.empty()) {
      canonical = canon;
    } else if (canon != canonical) {
      std::printf("    ^^ MISMATCH against first construction!\n");
    }
  }

  std::printf("\nPack latency through TEMPI (identical kernel for all):\n");
  void *src = nullptr, *dst = nullptr;
  vcuda::Malloc(&src, static_cast<std::size_t>(kA0) * kA1 * kA2);
  vcuda::Malloc(&dst, static_cast<std::size_t>(kE0) * 4 * kE1 * kE2);
  for (ZooEntry &e : zoo) {
    MPI_Type_commit(&e.type);
    int size = 0;
    MPI_Type_size(e.type, &size);
    int position = 0;
    const double t0 = MPI_Wtime();
    MPI_Pack(src, 1, e.type, dst, size, &position, MPI_COMM_WORLD);
    std::printf("  %-28s %8.1f us\n", e.name.c_str(),
                (MPI_Wtime() - t0) * 1e6);
  }
  vcuda::Free(src);
  vcuda::Free(dst);
  for (ZooEntry &e : zoo) {
    MPI_Type_free(&e.type);
  }
  return 0;
}
