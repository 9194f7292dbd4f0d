// Seeded generator of random strided datatypes, shared by the property
// suite and the MPI_Pack/MPI_Unpack replay suite: random nestings of
// contiguous / vector / hvector / subarray over random named types, with
// care to keep objects self-consistent (strides >= block spans, bounded
// total size).
#pragma once

#include "sysmpi/mpi.hpp"

#include <random>

namespace testing_helpers {

struct Rng {
  std::mt19937 gen;
  explicit Rng(unsigned seed) : gen(seed) {}
  int uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(gen);
  }
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(gen) < p;
  }
};

inline MPI_Datatype random_named(Rng &rng) {
  switch (rng.uniform(0, 3)) {
  case 0: return MPI_BYTE;
  case 1: return MPI_SHORT;
  case 2: return MPI_FLOAT;
  default: return MPI_DOUBLE;
  }
}

/// Build and commit a random nested type from the strided constructor
/// family. Nest outward: each level wraps the previous with a
/// gap-free-or-gapped stride, so traversal order equals address order.
inline MPI_Datatype random_strided_type(Rng &rng, int levels) {
  MPI_Datatype cur = random_named(rng);
  bool owned = false;
  for (int level = 0; level < levels; ++level) {
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(cur, &lb, &extent);
    MPI_Datatype next = nullptr;
    switch (rng.uniform(0, 3)) {
    case 0: {
      MPI_Type_contiguous(rng.uniform(1, 5), cur, &next);
      break;
    }
    case 1: {
      const int blocklen = rng.uniform(1, 4);
      const int stride = blocklen + rng.uniform(0, 3); // in elements
      MPI_Type_vector(rng.uniform(1, 5), blocklen, stride, cur, &next);
      break;
    }
    case 2: {
      const int blocklen = rng.uniform(1, 4);
      const MPI_Aint stride =
          extent * blocklen + rng.uniform(0, 2) * extent;
      MPI_Type_create_hvector(rng.uniform(1, 5), blocklen, stride, cur,
                              &next);
      break;
    }
    default: {
      const int sub = rng.uniform(1, 4);
      const int size = sub + rng.uniform(0, 3);
      const int start = rng.uniform(0, size - sub);
      const int sizes[1] = {size}, subsizes[1] = {sub}, starts[1] = {start};
      MPI_Type_create_subarray(1, sizes, subsizes, starts, MPI_ORDER_C, cur,
                               &next);
      break;
    }
    }
    if (owned) {
      MPI_Type_free(&cur);
    }
    cur = next;
    owned = true;
  }
  MPI_Type_commit(&cur);
  return cur;
}

} // namespace testing_helpers
