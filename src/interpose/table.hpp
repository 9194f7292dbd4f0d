// Symbol-table interposition.
//
// In the paper (Sec. 5, Fig. 6), TEMPI is a dynamic library that exports a
// *partial* MPI implementation: the dynamic linker resolves interposed
// symbols to TEMPI (via link order or LD_PRELOAD) and everything else to the
// system MPI; TEMPI reaches the system implementation with dlsym.
//
// This reproduction keeps that exact override/fallback semantics but
// resolves symbols through an explicit function table instead of the OS
// loader, because the "cluster" here is threads inside one process (see
// the README's opening section):
//   * system_table()  — the system MPI's entry points (dlsym(RTLD_NEXT,...))
//   * active_table()  — what the MPI_* wrappers call (the PLT)
//   * install()/uninstall() — LD_PRELOAD / removing it
// An interposer copies active_table(), keeps it as its "next" pointers, and
// overwrites only the entries it implements.
#pragma once

#include "sysmpi/handles.hpp"

// X-macro over every interposable MPI entry point: X(name, return, args).
#define SYSMPI_FOR_EACH_FN(X)                                                  \
  X(Init, int, (int *, char ***))                                              \
  X(Init_thread, int, (int *, char ***, int, int *))                           \
  X(Finalize, int, (void))                                                     \
  X(Initialized, int, (int *))                                                 \
  X(Query_thread, int, (int *))                                                \
  X(Is_thread_main, int, (int *))                                              \
  X(Comm_rank, int, (MPI_Comm, int *))                                         \
  X(Comm_size, int, (MPI_Comm, int *))                                         \
  X(Comm_free, int, (MPI_Comm *))                                              \
  X(Comm_split, int, (MPI_Comm, int, int, MPI_Comm *))                         \
  X(Comm_dup, int, (MPI_Comm, MPI_Comm *))                                     \
  X(Type_contiguous, int, (int, MPI_Datatype, MPI_Datatype *))                 \
  X(Type_vector, int, (int, int, int, MPI_Datatype, MPI_Datatype *))           \
  X(Type_create_hvector, int,                                                  \
    (int, int, MPI_Aint, MPI_Datatype, MPI_Datatype *))                        \
  X(Type_indexed, int,                                                         \
    (int, const int *, const int *, MPI_Datatype, MPI_Datatype *))             \
  X(Type_create_hindexed, int,                                                 \
    (int, const int *, const MPI_Aint *, MPI_Datatype, MPI_Datatype *))        \
  X(Type_create_indexed_block, int,                                            \
    (int, int, const int *, MPI_Datatype, MPI_Datatype *))                     \
  X(Type_create_subarray, int,                                                 \
    (int, const int *, const int *, const int *, int, MPI_Datatype,            \
     MPI_Datatype *))                                                          \
  X(Type_create_struct, int,                                                   \
    (int, const int *, const MPI_Aint *, const MPI_Datatype *,                 \
     MPI_Datatype *))                                                          \
  X(Type_create_resized, int,                                                  \
    (MPI_Datatype, MPI_Aint, MPI_Aint, MPI_Datatype *))                        \
  X(Type_dup, int, (MPI_Datatype, MPI_Datatype *))                             \
  X(Type_commit, int, (MPI_Datatype *))                                        \
  X(Type_free, int, (MPI_Datatype *))                                          \
  X(Type_size, int, (MPI_Datatype, int *))                                     \
  X(Type_get_extent, int, (MPI_Datatype, MPI_Aint *, MPI_Aint *))              \
  X(Type_get_true_extent, int, (MPI_Datatype, MPI_Aint *, MPI_Aint *))         \
  X(Type_get_envelope, int, (MPI_Datatype, int *, int *, int *, int *))        \
  X(Type_get_contents, int,                                                    \
    (MPI_Datatype, int, int, int, int *, MPI_Aint *, MPI_Datatype *))          \
  X(Send, int, (const void *, int, MPI_Datatype, int, int, MPI_Comm))          \
  X(Recv, int,                                                                 \
    (void *, int, MPI_Datatype, int, int, MPI_Comm, MPI_Status *))             \
  X(Sendrecv, int,                                                             \
    (const void *, int, MPI_Datatype, int, int, void *, int, MPI_Datatype,     \
     int, int, MPI_Comm, MPI_Status *))                                        \
  X(Isend, int,                                                                \
    (const void *, int, MPI_Datatype, int, int, MPI_Comm, MPI_Request *))      \
  X(Irecv, int,                                                                \
    (void *, int, MPI_Datatype, int, int, MPI_Comm, MPI_Request *))            \
  X(Wait, int, (MPI_Request *, MPI_Status *))                                  \
  X(Waitall, int, (int, MPI_Request *, MPI_Status *))                          \
  X(Waitany, int, (int, MPI_Request *, int *, MPI_Status *))                   \
  X(Waitsome, int, (int, MPI_Request *, int *, int *, MPI_Status *))           \
  X(Test, int, (MPI_Request *, int *, MPI_Status *))                           \
  X(Testall, int, (int, MPI_Request *, int *, MPI_Status *))                   \
  X(Testany, int, (int, MPI_Request *, int *, int *, MPI_Status *))            \
  X(Testsome, int, (int, MPI_Request *, int *, int *, MPI_Status *))           \
  X(Send_init, int,                                                            \
    (const void *, int, MPI_Datatype, int, int, MPI_Comm, MPI_Request *))      \
  X(Recv_init, int,                                                            \
    (void *, int, MPI_Datatype, int, int, MPI_Comm, MPI_Request *))            \
  X(Start, int, (MPI_Request *))                                               \
  X(Startall, int, (int, MPI_Request *))                                       \
  X(Request_free, int, (MPI_Request *))                                        \
  X(Probe, int, (int, int, MPI_Comm, MPI_Status *))                            \
  X(Iprobe, int, (int, int, MPI_Comm, int *, MPI_Status *))                    \
  X(Barrier, int, (MPI_Comm))                                                  \
  X(Bcast, int, (void *, int, MPI_Datatype, int, MPI_Comm))                    \
  X(Allreduce, int,                                                            \
    (const void *, void *, int, MPI_Datatype, MPI_Op, MPI_Comm))               \
  X(Reduce, int,                                                               \
    (const void *, void *, int, MPI_Datatype, MPI_Op, int, MPI_Comm))          \
  X(Reduce_scatter, int,                                                       \
    (const void *, void *, const int *, MPI_Datatype, MPI_Op, MPI_Comm))       \
  X(Reduce_scatter_block, int,                                                 \
    (const void *, void *, int, MPI_Datatype, MPI_Op, MPI_Comm))               \
  X(Gather, int,                                                               \
    (const void *, int, MPI_Datatype, void *, int, MPI_Datatype, int,          \
     MPI_Comm))                                                                \
  X(Gatherv, int,                                                              \
    (const void *, int, MPI_Datatype, void *, const int *, const int *,        \
     MPI_Datatype, int, MPI_Comm))                                             \
  X(Scatter, int,                                                              \
    (const void *, int, MPI_Datatype, void *, int, MPI_Datatype, int,          \
     MPI_Comm))                                                                \
  X(Allgather, int,                                                            \
    (const void *, int, MPI_Datatype, void *, int, MPI_Datatype, MPI_Comm))    \
  X(Alltoallv, int,                                                            \
    (const void *, const int *, const int *, MPI_Datatype, void *,             \
     const int *, const int *, MPI_Datatype, MPI_Comm))                        \
  X(Dist_graph_create_adjacent, int,                                           \
    (MPI_Comm, int, const int *, const int *, int, const int *, const int *,   \
     int, int, MPI_Comm *))                                                    \
  X(Cart_create, int,                                                          \
    (MPI_Comm, int, const int *, const int *, int, MPI_Comm *))                \
  X(Cart_coords, int, (MPI_Comm, int, int, int *))                             \
  X(Cart_rank, int, (MPI_Comm, const int *, int *))                            \
  X(Cart_shift, int, (MPI_Comm, int, int, int *, int *))                       \
  X(Neighbor_alltoallv, int,                                                   \
    (const void *, const int *, const int *, MPI_Datatype, void *,             \
     const int *, const int *, MPI_Datatype, MPI_Comm))                        \
  X(Pack, int,                                                                 \
    (const void *, int, MPI_Datatype, void *, int, int *, MPI_Comm))           \
  X(Unpack, int,                                                               \
    (const void *, int, int *, void *, int, MPI_Datatype, MPI_Comm))           \
  X(Pack_size, int, (int, MPI_Datatype, MPI_Comm, int *))                      \
  X(Get_count, int, (const MPI_Status *, MPI_Datatype, int *))

namespace interpose {

/// One function pointer per interposable MPI entry point.
struct MpiTable {
#define SYSMPI_TABLE_MEMBER(name, ret, args) ret(*name) args = nullptr;
  SYSMPI_FOR_EACH_FN(SYSMPI_TABLE_MEMBER)
#undef SYSMPI_TABLE_MEMBER
};

/// The table the MPI_* wrappers dispatch through (the "PLT").
const MpiTable &active_table();

/// The system MPI's own entry points (the dlsym(RTLD_NEXT) view). Always
/// fully populated; never affected by install/uninstall.
const MpiTable &system_table();

/// Replace the active table (LD_PRELOAD). Returns the previous table so the
/// interposer can forward to it. Must not race with MPI traffic: install
/// before launching ranks.
MpiTable install(const MpiTable &table);

/// Restore the system table as active (remove the interposer).
void uninstall();

/// True if a non-system table is installed.
bool interposed();

} // namespace interpose
