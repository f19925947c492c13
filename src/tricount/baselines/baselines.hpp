// The 1D-decomposition algorithms the paper compares against (§4),
// registered in core::count_triangles as "aop", "push" and "wedge".
//
//   * aop   — AOP, the communication-avoiding 1D algorithm with
//     overlapping partitions of Arifuzzaman et al.: each rank also pulls
//     ("overlaps") the Adj+ row of every non-local vertex its own rows
//     reference, then counts with zero communication — at the cost of the
//     ghost-row memory the paper criticizes.
//   * push  — the space-efficient push-based "Surrogate" of the same
//     authors: one copy of the DAG across all ranks; for every cut edge
//     (w, u), Adj+(w) is pushed to u's owner, which intersects. Pushes go
//     out in rounds to bound memory, and the traffic is the point.
//   * wedge — HavoqGT-style wedge counting (Pearce): distributed 2-core
//     peeling, then directed wedges (a, b) generated at each centre and
//     shipped to a's owner for a closure query b ∈ Adj+(a). Wedge traffic
//     scales with Σ C(d+, 2) rather than the intersection volume, the
//     structural reason it loses to the 2D algorithm.
//
// All three run on the shared 1D partition layer (core/partition1d.hpp)
// with equal block boundaries and count on core::SuperstepEngine. They
// return core::RunResult: pre steps, then counting supersteps —
//
//   aop    "partition", "ghost"; one local superstep
//   push   "partition"; one superstep per round
//   wedge  "twocore" (ops = vertices peeled), "partition"; one superstep
//          per round (kernel lookups = closure queries, one per wedge)
//
// The kernel, modified_hashing and backward_early_exit settings of
// RunOptions::config drive aop's and push's intersections; wedge has no
// intersections. Config::overlap is ignored (result.overlap_enabled is
// false). Any positive rank count runs.
#pragma once

#include "tricount/core/driver.hpp"

namespace tricount::baselines {

core::RunResult count_triangles_aop(const graph::EdgeList& graph, int ranks,
                                    const core::RunOptions& options = {});

core::RunResult count_triangles_push(const graph::EdgeList& graph, int ranks,
                                     const core::RunOptions& options = {});

core::RunResult count_triangles_wedge(const graph::EdgeList& graph, int ranks,
                                      const core::RunOptions& options = {});

}  // namespace tricount::baselines
