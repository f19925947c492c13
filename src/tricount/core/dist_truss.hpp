// Distributed k-truss support counting on top of the 2D triangle
// machinery — the application the paper's introduction names first.
//
// Truss decomposition splits into (a) per-edge triangle-support counting
// — the computation the paper's algorithm parallelizes — and (b) a cheap
// support-peeling pass. This module runs (a) as count_triangles_2d (or
// count_resident) with a triangle sink: every closed triangle credits its
// three edges in new-id space; each edge's credits travel to the owner of
// its lower new id, which translates that endpoint back to its original
// id, then to the owner of the higher one, which translates it and sums
// the credits at the edge's position in the simplified edge order. Peeling then reuses
// the serial bucket-queue (graph/ktruss), so `ktruss_2d` returns a
// decomposition bit-identical to the serial one.
#pragma once

#include <vector>

#include "tricount/core/driver.hpp"
#include "tricount/core/resident.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/ktruss.hpp"

namespace tricount::core {

/// Distributed per-edge triangle support, under every RunOptions field.
/// Result is aligned with the simplified input's edge order (as
/// graph::edge_supports).
std::vector<graph::TriangleCount> edge_supports_2d(
    const graph::EdgeList& simplified, int ranks,
    const RunOptions& options = {});

/// The same supports on a resident partition (resident.hpp) built from
/// `simplified`: only the counting supersteps run, under the partition's
/// config. When `run` is set, it receives the 2D run that counted.
std::vector<graph::TriangleCount> edge_supports_2d(
    mpisim::PersistentWorld& world, const ResidentPartition& partition,
    const graph::EdgeList& simplified, RunResult* run = nullptr);

/// Full truss decomposition with distributed support counting.
graph::KtrussResult ktruss_2d(const graph::EdgeList& simplified, int ranks,
                              const RunOptions& options = {});

}  // namespace tricount::core
