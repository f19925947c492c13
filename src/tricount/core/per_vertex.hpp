// Distributed per-vertex triangle counting — the natural extension of the
// 2D algorithm that the paper's motivating applications (clustering
// coefficients, transitivity, k-truss support, community detection) need.
//
// It is count_triangles_2d (or count_resident) with a triangle sink:
// every closed triangle (j, i, k) credits all three endpoints in new-id
// space; the per-rank credits are reduced to the cyclic owner of each new
// id, which writes the count at the vertex's original id (owned_old_ids).
#pragma once

#include <vector>

#include "tricount/core/config.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/resident.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/types.hpp"

namespace tricount::core {

struct PerVertexResult {
  graph::TriangleCount total_triangles = 0;
  /// counts[v] = triangles containing v, in the caller's original ids.
  /// Sums to 3 * total_triangles.
  std::vector<graph::TriangleCount> counts;
  /// The 2D run that produced the counts.
  RunResult run;

  /// Local clustering coefficient of v given its degree.
  double local_clustering(graph::VertexId v, graph::EdgeIndex degree) const;

  /// The min(k, |V|) vertices in most triangles: count descending, then
  /// vertex id ascending.
  std::vector<graph::VertexId> top(std::size_t k) const;
};

/// Distributed per-vertex triangle counting on a simulated world of
/// `ranks` ranks (perfect square), under every RunOptions field.
PerVertexResult count_per_vertex_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options = {});

/// The same counts on a resident partition (resident.hpp): only the
/// counting supersteps run, under the partition's config.
PerVertexResult count_per_vertex_2d(mpisim::PersistentWorld& world,
                                    const ResidentPartition& partition);

/// Network-level clustering statistics computed distributedly: global
/// triangle count, wedge count, transitivity, and the average local
/// clustering coefficient.
struct ClusteringStats {
  graph::TriangleCount triangles = 0;
  graph::TriangleCount wedges = 0;
  double transitivity = 0.0;
  double average_local_clustering = 0.0;
};

/// The statistics of `graph` from its per-vertex counts.
ClusteringStats clustering_stats(const graph::EdgeList& graph,
                                 const PerVertexResult& per_vertex);

/// clustering_stats over count_per_vertex_2d(graph, ranks, options).
ClusteringStats clustering_stats_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options = {});

}  // namespace tricount::core
