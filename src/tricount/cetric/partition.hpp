// Degree-aware 1D partition for the CETRIC-style counter (docs/cetric.md).
//
// CETRIC builds on the shared 1D partition layer (core/partition1d.hpp)
// with its own boundaries: contiguous ranges of the degree order, split
// so every rank holds roughly the same amount of work (weight(v) = 1 +
// deg+(v), the out-degree of the degree-ordered DAG).
//
// The replicated deg+ array doubles as the routing oracle: every rank
// computes the same boundaries from it without further communication,
// and the ghost-exchange heuristic compares a closing vertex's pull
// cost (its deg+) against the wedge mass that would otherwise ship.
#pragma once

#include <vector>

#include "tricount/core/partition1d.hpp"

namespace tricount::cetric {

using VertexId = graph::VertexId;
using EdgeIndex = graph::EdgeIndex;
using core::Partition;

/// Deterministic greedy prefix split: boundary r is the first vertex at
/// which the cumulative weight (1 + deg+) reaches r/p of the total.
/// Every rank computes this from the replicated deg+ array, so the
/// partition needs no extra communication round.
std::vector<VertexId> degree_aware_boundaries(
    const std::vector<VertexId>& deg_plus, int p);

/// One rank's share of the degree-ordered DAG under the CETRIC
/// partition, plus the replicated routing oracle.
struct CetricGraph : core::OwnedRows {
  /// Replicated deg+ of *every* vertex (the routing/ghost oracle).
  std::vector<VertexId> deg_plus;
  EdgeIndex num_edges = 0;  ///< global undirected edge count
};

/// Builds the partitioned DAG from this rank's input slice: shared Adj+
/// lists -> deg+ replication -> boundary computation -> shared routing.
CetricGraph build_cetric_graph(mpisim::Comm& comm,
                               const core::LocalSlice& input);

}  // namespace tricount::cetric
