// The 1D partition layer every 1D counter builds on: cetric
// (src/tricount/cetric/) and the AOP, push and wedge baselines
// (src/tricount/baselines/).
//
// After the shared preprocessing (cyclic redistribution + degree
// relabeling, core/preprocess.hpp), vertex ids are in non-decreasing
// degree order and each vertex's Adj+ list (its neighbours later in that
// order) is the row of the degree-ordered DAG. A 1D counter owns
// *contiguous ranges* of that order. Contiguity is the property the
// counters lean on: every Adj+ entry points to a vertex with an id larger
// than its row, so the rank owning a row's entries is never to the "left"
// of the row's owner.
//
// Three shared steps:
//   1. plus_lists_from_slice: the Adj+ rows this rank holds after the
//      cyclic redistribution and degree relabel;
//   2. route_plus_lists: ship every row, as a [w, len, list...] bucket
//      entry, to its owner under a Partition;
//   3. fetch_ghost_rows: pull the rows of chosen non-owned vertices from
//      their owners (request, then [v, len, list...] reply).
// Where the boundaries come from is the counter's choice: equal blocks
// (block_boundaries) for the baselines, degree-aware splits for cetric.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tricount/core/dist_graph.hpp"

namespace tricount::core {

/// Contiguous ownership ranges over the degree-ordered vertex ids: rank
/// r owns [boundaries[r], boundaries[r+1]). Ranges may be empty when
/// there are more ranks than weight (or vertices) to split.
struct Partition {
  VertexId num_vertices = 0;
  int p = 1;
  int rank = 0;
  /// p+1 non-decreasing split points; boundaries[0] == 0 and
  /// boundaries[p] == num_vertices.
  std::vector<VertexId> boundaries;

  VertexId begin() const {
    return boundaries[static_cast<std::size_t>(rank)];
  }
  VertexId end() const {
    return boundaries[static_cast<std::size_t>(rank) + 1];
  }
  VertexId owned() const { return end() - begin(); }
  bool owns(VertexId v) const { return v >= begin() && v < end(); }

  /// The unique rank whose range contains `v` (v < num_vertices).
  int owner(VertexId v) const;
};

/// The equal block split of block_range: boundaries[r] is rank r's first
/// vertex.
std::vector<VertexId> block_boundaries(VertexId n, int p);

/// This rank's Adj+ rows in degree-order ids, before routing: row k is
/// vertex ids[k], and lists[k] holds its neighbours with a larger id,
/// sorted ascending.
struct PlusLists {
  VertexId num_vertices = 0;
  std::vector<VertexId> ids;
  std::vector<std::vector<VertexId>> lists;
};

/// Step 1: cyclic redistribution -> degree relabel -> Adj+ filter.
PlusLists plus_lists_from_slice(mpisim::Comm& comm, const LocalSlice& input);

/// One rank's share of the degree-ordered DAG under a Partition.
struct OwnedRows {
  Partition part;
  /// Adj+(v) for each owned v, sorted ascending; entries are > v.
  std::vector<std::vector<VertexId>> adj_plus;
  /// Adjacency entries this rank shipped while routing rows to their
  /// owners (the partition step's ops sample).
  std::uint64_t routed_entries = 0;

  const std::vector<VertexId>& plus(VertexId v) const {
    return adj_plus[static_cast<std::size_t>(v - part.begin())];
  }
  /// The longest owned row (sizes the intersection scratch).
  std::size_t max_row() const;
};

/// Step 2: all-to-all routing of every row to its owner under `part`.
OwnedRows route_plus_lists(mpisim::Comm& comm, const PlusLists& lists,
                           Partition part);

/// Rows pulled from their owners, keyed by vertex.
struct GhostRows {
  std::unordered_map<VertexId, std::vector<VertexId>> rows;
  /// Adjacency entries received (the ghost step's ops sample).
  std::uint64_t entries = 0;

  /// The pulled row of `v`, or null when `v` was not pulled.
  const std::vector<VertexId>* find(VertexId v) const {
    const auto it = rows.find(v);
    return it == rows.end() ? nullptr : &it->second;
  }
};

/// Step 3: requests[r] names vertices owned by rank r whose rows this
/// rank wants (duplicates allowed); two all-to-all rounds pull them.
/// Requests travel sorted and deduplicated, so payloads are deterministic.
GhostRows fetch_ghost_rows(mpisim::Comm& comm, const OwnedRows& dag,
                           std::vector<std::vector<VertexId>> requests);

}  // namespace tricount::core
