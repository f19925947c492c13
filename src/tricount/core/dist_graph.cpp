#include "tricount/core/dist_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace tricount::core {

EdgeIndex LocalSlice::owned_edges() const {
  EdgeIndex count = 0;
  for (VertexId k = 0; k < owned(); ++k) {
    const VertexId v = begin + k;
    for (const VertexId u : adj[k]) {
      if (v < u) ++count;
    }
  }
  return count;
}

std::pair<VertexId, VertexId> block_range(VertexId n, int rank, int p) {
  const VertexId chunk = n / static_cast<VertexId>(p);
  const VertexId rem = n % static_cast<VertexId>(p);
  const auto r = static_cast<VertexId>(rank);
  const VertexId begin = r * chunk + std::min(r, rem);
  const VertexId end = begin + chunk + (r < rem ? 1 : 0);
  return {begin, end};
}

int block_owner(VertexId v, VertexId n, int p) {
  // Inverse of block_range: first `rem` blocks have chunk+1 vertices.
  const VertexId chunk = n / static_cast<VertexId>(p);
  const VertexId rem = n % static_cast<VertexId>(p);
  if (chunk == 0) return static_cast<int>(v);
  const VertexId big_span = rem * (chunk + 1);
  if (v < big_span) return static_cast<int>(v / (chunk + 1));
  return static_cast<int>(rem + (v - big_span) / chunk);
}

LocalSlice block_slice_from_edges(const graph::EdgeList& graph, int rank,
                                  int p) {
  LocalSlice slice;
  slice.num_vertices = graph.num_vertices;
  std::tie(slice.begin, slice.end) = block_range(graph.num_vertices, rank, p);
  slice.adj.assign(slice.owned(), {});
  for (const graph::Edge& e : graph.edges) {
    if (e.u >= slice.begin && e.u < slice.end) {
      slice.adj[e.u - slice.begin].push_back(e.v);
    }
    if (e.v >= slice.begin && e.v < slice.end) {
      slice.adj[e.v - slice.begin].push_back(e.u);
    }
  }
  for (auto& list : slice.adj) std::sort(list.begin(), list.end());
  return slice;
}

LocalSlice block_slice_from_rmat(mpisim::Comm& comm,
                                 const graph::RmatParams& params) {
  const int p = comm.size();
  const VertexId n = params.num_vertices();
  const EdgeIndex slots = params.num_edge_slots();
  const EdgeIndex begin =
      slots * static_cast<EdgeIndex>(comm.rank()) / static_cast<EdgeIndex>(p);
  const EdgeIndex end = slots * static_cast<EdgeIndex>(comm.rank() + 1) /
                        static_cast<EdgeIndex>(p);
  const std::vector<graph::Edge> generated =
      graph::rmat_edge_slice(params, begin, end);

  // Route each endpoint's (vertex, neighbour) record to the block owner.
  std::vector<std::vector<VertexId>> outgoing(static_cast<std::size_t>(p));
  for (const graph::Edge& e : generated) {
    if (e.u == e.v) continue;  // self-loops never make it into the graph
    const auto to_u = static_cast<std::size_t>(block_owner(e.u, n, p));
    const auto to_v = static_cast<std::size_t>(block_owner(e.v, n, p));
    outgoing[to_u].push_back(e.u);
    outgoing[to_u].push_back(e.v);
    outgoing[to_v].push_back(e.v);
    outgoing[to_v].push_back(e.u);
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  LocalSlice slice;
  slice.num_vertices = n;
  std::tie(slice.begin, slice.end) = block_range(n, comm.rank(), p);
  slice.adj.assign(slice.owned(), {});
  for (const auto& bucket : incoming) {
    if (bucket.size() % 2 != 0) {
      throw std::runtime_error("rmat routing: odd record stream");
    }
    for (std::size_t i = 0; i < bucket.size(); i += 2) {
      const VertexId v = bucket[i];
      const VertexId u = bucket[i + 1];
      slice.adj[v - slice.begin].push_back(u);
    }
  }
  // Generation is a multigraph stream; deduplicate per list. Both
  // endpoints' owners see the identical multiset for an edge, so the
  // deduplicated graph is globally consistent.
  for (auto& list : slice.adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return slice;
}

CyclicSlice cyclic_redistribute(mpisim::Comm& comm, const LocalSlice& input) {
  const int p = comm.size();
  // Record format per vertex: [global id, degree, neighbours...].
  std::vector<std::vector<VertexId>> outgoing(static_cast<std::size_t>(p));
  for (VertexId k = 0; k < input.owned(); ++k) {
    const VertexId v = input.begin + k;
    auto& bucket = outgoing[v % static_cast<VertexId>(p)];
    bucket.push_back(v);
    bucket.push_back(static_cast<VertexId>(input.adj[k].size()));
    bucket.insert(bucket.end(), input.adj[k].begin(), input.adj[k].end());
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  CyclicSlice slice;
  slice.num_vertices = input.num_vertices;
  slice.rank = comm.rank();
  slice.p = p;
  slice.adj.assign(
      cyclic_row_count(input.num_vertices, p, comm.rank()), {});
  for (const auto& bucket : incoming) {
    std::size_t at = 0;
    while (at < bucket.size()) {
      const VertexId v = bucket[at++];
      const VertexId deg = bucket[at++];
      if (v % static_cast<VertexId>(p) != static_cast<VertexId>(comm.rank())) {
        throw std::runtime_error("cyclic redistribute: misrouted vertex");
      }
      auto& list = slice.adj[v / static_cast<VertexId>(p)];
      list.assign(bucket.begin() + static_cast<std::ptrdiff_t>(at),
                  bucket.begin() + static_cast<std::ptrdiff_t>(at + deg));
      at += deg;
    }
  }
  return slice;
}

}  // namespace tricount::core
