#include "tricount/core/partition1d.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tricount/core/preprocess.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::core {

int Partition::owner(VertexId v) const {
  // First boundary strictly greater than v, skipping boundaries[0]:
  // empty ranges collapse to repeated boundary values and the upper
  // bound lands past all of them.
  const auto it = std::upper_bound(boundaries.begin() + 1, boundaries.end(), v);
  return static_cast<int>(it - (boundaries.begin() + 1));
}

std::vector<VertexId> block_boundaries(VertexId n, int p) {
  std::vector<VertexId> boundaries(static_cast<std::size_t>(p) + 1, n);
  for (int r = 0; r < p; ++r) {
    boundaries[static_cast<std::size_t>(r)] = block_range(n, r, p).first;
  }
  return boundaries;
}

PlusLists plus_lists_from_slice(mpisim::Comm& comm, const LocalSlice& input) {
  const CyclicSlice cyclic = cyclic_redistribute(comm, input);
  RelabeledSlice relabeled = degree_relabel(comm, cyclic);
  PlusLists out;
  out.num_vertices = relabeled.num_vertices;
  out.ids = std::move(relabeled.new_ids);
  out.lists.resize(relabeled.adj.size());
  for (std::size_t k = 0; k < relabeled.adj.size(); ++k) {
    const VertexId w = out.ids[k];
    auto& plus = out.lists[k];
    for (const VertexId u : relabeled.adj[k]) {
      if (u > w) plus.push_back(u);
    }
    std::vector<VertexId>().swap(relabeled.adj[k]);  // keep the peak low
    std::sort(plus.begin(), plus.end());
  }
  return out;
}

std::size_t OwnedRows::max_row() const {
  std::size_t longest = 0;
  for (const auto& list : adj_plus) longest = std::max(longest, list.size());
  return longest;
}

OwnedRows route_plus_lists(mpisim::Comm& comm, const PlusLists& lists,
                           Partition part) {
  OwnedRows dag;
  dag.part = std::move(part);
  std::vector<std::vector<VertexId>> outgoing(
      static_cast<std::size_t>(comm.size()));
  for (std::size_t k = 0; k < lists.lists.size(); ++k) {
    const VertexId w = lists.ids[k];
    const auto& plus = lists.lists[k];
    auto& bucket = outgoing[static_cast<std::size_t>(dag.part.owner(w))];
    bucket.push_back(w);
    bucket.push_back(static_cast<VertexId>(plus.size()));
    bucket.insert(bucket.end(), plus.begin(), plus.end());
    dag.routed_entries += plus.size();
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  dag.adj_plus.assign(dag.part.owned(), {});
  for (const auto& bucket : incoming) {
    std::size_t at = 0;
    while (at < bucket.size()) {
      const VertexId w = bucket[at++];
      const VertexId len = bucket[at++];
      if (!dag.part.owns(w)) {
        throw std::runtime_error("route_plus_lists: misrouted vertex");
      }
      auto& list = dag.adj_plus[static_cast<std::size_t>(w - dag.part.begin())];
      list.assign(bucket.begin() + static_cast<std::ptrdiff_t>(at),
                  bucket.begin() + static_cast<std::ptrdiff_t>(at + len));
      at += len;
    }
  }
  return dag;
}

GhostRows fetch_ghost_rows(mpisim::Comm& comm, const OwnedRows& dag,
                           std::vector<std::vector<VertexId>> requests) {
  for (auto& r : requests) {
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
  }
  const auto incoming_requests = mpisim::alltoallv(comm, requests);
  std::vector<std::vector<VertexId>> replies(incoming_requests.size());
  for (std::size_t s = 0; s < incoming_requests.size(); ++s) {
    auto& reply = replies[s];
    for (const VertexId v : incoming_requests[s]) {
      if (!dag.part.owns(v)) {
        throw std::runtime_error("fetch_ghost_rows: misrouted request");
      }
      const std::vector<VertexId>& list = dag.plus(v);
      reply.push_back(v);
      reply.push_back(static_cast<VertexId>(list.size()));
      reply.insert(reply.end(), list.begin(), list.end());
    }
  }
  const auto incoming_replies = mpisim::alltoallv(comm, replies);
  GhostRows ghosts;
  for (const auto& bucket : incoming_replies) {
    std::size_t at = 0;
    while (at < bucket.size()) {
      const VertexId v = bucket[at++];
      const VertexId len = bucket[at++];
      ghosts.rows[v].assign(
          bucket.begin() + static_cast<std::ptrdiff_t>(at),
          bucket.begin() + static_cast<std::ptrdiff_t>(at + len));
      ghosts.entries += len;
      at += len;
    }
  }
  return ghosts;
}

}  // namespace tricount::core
