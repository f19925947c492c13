#include "tricount/cetric/partition.hpp"

#include <utility>

#include "tricount/mpisim/collectives.hpp"

namespace tricount::cetric {

std::vector<VertexId> degree_aware_boundaries(
    const std::vector<VertexId>& deg_plus, int p) {
  const auto n = static_cast<VertexId>(deg_plus.size());
  std::vector<VertexId> boundaries(static_cast<std::size_t>(p) + 1, n);
  boundaries[0] = 0;
  std::uint64_t total = 0;
  for (const VertexId d : deg_plus) total += 1 + static_cast<std::uint64_t>(d);
  std::uint64_t prefix = 0;
  VertexId v = 0;
  for (int r = 1; r < p; ++r) {
    const std::uint64_t target =
        total * static_cast<std::uint64_t>(r) / static_cast<std::uint64_t>(p);
    while (v < n && prefix < target) {
      prefix += 1 + static_cast<std::uint64_t>(deg_plus[v]);
      ++v;
    }
    boundaries[static_cast<std::size_t>(r)] = v;
  }
  return boundaries;
}

CetricGraph build_cetric_graph(mpisim::Comm& comm,
                               const core::LocalSlice& input) {
  const core::PlusLists lists = core::plus_lists_from_slice(comm, input);
  const VertexId n = lists.num_vertices;

  // The (new id, deg+) pairs every rank needs for the replicated oracle.
  std::vector<VertexId> pairs;
  pairs.reserve(lists.ids.size() * 2);
  for (std::size_t k = 0; k < lists.ids.size(); ++k) {
    pairs.push_back(lists.ids[k]);
    pairs.push_back(static_cast<VertexId>(lists.lists[k].size()));
  }
  const auto all_pairs = mpisim::allgatherv(comm, pairs);

  std::vector<VertexId> deg_plus(n, 0);
  EdgeIndex num_edges = 0;
  for (const auto& bucket : all_pairs) {
    for (std::size_t i = 0; i + 1 < bucket.size(); i += 2) {
      deg_plus[bucket[i]] = bucket[i + 1];
    }
  }
  for (const VertexId d : deg_plus) {
    num_edges += static_cast<EdgeIndex>(d);  // each edge once, as u->v
  }

  Partition part{n, comm.size(), comm.rank(),
                 degree_aware_boundaries(deg_plus, comm.size())};
  CetricGraph g;
  static_cast<core::OwnedRows&>(g) =
      core::route_plus_lists(comm, lists, std::move(part));
  g.deg_plus = std::move(deg_plus);
  g.num_edges = num_edges;
  return g;
}

}  // namespace tricount::cetric
