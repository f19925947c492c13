#include "tricount/core/per_vertex.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "tricount/mpisim/collectives.hpp"

namespace tricount::core {

namespace {

using graph::TriangleCount;

/// Credits the three vertices of every triangle in new-id space.
class VertexCredits final : public TriangleSink {
 public:
  explicit VertexCredits(std::vector<TriangleCount>& counts)
      : counts_(counts), credits_(counts.size(), 0) {}

  void triangle(VertexId j, VertexId i, VertexId k) override {
    ++credits_[j];
    ++credits_[i];
    ++credits_[k];
  }
  void save() override { saved_ = credits_; }
  void restore() override { credits_ = saved_; }

  void finish(mpisim::Comm& comm,
              const std::vector<VertexId>& old_ids) override {
    const auto pv = static_cast<VertexId>(comm.size());
    std::vector<std::vector<TriangleCount>> out(
        static_cast<std::size_t>(comm.size()));
    for (VertexId v = 0; v < credits_.size(); ++v) {
      if (credits_[v] == 0) continue;
      out[v % pv].push_back(v);
      out[v % pv].push_back(credits_[v]);
    }
    const auto in = mpisim::alltoallv(comm, out);
    std::vector<TriangleCount> owned(old_ids.size(), 0);
    for (const auto& bucket : in) {
      for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
        owned[bucket[at] / pv] += bucket[at + 1];
      }
    }
    // Disjoint slots across ranks; thread-join publishes the writes.
    for (std::size_t k = 0; k < owned.size(); ++k) {
      counts_[old_ids[k]] = owned[k];
    }
  }

 private:
  std::vector<TriangleCount>& counts_;
  std::vector<TriangleCount> credits_;
  std::vector<TriangleCount> saved_;
};

/// Runs `count` with a VertexCredits sink over `num_vertices` counts.
template <typename Count>
PerVertexResult credit_vertices(VertexId num_vertices, const Count& count) {
  PerVertexResult result;
  result.counts.assign(num_vertices, 0);
  result.run = count(
      [&] { return std::make_unique<VertexCredits>(result.counts); });
  result.total_triangles = result.run.triangles;
  return result;
}

}  // namespace

double PerVertexResult::local_clustering(graph::VertexId v,
                                         graph::EdgeIndex degree) const {
  if (degree < 2) return 0.0;
  const double possible =
      static_cast<double>(degree) * static_cast<double>(degree - 1) / 2.0;
  return static_cast<double>(counts.at(v)) / possible;
}

std::vector<graph::VertexId> PerVertexResult::top(std::size_t k) const {
  std::vector<graph::VertexId> order(counts.size());
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](graph::VertexId a, graph::VertexId b) {
                      return counts[a] != counts[b] ? counts[a] > counts[b]
                                                    : a < b;
                    });
  order.resize(k);
  return order;
}

PerVertexResult count_per_vertex_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options) {
  return credit_vertices(graph.num_vertices, [&](const SinkFactory& sink) {
    return count_triangles_2d(graph, ranks, options, sink);
  });
}

PerVertexResult count_per_vertex_2d(mpisim::PersistentWorld& world,
                                    const ResidentPartition& partition) {
  return credit_vertices(partition.num_vertices, [&](const SinkFactory& sink) {
    return count_resident(world, partition, partition.config, sink);
  });
}

ClusteringStats clustering_stats(const graph::EdgeList& graph,
                                 const PerVertexResult& per_vertex) {
  const std::vector<graph::EdgeIndex> degrees = graph::degrees(graph);

  ClusteringStats stats;
  stats.triangles = per_vertex.total_triangles;
  double clustering_sum = 0.0;
  for (VertexId v = 0; v < graph.num_vertices; ++v) {
    const graph::EdgeIndex d = degrees[v];
    stats.wedges += d * (d - 1) / 2;
    if (d >= 2) {
      clustering_sum += per_vertex.local_clustering(v, d);
    }
  }
  if (stats.wedges > 0) {
    stats.transitivity = 3.0 * static_cast<double>(stats.triangles) /
                         static_cast<double>(stats.wedges);
  }
  if (graph.num_vertices > 0) {
    stats.average_local_clustering =
        clustering_sum / static_cast<double>(graph.num_vertices);
  }
  return stats;
}

ClusteringStats clustering_stats_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options) {
  return clustering_stats(graph, count_per_vertex_2d(graph, ranks, options));
}

}  // namespace tricount::core
