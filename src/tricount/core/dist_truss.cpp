#include "tricount/core/dist_truss.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "tricount/mpisim/collectives.hpp"

namespace tricount::core {

namespace {

using graph::TriangleCount;

std::uint64_t edge_key(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

/// Credits the three edges of every triangle in new-id space.
class EdgeCredits final : public TriangleSink {
 public:
  EdgeCredits(const graph::EdgeList& simplified,
              std::vector<TriangleCount>& supports)
      : simplified_(simplified), supports_(supports) {}

  void triangle(VertexId j, VertexId i, VertexId k) override {
    ++credits_[edge_key(j, i)];
    ++credits_[edge_key(j, k)];
    ++credits_[edge_key(i, k)];
  }
  void save() override { saved_ = credits_; }
  void restore() override { credits_ = saved_; }

  void finish(mpisim::Comm& comm,
              const std::vector<VertexId>& old_ids) override {
    const auto p = static_cast<std::size_t>(comm.size());
    const auto pv = static_cast<VertexId>(p);

    // (lo, hi, credit) to lo's owner, which swaps in lo's old id ...
    std::vector<std::vector<std::uint64_t>> to_lo(p);
    for (const auto& [key, credit] : credits_) {
      to_lo[(key >> 32) % pv].insert(to_lo[(key >> 32) % pv].end(),
                                     {key, credit});
    }
    std::vector<std::vector<std::uint64_t>> to_hi(p);
    for (const auto& bucket : mpisim::alltoallv(comm, to_lo)) {
      for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
        const auto lo = static_cast<VertexId>(bucket[at] >> 32);
        const auto hi = static_cast<VertexId>(bucket[at] & 0xffffffffu);
        to_hi[hi % pv].insert(to_hi[hi % pv].end(),
                              {old_ids[lo / pv], hi, bucket[at + 1]});
      }
    }
    // ... then to hi's owner, which swaps in hi's and sums the credits.
    for (const auto& bucket : mpisim::alltoallv(comm, to_hi)) {
      for (std::size_t at = 0; at + 2 < bucket.size(); at += 3) {
        const auto old_lo = static_cast<VertexId>(bucket[at]);
        const VertexId old_hi = old_ids[bucket[at + 1] / pv];
        const graph::Edge edge{std::min(old_lo, old_hi),
                               std::max(old_lo, old_hi)};
        const auto it = std::lower_bound(simplified_.edges.begin(),
                                         simplified_.edges.end(), edge);
        if (it == simplified_.edges.end() || !(*it == edge)) {
          throw std::runtime_error("edge_supports_2d: credited unknown edge");
        }
        // Only hi's owner writes an edge's slot; thread-join publishes it.
        supports_[static_cast<std::size_t>(it - simplified_.edges.begin())] +=
            bucket[at + 2];
      }
    }
  }

 private:
  const graph::EdgeList& simplified_;
  std::vector<TriangleCount>& supports_;
  std::unordered_map<std::uint64_t, TriangleCount> credits_;
  std::unordered_map<std::uint64_t, TriangleCount> saved_;
};

}  // namespace

std::vector<TriangleCount> edge_supports_2d(const graph::EdgeList& simplified,
                                            int ranks,
                                            const RunOptions& options) {
  std::vector<TriangleCount> supports(simplified.edges.size(), 0);
  count_triangles_2d(simplified, ranks, options, [&] {
    return std::make_unique<EdgeCredits>(simplified, supports);
  });
  return supports;
}

std::vector<TriangleCount> edge_supports_2d(mpisim::PersistentWorld& world,
                                            const ResidentPartition& partition,
                                            const graph::EdgeList& simplified,
                                            RunResult* run) {
  std::vector<TriangleCount> supports(simplified.edges.size(), 0);
  RunResult result = count_resident(world, partition, partition.config, [&] {
    return std::make_unique<EdgeCredits>(simplified, supports);
  });
  if (run != nullptr) *run = std::move(result);
  return supports;
}

graph::KtrussResult ktruss_2d(const graph::EdgeList& simplified, int ranks,
                              const RunOptions& options) {
  return graph::ktruss_from_supports(simplified,
                                     edge_supports_2d(simplified, ranks, options));
}

}  // namespace tricount::core
