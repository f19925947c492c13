// Tests for the driver's input path: edge-list slicing covers every edge
// exactly once, and repeated runs are deterministic.
#include <gtest/gtest.h>

#include "tricount/core/dist_graph.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

EdgeList sweep_graph() {
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.seed = 1234;
  return graph::rmat(params);
}

TEST(SlicePaths, OwnedEdgesSumToTotal) {
  const EdgeList g = sweep_graph();
  for (const int p : {1, 4, 9}) {
    graph::EdgeIndex total = 0;
    for (int r = 0; r < p; ++r) {
      total += block_slice_from_edges(g, r, p).owned_edges();
    }
    EXPECT_EQ(total, g.edges.size());
  }
}

TEST(DriverPaths, RepeatedRunsAreDeterministic) {
  const EdgeList g = sweep_graph();
  const RunResult a = count_triangles_2d(g, 9);
  const RunResult b = count_triangles_2d(g, 9);
  EXPECT_EQ(a.triangles, b.triangles);
  EXPECT_EQ(a.total_kernel().lookups, b.total_kernel().lookups);
  EXPECT_EQ(a.total_kernel().hits, b.total_kernel().hits);
  EXPECT_EQ(a.total_kernel().intersection_tasks,
            b.total_kernel().intersection_tasks);
  // Traffic is deterministic too (same blocks, same blobs).
  for (std::size_t s = 0; s < a.num_shifts(); ++s) {
    const auto sa = a.shift_samples(s);
    const auto sb = b.shift_samples(s);
    for (std::size_t r = 0; r < sa.size(); ++r) {
      EXPECT_EQ(sa[r].bytes, sb[r].bytes);
      EXPECT_EQ(sa[r].messages, sb[r].messages);
    }
  }
}

}  // namespace
}  // namespace tricount::core
