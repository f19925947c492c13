// Tests for the SUMMA rectangular-grid extension (paper §8).
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;
using graph::TriangleCount;

TriangleCount reference(const EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

EdgeList sweep_graph() {
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 7;
  params.seed = 77;
  return graph::rmat(params);
}

class SummaGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SummaGrid, MatchesSerialOnRectangularGrids) {
  const auto [qr, qc] = GetParam();
  const EdgeList g = sweep_graph();
  SummaOptions options;
  options.grid_rows = qr;
  options.grid_cols = qc;
  const RunResult result = count_triangles_summa(g, options);
  EXPECT_EQ(result.triangles, reference(g)) << qr << "x" << qc;
  EXPECT_EQ(result.ranks, qr * qc);
  EXPECT_EQ(result.algorithm, "summa");
  // One panel step per panel: K = lcm(qr, qc), a multiple of both edges.
  EXPECT_EQ(result.num_shifts(), static_cast<std::size_t>(std::lcm(qr, qc)));
  EXPECT_EQ(result.num_shifts() % static_cast<std::size_t>(qr), 0u);
  EXPECT_EQ(result.num_shifts() % static_cast<std::size_t>(qc), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SummaGrid,
    ::testing::Values(std::tuple{1, 1}, std::tuple{1, 4}, std::tuple{4, 1},
                      std::tuple{2, 3}, std::tuple{3, 2}, std::tuple{2, 4},
                      std::tuple{3, 4}, std::tuple{4, 3}, std::tuple{5, 2},
                      std::tuple{3, 3}, std::tuple{4, 4}));

TEST(Summa, SquareGridAgreesWithCannonPipeline) {
  const EdgeList g = graph::simplify(graph::complete_graph(25));
  SummaOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  EXPECT_EQ(count_triangles_summa(g, options).triangles,
            graph::complete_graph_triangles(25));
}

TEST(Summa, TriangleFreeAndTinyGraphs) {
  SummaOptions options;
  options.grid_rows = 2;
  options.grid_cols = 3;
  EXPECT_EQ(count_triangles_summa(graph::simplify(graph::grid_graph(6, 7)),
                                  options)
                .triangles,
            0u);
  EdgeList empty;
  empty.num_vertices = 0;
  EXPECT_EQ(count_triangles_summa(empty, options).triangles, 0u);
  EXPECT_EQ(count_triangles_summa(graph::simplify(graph::complete_graph(3)),
                                  options)
                .triangles,
            1u);
}

TEST(Summa, ConfigTogglesStayExact) {
  const EdgeList g = sweep_graph();
  const TriangleCount expected = reference(g);
  for (const bool doubly : {true, false}) {
    for (const bool hashing : {true, false}) {
      SummaOptions options;
      options.grid_rows = 2;
      options.grid_cols = 4;
      options.config.doubly_sparse = doubly;
      options.config.modified_hashing = hashing;
      EXPECT_EQ(count_triangles_summa(g, options).triangles, expected);
    }
  }
}

TEST(Summa, IjkEnumerationMatches) {
  const EdgeList g = sweep_graph();
  SummaOptions options;
  options.grid_rows = 3;
  options.grid_cols = 2;
  options.config.enumeration = Enumeration::kIJK;
  EXPECT_EQ(count_triangles_summa(g, options).triangles, reference(g));
}

TEST(Summa, InvalidGridThrows) {
  SummaOptions options;
  options.grid_rows = 0;
  options.grid_cols = 3;
  EXPECT_THROW(count_triangles_summa(sweep_graph(), options),
               std::invalid_argument);
}

TEST(Summa, ModeledTimesPositiveOnRealWork) {
  const EdgeList g = sweep_graph();
  SummaOptions options;
  options.grid_rows = 2;
  options.grid_cols = 2;
  const RunResult result = count_triangles_summa(g, options);
  EXPECT_GT(result.pre_modeled_seconds(), 0.0);
  EXPECT_GT(result.tc_modeled_seconds(), 0.0);
  EXPECT_GT(result.total_kernel().lookups, 0u);
}

}  // namespace
}  // namespace tricount::core
