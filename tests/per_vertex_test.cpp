// Tests for distributed per-vertex triangle counting and the derived
// clustering statistics: exact agreement with the serial per-vertex
// reference on every graph family and grid size, under every Config
// switch, and through a crash replay.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "test_corpus.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

class PerVertexSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (graph, p)

const std::vector<EdgeList>& sweep_graphs() {
  static const std::vector<EdgeList>* graphs = [] {
    auto* v = new std::vector<EdgeList>;
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 7;
    params.seed = 303;
    v->push_back(graph::rmat(params));
    v->push_back(graph::simplify(graph::erdos_renyi(200, 1500, 5)));
    v->push_back(graph::simplify(graph::complete_graph(20)));
    v->push_back(graph::simplify(graph::wheel_graph(25)));
    v->push_back(graph::simplify(graph::watts_strogatz(150, 6, 0.2, 4)));
    return v;
  }();
  return *graphs;
}

TEST_P(PerVertexSweep, MatchesSerialReferenceExactly) {
  const auto [gi, ranks] = GetParam();
  const EdgeList& g = sweep_graphs()[static_cast<std::size_t>(gi)];
  const auto expected =
      graph::per_vertex_triangles(graph::Csr::from_edges(g));
  const PerVertexResult result = count_per_vertex_2d(g, ranks);
  ASSERT_EQ(result.counts.size(), expected.size());
  for (graph::VertexId v = 0; v < g.num_vertices; ++v) {
    ASSERT_EQ(result.counts[v], expected[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(GraphsByRanks, PerVertexSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 4, 9, 16)));

TEST(PerVertex, TotalsAndSumsAreConsistent) {
  const EdgeList& g = sweep_graphs()[0];
  const PerVertexResult result = count_per_vertex_2d(g, 9);
  graph::TriangleCount sum = 0;
  for (const auto c : result.counts) sum += c;
  EXPECT_EQ(sum, 3 * result.total_triangles);
  EXPECT_EQ(result.total_triangles,
            graph::count_triangles_serial(graph::Csr::from_edges(g)));
}

TEST(PerVertex, ListKernelAgrees) {
  const EdgeList& g = sweep_graphs()[0];
  RunOptions options;
  options.config.kernel = kernels::KernelPolicy::kMerge;
  const PerVertexResult map_result = count_per_vertex_2d(g, 4);
  const PerVertexResult list_result = count_per_vertex_2d(g, 4, options);
  EXPECT_EQ(map_result.counts, list_result.counts);
}

TEST(PerVertex, OptimizationTogglesStayExact) {
  const EdgeList& g = sweep_graphs()[4];
  const auto expected =
      graph::per_vertex_triangles(graph::Csr::from_edges(g));
  for (const auto& [label, config] : test_support::config_variants()) {
    RunOptions options;
    options.config = config;
    const PerVertexResult result = count_per_vertex_2d(g, 9, options);
    EXPECT_EQ(result.counts, expected) << label;
  }
}

TEST(PerVertex, CrashAtSuperstepOneReplaysToTheFaultFreeCounts) {
  // At 4 ranks the crash lands in the last of two supersteps, after
  // superstep 0 has credited, so the replay must roll the sink back.
  const EdgeList& g = sweep_graphs()[0];
  const PerVertexResult fault_free = count_per_vertex_2d(g, 4);
  chaos::FaultSpec spec;
  spec.seed = 0x5eed;
  spec.crash_superstep = 1;
  RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(spec, 4);
  const PerVertexResult crashed = count_per_vertex_2d(g, 4, options);
  EXPECT_EQ(crashed.run.total_chaos().crashes, 1u);
  EXPECT_EQ(crashed.counts, fault_free.counts);
  EXPECT_EQ(crashed.total_triangles, fault_free.total_triangles);
}

TEST(PerVertex, WheelCountsExactPerVertex) {
  const EdgeList g = graph::simplify(graph::wheel_graph(6));
  const PerVertexResult result = count_per_vertex_2d(g, 4);
  EXPECT_EQ(result.counts[0], 6u);  // hub
  for (graph::VertexId v = 1; v <= 6; ++v) EXPECT_EQ(result.counts[v], 2u);
}

TEST(PerVertex, EmptyAndIsolated) {
  EdgeList g;
  g.num_vertices = 7;
  const PerVertexResult result = count_per_vertex_2d(g, 4);
  EXPECT_EQ(result.total_triangles, 0u);
  for (const auto c : result.counts) EXPECT_EQ(c, 0u);
}

TEST(PerVertex, NonSquareRanksThrow) {
  EXPECT_THROW(count_per_vertex_2d(sweep_graphs()[0], 6),
               std::invalid_argument);
}

TEST(ClusteringStats, MatchesSerialHelpers) {
  const EdgeList& g = sweep_graphs()[1];
  const graph::Csr csr = graph::Csr::from_edges(g);
  const ClusteringStats stats = clustering_stats_2d(g, 9);
  EXPECT_EQ(stats.triangles,
            graph::count_triangles_serial(csr));
  EXPECT_EQ(stats.wedges, graph::count_wedges(csr));
  EXPECT_NEAR(stats.transitivity, graph::transitivity(csr), 1e-12);
  EXPECT_NEAR(stats.average_local_clustering,
              graph::average_local_clustering(csr), 1e-12);
}

TEST(ClusteringStats, CompleteGraphBounds) {
  const EdgeList g = graph::simplify(graph::complete_graph(12));
  const ClusteringStats stats = clustering_stats_2d(g, 4);
  EXPECT_DOUBLE_EQ(stats.transitivity, 1.0);
  EXPECT_DOUBLE_EQ(stats.average_local_clustering, 1.0);
}

TEST(PerVertex, TopRanksByCountThenVertexId) {
  PerVertexResult result;
  result.counts = {2, 5, 0, 5, 0, 2};
  EXPECT_EQ(result.top(4), (std::vector<graph::VertexId>{1, 3, 0, 5}));
  EXPECT_EQ(result.top(100),
            (std::vector<graph::VertexId>{1, 3, 0, 5, 2, 4}));
  EXPECT_TRUE(result.top(0).empty());
}

TEST(PerVertex, LocalClusteringHelper) {
  PerVertexResult result;
  result.counts = {3, 0};
  EXPECT_DOUBLE_EQ(result.local_clustering(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(result.local_clustering(1, 1), 0.0);  // degree < 2
}

}  // namespace
}  // namespace tricount::core
