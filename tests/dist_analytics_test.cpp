// Tests for the distributed analytics built on the triangle machinery:
// distributed k-truss support counting, validated against its serial
// reference on every graph family and grid size, under every Config
// switch, and under chaos faults; and the triangle sinks on a resident
// partition, which must match the fresh runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "test_corpus.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/dist_truss.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/resident.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

class DistTrussSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (graph, p)

const std::vector<EdgeList>& truss_graphs() {
  static const std::vector<EdgeList>* graphs = [] {
    auto* v = new std::vector<EdgeList>;
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 6;
    params.seed = 99;
    v->push_back(graph::rmat(params));
    v->push_back(graph::simplify(graph::erdos_renyi(150, 900, 3)));
    v->push_back(graph::simplify(graph::complete_graph(15)));
    v->push_back(graph::simplify(graph::wheel_graph(20)));
    return v;
  }();
  return *graphs;
}

TEST_P(DistTrussSweep, SupportsMatchSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = truss_graphs()[static_cast<std::size_t>(gi)];
  const auto expected = graph::edge_supports(g);
  const auto actual = edge_supports_2d(g, p);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(actual[e], expected[e]) << "edge " << e;
  }
}

TEST_P(DistTrussSweep, DecompositionMatchesSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = truss_graphs()[static_cast<std::size_t>(gi)];
  const graph::KtrussResult serial = graph::ktruss_decomposition(g);
  const graph::KtrussResult dist = ktruss_2d(g, p);
  EXPECT_EQ(dist.max_k, serial.max_k);
  EXPECT_EQ(dist.trussness, serial.trussness);
}

INSTANTIATE_TEST_SUITE_P(GraphsByRanks, DistTrussSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 4, 9, 16)));

TEST(DistTruss, EmptyAndTriangleFree) {
  EdgeList empty;
  empty.num_vertices = 6;
  EXPECT_TRUE(edge_supports_2d(empty, 4).empty());
  const EdgeList grid = graph::simplify(graph::grid_graph(4, 4));
  for (const auto s : edge_supports_2d(grid, 4)) EXPECT_EQ(s, 0u);
  EXPECT_EQ(ktruss_2d(grid, 4).max_k, 2);
}

TEST(DistTruss, OptimizationTogglesStayExact) {
  const EdgeList& g = truss_graphs()[0];
  const auto expected = graph::edge_supports(g);
  for (const auto& [label, config] : test_support::config_variants()) {
    RunOptions options;
    options.config = config;
    EXPECT_EQ(edge_supports_2d(g, 9, options), expected) << label;
  }
}

TEST(DistTruss, SupportsExactUnderCrashAndMessageFaults) {
  const EdgeList& g = truss_graphs()[0];
  chaos::FaultSpec spec;
  spec.seed = 0x7e55;
  spec.drop_rate = 0.05;
  spec.duplicate_rate = 0.05;
  spec.crash_superstep = 1;
  RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(spec, 4);
  EXPECT_EQ(edge_supports_2d(g, 4, options), graph::edge_supports(g));
}

TEST(DistTruss, NonSquareRanksThrow) {
  EXPECT_THROW(edge_supports_2d(truss_graphs()[0], 8),
               std::invalid_argument);
}

TEST(ResidentSinks, OnePartitionServesPerVertexThenSupports) {
  // Two sink runs in turn on one partition: the second only matches the
  // fresh run if the first left the resident blocks and old ids intact.
  const EdgeList& g = truss_graphs()[0];
  mpisim::PersistentWorld world(9);
  for (const auto& [label, config] : test_support::config_variants()) {
    RunOptions options;
    options.config = config;
    const ResidentPartition partition =
        preprocess_resident(world, g, options);
    const PerVertexResult per_vertex = count_per_vertex_2d(world, partition);
    RunResult run;
    const auto supports = edge_supports_2d(world, partition, g, &run);
    const PerVertexResult fresh = count_per_vertex_2d(g, 9, options);
    EXPECT_EQ(per_vertex.counts, fresh.counts) << label;
    EXPECT_EQ(per_vertex.total_triangles, fresh.total_triangles) << label;
    EXPECT_EQ(supports, edge_supports_2d(g, 9, options)) << label;
    EXPECT_EQ(run.triangles, fresh.total_triangles) << label;
    EXPECT_EQ(run.num_shifts(), 3u) << label;
  }
}

TEST(ResidentSinks, SinkRunWithoutOldIdsThrows) {
  // A partition assembled from bare blocks (no preprocess_resident) can
  // count, but cannot map a sink's tallies back to input ids.
  const EdgeList& g = truss_graphs()[1];
  mpisim::PersistentWorld world(4);
  ResidentPartition partition = preprocess_resident(world, g);
  partition.old_ids.clear();
  EXPECT_EQ(count_resident(world, partition, partition.config).triangles,
            graph::count_triangles_serial(graph::Csr::from_edges(g)));
  try {
    count_per_vertex_2d(world, partition);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("count_resident"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tricount::core
