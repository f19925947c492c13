// Tests for the baseline algorithms (paper §4), run through the algorithm
// registry: each must be exact on every graph family and rank count, and
// their structural characteristics (ghost overlap, wedge counts, 2-core
// peeling) must show in the RunResult's steps and kernel counters.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>

#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount {
namespace {

using graph::EdgeList;
using graph::TriangleCount;

constexpr std::string_view kBaselines[] = {"aop", "push", "wedge"};

TriangleCount reference(const EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

EdgeList rmat_graph(std::uint64_t seed) {
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 7;
  params.seed = seed;
  return graph::rmat(params);
}

/// Sum over ranks of one per-rank sample field of pre step `name`.
template <typename Field>
std::uint64_t step_total(const core::RunResult& r, const std::string& name,
                         Field field) {
  for (std::size_t s = 0; s < r.step_names.size(); ++s) {
    if (r.step_names[s] != name) continue;
    std::uint64_t total = 0;
    for (const core::PhaseSample& sample : r.step_samples(s)) {
      total += field(sample);
    }
    return total;
  }
  ADD_FAILURE() << "no pre step '" << name << "'";
  return 0;
}

class BaselineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (graph, p)

const std::vector<EdgeList>& sweep_graphs() {
  static const std::vector<EdgeList>* graphs = [] {
    auto* v = new std::vector<EdgeList>;
    v->push_back(rmat_graph(101));
    v->push_back(graph::simplify(graph::erdos_renyi(250, 1800, 8)));
    v->push_back(graph::simplify(graph::complete_graph(24)));
    v->push_back(graph::simplify(graph::wheel_graph(30)));
    v->push_back(graph::simplify(graph::grid_graph(10, 11)));
    return v;
  }();
  return *graphs;
}

TEST_P(BaselineSweep, MatchesSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = sweep_graphs()[static_cast<std::size_t>(gi)];
  for (const std::string_view algo : kBaselines) {
    const core::RunResult r = core::count_triangles(algo, g, p);
    EXPECT_EQ(r.triangles, reference(g)) << algo;
    EXPECT_EQ(r.algorithm, algo);
    EXPECT_EQ(r.ranks, p);
  }
}

INSTANTIATE_TEST_SUITE_P(GraphsByRanks, BaselineSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 2, 4, 7, 9)));

TEST(Baselines, StepsAndSuperstepsFollowTheAlgorithm) {
  const EdgeList g = rmat_graph(7);
  const core::RunResult aop = core::count_triangles("aop", g, 4);
  EXPECT_EQ(aop.step_names, (std::vector<std::string>{"partition", "ghost"}));
  EXPECT_EQ(aop.num_shifts(), 1u);
  const core::RunResult push = core::count_triangles("push", g, 4);
  EXPECT_EQ(push.step_names, (std::vector<std::string>{"partition"}));
  EXPECT_EQ(push.num_shifts(), 4u);
  const core::RunResult wedge = core::count_triangles("wedge", g, 4);
  EXPECT_EQ(wedge.step_names,
            (std::vector<std::string>{"twocore", "partition"}));
  EXPECT_EQ(wedge.num_shifts(), 4u);
}

TEST(Aop, CountingSuperstepIsCommunicationFree) {
  const EdgeList g = rmat_graph(3);
  const core::RunResult result = core::count_triangles("aop", g, 4);
  // The counting superstep moves no adjacency data (the algorithm's
  // point); at most a small collective could land in it.
  for (const core::PhaseSample& sample : result.shift_samples(0)) {
    EXPECT_LE(sample.bytes, 1024u);
  }
  // The ghost step moves real adjacency data on multi-rank runs.
  EXPECT_GT(step_total(result, "ghost",
                       [](const core::PhaseSample& s) { return s.bytes; }),
            0u);
}

TEST(Wedge, PeelsTreesEntirely) {
  // A path graph is peeled to nothing by the 2-core decomposition.
  const EdgeList g = graph::simplify(graph::path_graph(50));
  const core::RunResult result = core::count_triangles("wedge", g, 4);
  EXPECT_EQ(result.triangles, 0u);
  EXPECT_EQ(step_total(result, "twocore",
                       [](const core::PhaseSample& s) { return s.ops; }),
            50u);
  EXPECT_EQ(result.total_kernel().lookups, 0u);
}

TEST(Wedge, KeepsCyclesAndCountsWedges) {
  // A cycle is its own 2-core; it has wedges but no triangles.
  const EdgeList g = graph::simplify(graph::cycle_graph(30));
  const core::RunResult result = core::count_triangles("wedge", g, 3);
  EXPECT_EQ(result.triangles, 0u);
  EXPECT_EQ(step_total(result, "twocore",
                       [](const core::PhaseSample& s) { return s.ops; }),
            0u);
  EXPECT_GT(result.total_kernel().lookups, 0u);
}

TEST(Wedge, WedgeVolumeExceedsEdgesOnSkewedGraphs) {
  // The structural reason Havoq loses (§7.4): closure queries, one per
  // wedge, blow up with degree skew.
  const EdgeList g = rmat_graph(9);
  const core::RunResult result = core::count_triangles("wedge", g, 4);
  EXPECT_GT(result.total_kernel().lookups, g.edges.size());
  EXPECT_EQ(result.total_kernel().hits, result.triangles);
}

TEST(Baselines, EmptyGraphsAreFine) {
  EdgeList empty;
  empty.num_vertices = 10;
  for (const std::string_view algo : kBaselines) {
    EXPECT_EQ(core::count_triangles(algo, empty, 4).triangles, 0u) << algo;
  }
}

TEST(Baselines, ModeledTimesAreFinite) {
  const EdgeList g = rmat_graph(21);
  for (const std::string_view algo : kBaselines) {
    const core::RunResult r = core::count_triangles(algo, g, 4);
    EXPECT_GE(r.total_modeled_seconds(), 0.0) << algo;
    std::uint64_t bytes = 0;
    for (const core::RankStats& stats : r.per_rank) {
      bytes += stats.pre_total().bytes + stats.tc_total().bytes;
    }
    EXPECT_GT(bytes, 0u) << algo;
  }
}

TEST(Baselines, RejectNonPositiveRankCounts) {
  for (const std::string_view algo : kBaselines) {
    EXPECT_THROW((void)core::count_triangles(algo, rmat_graph(1), 0),
                 std::invalid_argument)
        << algo;
  }
}

}  // namespace
}  // namespace tricount
