// Cross-algorithm equivalence matrix: every counting path in the
// repository — serial and every counter in the algorithm registry (2D
// Cannon, SUMMA, the communication-avoiding cetric counter, and the three
// 1D baselines AOP, push and wedge) — must report the exact same
// triangle count on a shared randomized corpus, under every kernel
// policy, with overlap on and off, across a sweep of rank counts, and
// under injected faults. Where per-vertex tallies are supported (the 2D
// path), the full vectors must agree across grids.
//
// This is the project's strongest invariant; any disagreement fails
// loudly with the generating seed and the full algorithm coordinates.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "test_corpus.hpp"
#include "test_seed.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"

namespace tricount {
namespace {

using test_support::CorpusEntry;
using test_support::corpus;
using test_support::kPolicies;

/// The rank counts a registered counter is exercised on; the first is
/// the one the kernel and chaos dimensions use. Cannon needs perfect
/// squares; the others run on any count (SUMMA on the most-square grid,
/// so 6 -> 2x3 and 12 -> 3x4).
std::vector<int> rank_sweep(std::string_view algorithm) {
  if (algorithm == "2d") return {4, 1, 9, 16};
  return {6, 1, 2, 3, 4, 5, 7, 8, 12};
}

TEST(AlgoEquivalence, KernelMatrix) {
  // algorithm x kernel policy x overlap, on every corpus graph. The
  // kernel layer is shared across algorithms, so a policy-specific bug
  // in any consumer breaks exactly one cell of this matrix.
  for (std::size_t gi = 0; gi < corpus().size(); ++gi) {
    const CorpusEntry& entry = corpus()[gi];
    for (std::size_t ki = 0; ki < 5; ++ki) {
      const kernels::KernelPolicy policy = kPolicies[ki];
      SCOPED_TRACE(::testing::Message()
                   << "graph=" << gi << " n=" << entry.graph.num_vertices
                   << " kernel=" << static_cast<int>(policy)
                   << " expected=" << entry.expected);

      core::RunOptions options;
      options.config.kernel = policy;
      options.config.overlap = (ki % 2) == 0;
      for (const std::string_view algo : core::algorithm_names()) {
        const int ranks = rank_sweep(algo).front();
        EXPECT_EQ(core::count_triangles(algo, entry.graph, ranks, options)
                      .triangles,
                  entry.expected)
            << algo << " p=" << ranks
            << " overlap=" << options.config.overlap;
      }
    }
  }
}

TEST(AlgoEquivalence, RankCountSweep) {
  // Every algorithm across its admissible rank counts on the corpus:
  // perfect squares for Cannon, arbitrary rectangles for SUMMA,
  // arbitrary counts for cetric and the 1D baselines.
  for (std::size_t gi = 0; gi < corpus().size(); ++gi) {
    const CorpusEntry& entry = corpus()[gi];
    SCOPED_TRACE(::testing::Message() << "graph=" << gi);
    for (const std::string_view algo : core::algorithm_names()) {
      for (const int p : rank_sweep(algo)) {
        EXPECT_EQ(core::count_triangles(algo, entry.graph, p).triangles,
                  entry.expected)
            << algo << " p=" << p;
      }
    }
  }
}

TEST(AlgoEquivalence, PerVertexTalliesAgreeWhereSupported) {
  // The 2D path supports per-vertex tallies; the full vectors (not just
  // the totals) must be identical across grid sizes, and a ranks=1 run
  // is the serial reference.
  for (std::size_t gi = 0; gi < corpus().size(); ++gi) {
    const CorpusEntry& entry = corpus()[gi];
    const core::PerVertexResult serial =
        core::count_per_vertex_2d(entry.graph, 1);
    ASSERT_EQ(serial.total_triangles, entry.expected) << "graph=" << gi;
    for (const int grid : {4, 9}) {
      const core::PerVertexResult dist =
          core::count_per_vertex_2d(entry.graph, grid);
      EXPECT_EQ(dist.total_triangles, entry.expected);
      ASSERT_EQ(dist.counts.size(), serial.counts.size());
      EXPECT_EQ(dist.counts, serial.counts)
          << "per-vertex tallies diverge, graph=" << gi << " grid=" << grid;
    }
  }
}

TEST(AlgoEquivalence, ChaosDimension) {
  // Every registered counter stays exact under a mixed drop/dup/
  // reorder/delay plan; twelve seeded rounds on rotating corpus graphs.
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t seed = util::stream_seed(
        util::stream_seed(test_support::chaos_seed(), 0xecbad),
        static_cast<std::uint64_t>(i));
    const CorpusEntry& entry = corpus()[static_cast<std::size_t>(i) %
                                        corpus().size()];
    chaos::FaultSpec spec;
    spec.seed = seed;
    spec.drop_rate = 0.05;
    spec.duplicate_rate = 0.05;
    spec.reorder_rate = 0.10;
    spec.delay_rate = 0.05;
    spec.straggler_factor = 3.0;
    spec.retry_timeout_seconds = 2e-3;
    SCOPED_TRACE(::testing::Message() << "round=" << i << " seed=" << seed);

    for (const std::string_view algo : core::algorithm_names()) {
      const int ranks = rank_sweep(algo).front();
      core::RunOptions options;
      options.chaos = std::make_shared<const chaos::FaultPlan>(spec, ranks);
      EXPECT_EQ(core::count_triangles(algo, entry.graph, ranks, options)
                    .triangles,
                entry.expected)
          << algo << " under chaos";
    }
  }
}

}  // namespace
}  // namespace tricount
