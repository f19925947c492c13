// Shared randomized graph corpus for cross-algorithm equivalence
// testing, factored out of algo_equivalence_test.cpp so the service
// tests exercise the exact same graphs: a served answer must match the
// library answer on the corpus every counting path already agrees on.
//
// The corpus is generated once per process from the fuzz seed (override
// via TRICOUNT_FUZZ_SEED) and every entry carries its serial reference
// count.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "test_seed.hpp"
#include "tricount/core/config.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::test_support {

struct CorpusEntry {
  graph::EdgeList graph;
  graph::TriangleCount expected = 0;
};

inline graph::EdgeList corpus_graph(util::Xoshiro256& rng) {
  switch (rng.bounded(4)) {
    case 0: {
      graph::RmatParams params;
      params.scale = 6 + static_cast<int>(rng.bounded(2));
      params.edge_factor = 4 + static_cast<double>(rng.bounded(6));
      params.seed = rng();
      return graph::rmat(params);
    }
    case 1: {
      const auto n = static_cast<graph::VertexId>(40 + rng.bounded(200));
      const auto m = static_cast<graph::EdgeIndex>(rng.bounded(7) * n / 2);
      return graph::simplify(graph::erdos_renyi(n, m, rng()));
    }
    case 2: {
      const auto n = static_cast<graph::VertexId>(30 + rng.bounded(150));
      const int k = 2 * (1 + static_cast<int>(rng.bounded(4)));
      return graph::simplify(
          graph::watts_strogatz(n, k, 0.3 * rng.uniform(), rng()));
    }
    default: {
      // Sparse background plus a glued clique: stresses the degree
      // relabel and the local/cut split with a dense core.
      graph::EdgeList g = graph::simplify(graph::erdos_renyi(80, 160, rng()));
      const auto c = static_cast<graph::VertexId>(5 + rng.bounded(6));
      for (graph::VertexId u = 0; u < c; ++u) {
        for (graph::VertexId v = u + 1; v < c; ++v) {
          g.edges.push_back(graph::Edge{u, v});
        }
      }
      return graph::simplify(std::move(g));
    }
  }
}

/// The shared corpus every matrix dimension runs against.
inline const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> entries = [] {
    util::Xoshiro256 rng(fuzz_seed() ^ 0xec5a11);
    std::vector<CorpusEntry> built;
    for (int i = 0; i < 5; ++i) {
      CorpusEntry entry;
      entry.graph = corpus_graph(rng);
      entry.expected =
          graph::count_triangles_serial(graph::Csr::from_edges(entry.graph));
      built.push_back(std::move(entry));
    }
    return built;
  }();
  return entries;
}

inline constexpr kernels::KernelPolicy kPolicies[] = {
    kernels::KernelPolicy::kAuto,      kernels::KernelPolicy::kMerge,
    kernels::KernelPolicy::kGalloping, kernels::KernelPolicy::kBitmap,
    kernels::KernelPolicy::kHash};

/// The Config switches a 2D run honours, as labelled inputs: the §5.2
/// doubly-sparse × backward-exit grid, every kernel policy, overlap on,
/// blob comm off, the ⟨i,j,k⟩ enumeration, and degree ordering off.
inline std::vector<std::pair<std::string, core::Config>> config_variants() {
  std::vector<std::pair<std::string, core::Config>> variants;
  for (const bool doubly : {true, false}) {
    for (const bool backward : {true, false}) {
      core::Config config;
      config.doubly_sparse = doubly;
      config.backward_early_exit = backward;
      variants.emplace_back("doubly=" + std::to_string(doubly) +
                                " backward=" + std::to_string(backward),
                            config);
    }
  }
  for (const kernels::KernelPolicy policy : kPolicies) {
    core::Config config;
    config.kernel = policy;
    variants.emplace_back(
        "kernel=" + std::string(kernels::to_string(policy)), config);
  }
  core::Config overlap;
  overlap.overlap = true;
  variants.emplace_back("overlap", overlap);
  core::Config arrays;
  arrays.blob_comm = false;
  variants.emplace_back("blob_comm=0", arrays);
  core::Config ijk;
  ijk.enumeration = core::Enumeration::kIJK;
  variants.emplace_back("ijk", ijk);
  core::Config unordered;
  unordered.degree_ordering = false;
  variants.emplace_back("degree_ordering=0", unordered);
  return variants;
}

}  // namespace tricount::test_support
