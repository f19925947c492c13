// Tests for the preprocessing pipeline: block/cyclic distributions, the
// distributed degree relabel (validity, monotonicity, and a differential
// against the sort-and-search relabel), and the 2D scatter's structural
// invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "test_corpus.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/graph/degree_order.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/util/prefix.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

/// The straightforward §5.3 relabel, kept as the oracle for
/// degree_relabel: per-owner request lists built by push, sort and
/// unique, and one lower_bound into the owner's list per adjacency entry.
/// Same collectives in the same order, so the same messages and bytes.
RelabeledSlice sort_search_relabel(mpisim::Comm& comm,
                                   const CyclicSlice& slice) {
  const int p = slice.p;
  const auto pv = static_cast<VertexId>(p);
  EdgeIndex local_max = 0;
  for (const auto& list : slice.adj) {
    local_max = std::max(local_max, static_cast<EdgeIndex>(list.size()));
  }
  const EdgeIndex dmax = mpisim::allreduce_max(comm, local_max);
  std::vector<std::uint64_t> histogram(static_cast<std::size_t>(dmax) + 1, 0);
  for (const auto& list : slice.adj) ++histogram[list.size()];
  std::vector<std::uint64_t> inclusive = histogram;
  const std::vector<std::uint64_t> lower_counts = mpisim::scan_and_exscan(
      comm, inclusive, std::plus<std::uint64_t>(), std::uint64_t{0});
  std::vector<std::uint64_t> global = histogram;
  mpisim::allreduce(comm, global, std::plus<std::uint64_t>());
  util::exclusive_prefix_sum(global);

  RelabeledSlice out;
  out.num_vertices = slice.num_vertices;
  out.rank = slice.rank;
  out.p = p;
  out.global_max_degree = dmax;
  out.new_ids.resize(slice.adj.size());
  std::vector<std::uint64_t> within(static_cast<std::size_t>(dmax) + 1, 0);
  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    const std::size_t d = slice.adj[k].size();
    out.new_ids[k] =
        static_cast<VertexId>(global[d] + lower_counts[d] + within[d]++);
  }

  std::vector<std::vector<VertexId>> requests(static_cast<std::size_t>(p));
  for (const auto& list : slice.adj) {
    for (const VertexId u : list) requests[u % pv].push_back(u);
  }
  for (auto& r : requests) {
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
  }
  const auto incoming = mpisim::alltoallv(comm, requests);
  std::vector<std::vector<VertexId>> answers(static_cast<std::size_t>(p));
  for (std::size_t r = 0; r < answers.size(); ++r) {
    for (const VertexId u : incoming[r]) {
      answers[r].push_back(out.new_ids[u / pv]);
    }
  }
  const auto responses = mpisim::alltoallv(comm, answers);
  out.adj.resize(slice.adj.size());
  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    for (const VertexId u : slice.adj[k]) {
      const auto& req = requests[u % pv];
      const auto at = std::lower_bound(req.begin(), req.end(), u);
      out.adj[k].push_back(
          responses[u % pv][static_cast<std::size_t>(at - req.begin())]);
    }
  }
  return out;
}

TEST(BlockRange, PartitionsExactly) {
  for (const VertexId n : {0u, 1u, 7u, 16u, 100u}) {
    for (const int p : {1, 3, 4, 7, 16}) {
      VertexId covered = 0;
      VertexId prev_end = 0;
      for (int r = 0; r < p; ++r) {
        const auto [begin, end] = block_range(n, r, p);
        EXPECT_EQ(begin, prev_end);
        EXPECT_LE(end - begin, n / static_cast<VertexId>(p) + 1);
        prev_end = end;
        covered += end - begin;
        for (VertexId v = begin; v < end; ++v) {
          EXPECT_EQ(block_owner(v, n, p), r) << "v=" << v;
        }
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(BlockSlice, CoversAllAdjacency) {
  const EdgeList g = graph::simplify(graph::rmat([] {
    graph::RmatParams params;
    params.scale = 7;
    params.edge_factor = 4;
    params.seed = 6;
    return params;
  }()));
  const int p = 4;
  EdgeIndex total_entries = 0;
  for (int r = 0; r < p; ++r) {
    const LocalSlice slice = block_slice_from_edges(g, r, p);
    EXPECT_EQ(slice.num_vertices, g.num_vertices);
    for (const auto& list : slice.adj) total_entries += list.size();
  }
  EXPECT_EQ(total_entries, 2 * g.edges.size());
}

TEST(CyclicRedistribute, PreservesAdjacency) {
  const EdgeList g = graph::simplify(graph::erdos_renyi(120, 500, 3));
  const int p = 5;
  std::mutex mu;
  std::map<VertexId, std::vector<VertexId>> collected;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    EXPECT_EQ(cyclic.owned(),
              cyclic_row_count(g.num_vertices, p, comm.rank()));
    std::scoped_lock lock(mu);
    for (VertexId k = 0; k < cyclic.owned(); ++k) {
      collected[cyclic.global_id(k)] = cyclic.adj[k];
    }
  });
  // Every vertex appears exactly once with its full adjacency.
  const graph::Csr csr = graph::Csr::from_edges(g);
  ASSERT_EQ(collected.size(), static_cast<std::size_t>(g.num_vertices));
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const auto nbrs = csr.neighbors(v);
    EXPECT_EQ(collected[v],
              std::vector<VertexId>(nbrs.begin(), nbrs.end()))
        << "vertex " << v;
  }
}

TEST(DegreeRelabel, ProducesValidMonotonePermutation) {
  const EdgeList g = graph::simplify(graph::rmat([] {
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 6;
    params.seed = 13;
    return params;
  }()));
  const int p = 6;
  std::mutex mu;
  std::vector<std::pair<VertexId, EdgeIndex>> id_and_degree;  // (new id, deg)
  std::vector<VertexId> all_new_ids;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    const RelabeledSlice relabeled = degree_relabel(comm, cyclic);
    std::scoped_lock lock(mu);
    for (std::size_t k = 0; k < relabeled.adj.size(); ++k) {
      id_and_degree.emplace_back(relabeled.new_ids[k],
                                 relabeled.adj[k].size());
      all_new_ids.push_back(relabeled.new_ids[k]);
    }
  });
  // New ids form a permutation of [0, n).
  std::sort(all_new_ids.begin(), all_new_ids.end());
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    ASSERT_EQ(all_new_ids[v], v);
  }
  // Non-decreasing degree along the new id order.
  std::sort(id_and_degree.begin(), id_and_degree.end());
  for (std::size_t i = 1; i < id_and_degree.size(); ++i) {
    EXPECT_LE(id_and_degree[i - 1].second, id_and_degree[i].second)
        << "at new id " << i;
  }
  // Global max degree reported correctly.
  EXPECT_EQ(id_and_degree.back().second, graph::max_degree(g));
}

TEST(DegreeRelabel, AdjacencyRelabeledConsistently) {
  // The relabeled edge multiset must equal the original edge multiset
  // mapped through the new-id permutation.
  const EdgeList g = graph::simplify(graph::watts_strogatz(80, 6, 0.2, 9));
  const int p = 4;
  std::mutex mu;
  std::vector<VertexId> perm(g.num_vertices);
  std::vector<std::pair<VertexId, VertexId>> relabeled_edges;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    const RelabeledSlice rel = degree_relabel(comm, cyclic);
    std::scoped_lock lock(mu);
    for (std::size_t k = 0; k < rel.adj.size(); ++k) {
      perm[cyclic.global_id(static_cast<VertexId>(k))] = rel.new_ids[k];
      for (const VertexId u : rel.adj[k]) {
        const VertexId w = rel.new_ids[k];
        relabeled_edges.emplace_back(std::min(w, u), std::max(w, u));
      }
    }
  });
  std::vector<std::pair<VertexId, VertexId>> expected;
  for (const graph::Edge& e : g.edges) {
    const VertexId a = perm[e.u];
    const VertexId b = perm[e.v];
    expected.emplace_back(std::min(a, b), std::max(a, b));
    expected.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(relabeled_edges.begin(), relabeled_edges.end());
  EXPECT_EQ(relabeled_edges, expected);
}

TEST(DegreeRelabel, MatchesSortSearchOracle) {
  // Same new ids, relabeled lists and max degree as the sort-and-search
  // relabel, from the same per-rank messages and bytes, on the shared
  // corpus plus a graph smaller than most worlds and one with isolated
  // vertices.
  std::vector<std::pair<std::string, EdgeList>> graphs;
  for (std::size_t i = 0; i < test_support::corpus().size(); ++i) {
    graphs.emplace_back("corpus[" + std::to_string(i) + "]",
                        test_support::corpus()[i].graph);
  }
  graphs.emplace_back("n<p", graph::simplify(graph::complete_graph(4)));
  {
    EdgeList sparse = graph::simplify(graph::erdos_renyi(60, 90, 5));
    sparse.num_vertices = 400;  // vertices 60..399 have no edges
    graphs.emplace_back("isolated", std::move(sparse));
  }
  for (const auto& [name, g] : graphs) {
    for (const int p : {1, 2, 3, 4, 5, 7, 9}) {
      SCOPED_TRACE(name + " p=" + std::to_string(p));
      std::vector<CyclicSlice> cyclic(static_cast<std::size_t>(p));
      mpisim::run_world(p, [&](mpisim::Comm& comm) {
        const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
        cyclic[static_cast<std::size_t>(comm.rank())] =
            cyclic_redistribute(comm, input);
      });
      auto relabel_all = [&](auto relabel,
                             std::vector<RelabeledSlice>& out) {
        out.resize(static_cast<std::size_t>(p));
        return mpisim::run_world(p, [&](mpisim::Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          out[r] = relabel(comm, cyclic[r]);
        });
      };
      std::vector<RelabeledSlice> got;
      std::vector<RelabeledSlice> want;
      const auto got_counters = relabel_all(degree_relabel, got);
      const auto want_counters = relabel_all(sort_search_relabel, want);
      for (std::size_t r = 0; r < static_cast<std::size_t>(p); ++r) {
        EXPECT_EQ(got[r].new_ids, want[r].new_ids) << "rank " << r;
        EXPECT_EQ(got[r].adj, want[r].adj) << "rank " << r;
        EXPECT_EQ(got[r].global_max_degree, want[r].global_max_degree);
        EXPECT_EQ(got_counters[r].messages_sent,
                  want_counters[r].messages_sent) << "rank " << r;
        EXPECT_EQ(got_counters[r].bytes_sent, want_counters[r].bytes_sent)
            << "rank " << r;
      }
    }
  }
}

TEST(Scatter2D, BlockEntryCountsAddUp) {
  const EdgeList g = graph::simplify(graph::erdos_renyi(90, 600, 21));
  const int p = 9;
  std::atomic<std::uint64_t> u_total{0};
  std::atomic<std::uint64_t> l_total{0};
  std::atomic<std::uint64_t> t_total{0};
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    const RelabeledSlice rel = degree_relabel(comm, cyclic);
    const Blocks blocks = scatter_2d(grid, rel, Enumeration::kJIK);
    blocks.ublock.validate();
    blocks.lblock.validate();
    blocks.tasks.validate();
    u_total.fetch_add(blocks.ublock.num_entries());
    l_total.fetch_add(blocks.lblock.num_entries());
    t_total.fetch_add(blocks.tasks.num_entries());
  });
  // U, L, and the (kJIK) task matrix each hold every edge exactly once.
  EXPECT_EQ(u_total.load(), g.edges.size());
  EXPECT_EQ(l_total.load(), g.edges.size());
  EXPECT_EQ(t_total.load(), g.edges.size());
}

TEST(Preprocess, StepsAreNamedAndEdgeCountIsGlobal) {
  const EdgeList g = graph::simplify(graph::complete_graph(20));
  const int p = 4;
  std::mutex mu;
  std::vector<PreprocessOutput> outputs;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    PreprocessOutput out = preprocess(grid, input, Config{});
    std::scoped_lock lock(mu);
    outputs.push_back(std::move(out));
  });
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& out : outputs) {
    EXPECT_EQ(out.num_edges, g.edges.size());
    ASSERT_EQ(out.steps.size(), 4u);
    EXPECT_EQ(out.steps[0].first, "redistribute");
    EXPECT_EQ(out.steps[1].first, "degree_order");
    EXPECT_EQ(out.steps[2].first, "scatter_2d");
    EXPECT_EQ(out.steps[3].first, "edge_count");
  }
}

}  // namespace
}  // namespace tricount::core
