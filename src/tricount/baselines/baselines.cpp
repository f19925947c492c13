#include "tricount/baselines/baselines.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tricount/core/partition1d.hpp"
#include "tricount/core/superstep.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::baselines {

namespace {

using core::Config;
using core::KernelCounters;
using core::LocalSlice;
using core::OwnedRows;
using core::PhaseSample;
using core::PhaseTracker;
using core::RankStats;
using core::RunOptions;
using core::RunResult;
using graph::TriangleCount;
using graph::VertexId;

/// Push and wedge batch their exchange into this many rounds, one
/// counting superstep each, to bound the per-round buffers.
constexpr int kRounds = 4;

/// The result every baseline run starts from. The input is replicated,
/// so its size is known before the run.
RunResult start_result(const char* algorithm, const graph::EdgeList& graph,
                       int ranks) {
  if (ranks < 1) {
    throw std::invalid_argument(std::string(algorithm) +
                                ": rank count must be positive");
  }
  RunResult result;
  result.algorithm = algorithm;
  result.ranks = ranks;
  result.num_vertices = graph.num_vertices;
  result.num_edges = static_cast<core::EdgeIndex>(graph.edges.size());
  return result;
}

/// The "partition" pre step: the degree-ordered Adj+ rows, routed to
/// equal blocks of the degree order.
OwnedRows partition_step(mpisim::Comm& comm, const LocalSlice& input,
                         PhaseTracker& tracker, RankStats& stats) {
  const core::PlusLists lists = core::plus_lists_from_slice(comm, input);
  const VertexId n = lists.num_vertices;
  OwnedRows dag = core::route_plus_lists(
      comm, lists,
      core::Partition{n, comm.size(), comm.rank(),
                      core::block_boundaries(n, comm.size())});
  PhaseSample sample = tracker.cut();
  sample.ops = dag.routed_entries;
  stats.pre_steps.emplace_back("partition", sample);
  return dag;
}

/// The owned rows [first, second) that round `round` of kRounds handles.
std::pair<VertexId, VertexId> round_rows(VertexId owned, int round) {
  const auto at = [&](int r) {
    return static_cast<VertexId>(static_cast<std::uint64_t>(owned) *
                                 static_cast<std::uint64_t>(r) /
                                 static_cast<std::uint64_t>(kRounds));
  };
  return {at(round), at(round + 1)};
}

/// The inner loop aop and push share: pins `row` as the hashed side and
/// intersects it with the Adj+ row `row_of(u)` of every target u.
template <typename RowOf>
void intersect_row(core::SuperstepEngine& engine, const Config& config,
                   std::span<const VertexId> row,
                   std::span<const VertexId> targets, const RowOf& row_of) {
  if (row.empty() || targets.empty()) return;
  KernelCounters& kernel = engine.kernel();
  ++kernel.rows_visited;
  engine.scratch().begin_row(row, config.modified_hashing);
  for (const VertexId u : targets) {
    ++kernel.intersection_tasks;
    engine.triangles() += engine.scratch().task(
        config.kernel, std::span<const VertexId>(row_of(u)),
        config.backward_early_exit, kernel);
  }
}

/// Distributed 2-core peeling on the block-distributed full adjacency.
/// Returns the number of vertices peeled on this rank; `slice.adj` is
/// filtered in place so peeled vertices and their edges disappear.
VertexId two_core_peel(mpisim::Comm& comm, LocalSlice& slice) {
  const int p = comm.size();
  const VertexId n = slice.num_vertices;
  VertexId peeled = 0;
  while (true) {
    // Notices (u, v): "edge (v, u) vanished because v was peeled".
    std::vector<std::vector<VertexId>> notices(static_cast<std::size_t>(p));
    VertexId died = 0;
    for (VertexId k = 0; k < slice.owned(); ++k) {
      auto& list = slice.adj[k];
      if (list.empty() || list.size() >= 2) continue;
      const VertexId v = slice.begin + k;
      for (const VertexId u : list) {
        auto& bucket =
            notices[static_cast<std::size_t>(core::block_owner(u, n, p))];
        bucket.push_back(u);
        bucket.push_back(v);
      }
      list.clear();
      ++died;
    }
    const auto incoming = mpisim::alltoallv(comm, notices);
    for (const auto& bucket : incoming) {
      for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
        const VertexId u = bucket[at];
        const VertexId v = bucket[at + 1];
        auto& list = slice.adj[u - slice.begin];
        const auto it = std::lower_bound(list.begin(), list.end(), v);
        if (it != list.end() && *it == v) list.erase(it);
      }
    }
    peeled += died;
    if (mpisim::allreduce_sum(comm, static_cast<std::uint64_t>(died)) == 0) {
      break;
    }
  }
  return peeled;
}

}  // namespace

RunResult count_triangles_aop(const graph::EdgeList& graph, int ranks,
                              const RunOptions& options) {
  const Config& config = options.config;
  return core::run_counter(
      start_result("aop", graph, ranks), options,
      [&](mpisim::Comm& comm, RankStats& stats, RunResult& out) {
        PhaseTracker tracker(comm);
        const OwnedRows dag = partition_step(
            comm, core::block_slice_from_edges(graph, comm.rank(), comm.size()),
            tracker, stats);

        // --- pre step "ghost": pull Adj+ of every referenced non-local
        // vertex (the overlapping partition).
        core::GhostRows ghosts;
        {
          obs::ScopedSpan span("ghost", "pre");
          std::vector<std::vector<VertexId>> requests(
              static_cast<std::size_t>(comm.size()));
          for (const auto& row : dag.adj_plus) {
            for (const VertexId u : row) {
              if (!dag.part.owns(u)) {
                requests[static_cast<std::size_t>(dag.part.owner(u))]
                    .push_back(u);
              }
            }
          }
          ghosts = core::fetch_ghost_rows(comm, dag, std::move(requests));
        }
        {
          PhaseSample sample = tracker.cut();
          sample.ops = ghosts.entries;
          stats.pre_steps.emplace_back("ghost", sample);
        }

        // --- one counting superstep, zero messages: every row closes
        // against owned or ghost rows.
        core::SuperstepEngine engine(comm, config, 1, dag.max_row());
        engine.begin(0);
        engine.checkpoint();
        engine.compute([&] {
          for (const auto& row : dag.adj_plus) {
            intersect_row(engine, config, row, row,
                          [&](VertexId u) -> const std::vector<VertexId>& {
                            return dag.part.owns(u) ? dag.plus(u)
                                                    : *ghosts.find(u);
                          });
          }
        });
        stats.shifts.push_back(engine.finish());
        const TriangleCount total = engine.reduce();
        stats.kernel = engine.kernel();
        if (comm.rank() == 0) out.triangles = total;
      });
}

RunResult count_triangles_push(const graph::EdgeList& graph, int ranks,
                               const RunOptions& options) {
  const Config& config = options.config;
  return core::run_counter(
      start_result("push", graph, ranks), options,
      [&](mpisim::Comm& comm, RankStats& stats, RunResult& out) {
        PhaseTracker tracker(comm);
        const OwnedRows dag = partition_step(
            comm, core::block_slice_from_edges(graph, comm.rank(), comm.size()),
            tracker, stats);
        const core::Partition& part = dag.part;
        const auto plus_of = [&](VertexId u) -> const std::vector<VertexId>& {
          return dag.plus(u);
        };

        core::SuperstepEngine engine(comm, config, kRounds, dag.max_row());
        for (int round = 0; round < kRounds; ++round) {
          engine.begin(round);
          const std::pair<VertexId, VertexId> rows =
              round_rows(part.owned(), round);
          const VertexId lo = rows.first;
          const VertexId hi = rows.second;
          // Push format per source row w, per destination rank:
          //   [#targets, target u..., |Adj+(w)|, Adj+(w)...]
          // Rows are sorted and ranges contiguous, so one destination's
          // targets are one run of Adj+(w), and the row ships at most
          // once per destination.
          std::vector<std::vector<VertexId>> outgoing(
              static_cast<std::size_t>(comm.size()));
          for (VertexId k = lo; k < hi; ++k) {
            const auto& aw = dag.adj_plus[k];
            for (std::size_t i = 0; i < aw.size();) {
              const int r = part.owner(aw[i]);
              const VertexId end =
                  part.boundaries[static_cast<std::size_t>(r) + 1];
              std::size_t j = i + 1;
              while (j < aw.size() && aw[j] < end) ++j;
              if (r != comm.rank()) {
                auto& bucket = outgoing[static_cast<std::size_t>(r)];
                bucket.push_back(static_cast<VertexId>(j - i));
                bucket.insert(bucket.end(),
                              aw.begin() + static_cast<std::ptrdiff_t>(i),
                              aw.begin() + static_cast<std::ptrdiff_t>(j));
                bucket.push_back(static_cast<VertexId>(aw.size()));
                bucket.insert(bucket.end(), aw.begin(), aw.end());
              }
              i = j;
            }
          }
          const auto incoming = mpisim::alltoallv(comm, outgoing);
          // Checkpoint after the exchange: the received pushes are the
          // message log a crashed rank replays from.
          engine.checkpoint();
          engine.compute([&] {
            // Targets this rank owns (a prefix of Adj+(w): its entries
            // lie above w), then the pushed rows.
            for (VertexId k = lo; k < hi; ++k) {
              const auto& aw = dag.adj_plus[k];
              const auto last =
                  std::lower_bound(aw.begin(), aw.end(), part.end());
              intersect_row(engine, config, aw,
                            std::span<const VertexId>(aw.begin(), last),
                            plus_of);
            }
            for (const auto& bucket : incoming) {
              std::size_t at = 0;
              while (at < bucket.size()) {
                const VertexId nt = bucket[at++];
                const std::span<const VertexId> targets(bucket.data() + at, nt);
                at += nt;
                const VertexId len = bucket[at++];
                const std::span<const VertexId> aw(bucket.data() + at, len);
                at += len;
                intersect_row(engine, config, aw, targets, plus_of);
              }
            }
          });
          stats.shifts.push_back(engine.finish());
        }
        const TriangleCount total = engine.reduce();
        stats.kernel = engine.kernel();
        if (comm.rank() == 0) out.triangles = total;
      });
}

RunResult count_triangles_wedge(const graph::EdgeList& graph, int ranks,
                                const RunOptions& options) {
  return core::run_counter(
      start_result("wedge", graph, ranks), options,
      [&](mpisim::Comm& comm, RankStats& stats, RunResult& out) {
        PhaseTracker tracker(comm);
        LocalSlice slice =
            core::block_slice_from_edges(graph, comm.rank(), comm.size());
        VertexId peeled = 0;
        {
          obs::ScopedSpan span("twocore", "pre");
          peeled = two_core_peel(comm, slice);
        }
        {
          PhaseSample sample = tracker.cut();
          sample.ops = peeled;
          stats.pre_steps.emplace_back("twocore", sample);
        }
        const OwnedRows dag = partition_step(comm, slice, tracker, stats);
        const core::Partition& part = dag.part;

        core::SuperstepEngine engine(comm, options.config, kRounds, 0);
        KernelCounters& kernel = engine.kernel();
        for (int round = 0; round < kRounds; ++round) {
          engine.begin(round);
          const auto [lo, hi] = round_rows(part.owned(), round);
          // Directed wedges (a, b), a < b, centred at each owned row, go
          // to a's owner for the closure query.
          std::vector<std::vector<VertexId>> queries(
              static_cast<std::size_t>(comm.size()));
          for (VertexId k = lo; k < hi; ++k) {
            const auto& plus = dag.adj_plus[k];
            for (std::size_t i = 0; i + 1 < plus.size(); ++i) {
              auto& bucket =
                  queries[static_cast<std::size_t>(part.owner(plus[i]))];
              for (std::size_t j = i + 1; j < plus.size(); ++j) {
                bucket.push_back(plus[i]);
                bucket.push_back(plus[j]);
              }
            }
          }
          const auto incoming = mpisim::alltoallv(comm, queries);
          // Checkpoint after the exchange: the received queries are the
          // message log a crashed rank replays from.
          engine.checkpoint();
          engine.compute([&] {
            for (const auto& bucket : incoming) {
              for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
                const auto& list = dag.plus(bucket[at]);
                ++kernel.lookups;
                if (std::binary_search(list.begin(), list.end(),
                                       bucket[at + 1])) {
                  ++kernel.hits;
                  ++engine.triangles();
                }
              }
            }
          });
          stats.shifts.push_back(engine.finish());
        }
        const TriangleCount total = engine.reduce();
        stats.kernel = kernel;
        if (comm.rank() == 0) out.triangles = total;
      });
}

}  // namespace tricount::baselines
