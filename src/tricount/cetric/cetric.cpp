#include "tricount/cetric/cetric.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tricount/cetric/partition.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/superstep.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::cetric {

namespace {

using core::Config;
using core::KernelCounters;
using core::LocalSlice;
using core::PhaseSample;
using core::PhaseTracker;
using core::RunOptions;
using core::RunResult;
using graph::TriangleCount;

/// User-space tag for the cut-wedge exchange — the only point-to-point
/// traffic a cetric run produces (well below the collective tag range,
/// distinct from Cannon's 101-104 block-shift tags).
constexpr int kTagWedge = 301;

constexpr int kSupersteps = 2;  // superstep 0 = local, superstep 1 = cut

/// One received wedge: |tail ∩ Adj+(v)| closes triangles at this rank.
/// `tail` points into the received buffer (kept alive for crash replay).
struct CutTask {
  VertexId v = 0;
  const VertexId* tail = nullptr;
  std::uint32_t len = 0;
};

}  // namespace

RunResult count_triangles_cetric(const graph::EdgeList& graph, int ranks,
                                 const RunOptions& options) {
  if (ranks < 1) {
    throw std::invalid_argument(
        "count_triangles_cetric: rank count must be positive");
  }
  RunResult result;
  result.algorithm = "cetric";
  result.ranks = ranks;
  result.per_rank_cetric.assign(static_cast<std::size_t>(ranks),
                                core::CetricRankCounters{});
  // The local superstep has no communication to overlap with and the cut
  // exchange posts all (buffered) sends before the first receive, so
  // Config::overlap has nothing to change; counts are unaffected.
  result.overlap_enabled = false;

  const Config& config = options.config;

  return core::run_counter(
      std::move(result), options,
      [&](mpisim::Comm& comm, core::RankStats& stats, RunResult& out) {
        const int rank = comm.rank();
        const int p = comm.size();
        const LocalSlice input =
            core::block_slice_from_edges(graph, rank, p);

        core::CetricRankCounters cet;
        PhaseTracker tracker(comm);

        // --- pre superstep "partition": degree-aware contiguous split.
        const CetricGraph g = build_cetric_graph(comm, input);
        {
          PhaseSample sample = tracker.cut();
          sample.ops = g.routed_entries;
          stats.pre_steps.emplace_back("partition", sample);
        }

        // --- pre superstep "ghost": pull Adj+(v) once for every external
        // closing vertex whose wedge mass exceeds its list length — the
        // degree-aware trade between replicating a row and shipping the
        // wedges that close against it.
        core::GhostRows ghosts;
        {
          obs::ScopedSpan span("ghost", "pre");
          std::unordered_map<VertexId, std::uint64_t> mass;
          for (VertexId u = g.part.begin(); u < g.part.end(); ++u) {
            const std::vector<VertexId>& au = g.plus(u);
            for (std::size_t i = 0; i + 1 < au.size(); ++i) {
              const VertexId v = au[i];
              if (!g.part.owns(v)) {
                mass[v] += static_cast<std::uint64_t>(au.size() - 1 - i);
              }
            }
          }
          std::vector<std::vector<VertexId>> requests(
              static_cast<std::size_t>(p));
          for (const auto& [v, m] : mass) {
            if (m > g.deg_plus[v]) {
              requests[static_cast<std::size_t>(g.part.owner(v))].push_back(v);
            }
          }
          ghosts = core::fetch_ghost_rows(comm, g, std::move(requests));
          cet.ghost_lists_fetched = ghosts.rows.size();
          cet.ghost_list_entries = ghosts.entries;
        }
        {
          PhaseSample sample = tracker.cut();
          sample.ops = cet.ghost_list_entries;
          stats.pre_steps.emplace_back("ghost", sample);
        }

        // --- triangle counting: superstep 0 (local) + superstep 1 (cut).
        core::SuperstepEngine engine(comm, config, kSupersteps, g.max_row());
        kernels::IntersectScratch& scratch = engine.scratch();
        KernelCounters& kernel = engine.kernel();
        TriangleCount& found = engine.triangles();

        // ------- superstep 0: local counting, zero messages. ----------
        // Every wedge (u; v, tail) with a locally resolvable closing row
        // (v owned, or ghost-pulled) closes here; the rest is bucketed
        // into per-destination cut-wedge payloads but nothing is sent —
        // the zero-message invariant the cetric tests assert.
        engine.begin(0);
        core::CetricRankCounters saved_cet;
        engine.checkpoint([&] { saved_cet = cet; });
        std::vector<std::vector<VertexId>> wedge_out(
            static_cast<std::size_t>(p));
        // Per-u routing scratch, reused across rows: positions of the
        // externally-closing entries of Adj+(u), grouped by destination
        // so one shared suffix serves every wedge to the same rank.
        std::vector<std::vector<std::uint32_t>> dest_positions(
            static_cast<std::size_t>(p));
        std::vector<int> touched;
        auto run_local = [&] {
          for (VertexId u = g.part.begin(); u < g.part.end(); ++u) {
            const std::vector<VertexId>& au = g.plus(u);
            if (au.size() < 2) continue;
            ++kernel.rows_visited;
            scratch.begin_row(std::span<const VertexId>(au),
                              config.modified_hashing);
            touched.clear();
            for (std::size_t i = 0; i + 1 < au.size(); ++i) {
              const VertexId v = au[i];
              const std::vector<VertexId>* closing =
                  g.part.owns(v) ? &g.plus(v) : ghosts.find(v);
              if (closing != nullptr) {
                ++kernel.intersection_tasks;
                found += scratch.task(
                    config.kernel, std::span<const VertexId>(*closing),
                    config.backward_early_exit, kernel);
                continue;
              }
              const auto d = static_cast<std::size_t>(g.part.owner(v));
              if (dest_positions[d].empty()) touched.push_back(g.part.owner(v));
              dest_positions[d].push_back(static_cast<std::uint32_t>(i));
            }
            for (const int d : touched) {
              auto& positions = dest_positions[static_cast<std::size_t>(d)];
              auto& buf = wedge_out[static_cast<std::size_t>(d)];
              const std::uint32_t first = positions.front();
              buf.push_back(static_cast<VertexId>(au.size() - first));
              buf.insert(buf.end(),
                         au.begin() + static_cast<std::ptrdiff_t>(first),
                         au.end());
              buf.push_back(static_cast<VertexId>(positions.size()));
              for (const std::uint32_t pos : positions) {
                buf.push_back(static_cast<VertexId>(pos - first));
              }
              cet.cut_wedges_sent += positions.size();
              positions.clear();
            }
          }
        };
        // A crash here comes before any communication: the staged wedge
        // payloads are discarded and the whole local superstep re-runs.
        engine.compute(run_local, [&] {
          cet = saved_cet;
          wedge_out.assign(static_cast<std::size_t>(p), {});
        });
        stats.shifts.push_back(engine.finish());
        const TriangleCount local_count = found;

        // ------- superstep 1: cut-wedge exchange + resolution. ---------
        engine.begin(1);
        std::vector<std::vector<VertexId>> received(
            static_cast<std::size_t>(p));
        std::vector<CutTask> tasks;
        {
          obs::ScopedSpan span("exchange", "tc");
          // Per-destination element counts travel collectively so every
          // rank knows which sources to expect; the payloads themselves
          // are the run's only user-tagged traffic. Buffered sends make
          // post-all-then-receive deadlock-free.
          std::vector<std::vector<std::uint64_t>> announce(
              static_cast<std::size_t>(p));
          for (std::size_t d = 0; d < wedge_out.size(); ++d) {
            announce[d] = {wedge_out[d].size()};
          }
          const auto expected = mpisim::alltoallv(comm, announce);
          for (int d = 0; d < p; ++d) {
            const auto& buf = wedge_out[static_cast<std::size_t>(d)];
            if (buf.empty()) continue;
            if (d == rank) {
              throw std::logic_error("cetric: wedge routed to its own rank");
            }
            cet.cut_wedge_messages_sent += 1;
            cet.cut_wedge_bytes_sent += buf.size() * sizeof(VertexId);
            comm.send<VertexId>(d, kTagWedge, buf);
          }
          for (int s = 0; s < p; ++s) {
            if (s == rank) continue;
            const auto& counts = expected[static_cast<std::size_t>(s)];
            if (counts.empty() || counts[0] == 0) continue;
            received[static_cast<std::size_t>(s)] =
                comm.recv<VertexId>(s, kTagWedge);
          }
          // Decode [suffix_len, suffix..., count, rel_pos...] groups into
          // per-vertex tasks, sorted by closing vertex so each owned row
          // is pinned into the scratch exactly once.
          for (const auto& buf : received) {
            std::size_t at = 0;
            while (at < buf.size()) {
              const std::size_t suffix_len = buf[at++];
              const VertexId* suffix = buf.data() + at;
              at += suffix_len;
              const std::size_t count = buf[at++];
              for (std::size_t k = 0; k < count; ++k) {
                const std::size_t rel = buf[at++];
                const VertexId v = suffix[rel];
                if (!g.part.owns(v)) {
                  throw std::runtime_error("cetric: misrouted cut wedge");
                }
                tasks.push_back(CutTask{
                    v, suffix + rel + 1,
                    static_cast<std::uint32_t>(suffix_len - rel - 1)});
              }
            }
          }
          std::stable_sort(tasks.begin(), tasks.end(),
                           [](const CutTask& a, const CutTask& b) {
                             return a.v < b.v;
                           });
        }
        // Checkpoint *after* the exchange: the received buffers are the
        // message log, so a crashed rank replays the resolution from them
        // without any peer resending.
        engine.checkpoint();
        auto run_cut = [&] {
          bool pinned = false;
          VertexId current = 0;
          for (const CutTask& t : tasks) {
            if (!pinned || t.v != current) {
              current = t.v;
              pinned = true;
              ++kernel.rows_visited;
              scratch.begin_row(std::span<const VertexId>(g.plus(t.v)),
                                config.modified_hashing);
            }
            ++kernel.intersection_tasks;
            found += scratch.task(
                config.kernel, std::span<const VertexId>(t.tail, t.len),
                config.backward_early_exit, kernel);
          }
        };
        engine.compute(run_cut);
        stats.shifts.push_back(engine.finish());
        const TriangleCount total = engine.reduce();

        stats.kernel = kernel;
        cet.local_triangles = static_cast<std::uint64_t>(local_count);
        cet.cut_triangles = static_cast<std::uint64_t>(found - local_count);
        out.per_rank_cetric[static_cast<std::size_t>(rank)] = cet;
        if (rank == 0) {
          out.triangles = total;
          out.num_vertices = g.part.num_vertices;
          out.num_edges = g.num_edges;
        }
      });
}

}  // namespace tricount::cetric
