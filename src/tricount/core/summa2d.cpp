#include "tricount/core/summa2d.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "tricount/core/counter2d.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/core/superstep.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::core {

namespace {

constexpr int kTagSummaU = 201;
constexpr int kTagSummaL = 202;

struct PanelEntry {
  VertexId panel = 0;
  VertexId row = 0;
  VertexId col = 0;
};

struct SummaBlocks {
  std::vector<BlockCsr> upanels;  ///< panel z = col + t*qc at index t
  std::vector<BlockCsr> lpanels;  ///< panel z = row + t*qr at index t
  BlockCsr tasks;
};

SummaBlocks scatter_summa(mpisim::Comm& comm, int qr, int qc, int K,
                          const RelabeledSlice& slice,
                          Enumeration enumeration) {
  const auto qrv = static_cast<VertexId>(qr);
  const auto qcv = static_cast<VertexId>(qc);
  const auto Kv = static_cast<VertexId>(K);
  const std::size_t p = static_cast<std::size_t>(comm.size());
  auto rank_of = [qc](int x, int y) { return x * qc + y; };

  std::vector<std::vector<PanelEntry>> u_out(p);
  std::vector<std::vector<PanelEntry>> l_out(p);
  std::vector<std::vector<PanelEntry>> t_out(p);

  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    const VertexId w = slice.new_ids[k];
    for (const VertexId u : slice.adj[k]) {
      if (u > w) {
        const VertexId z = u % Kv;
        // U_{x,z} at rank (w%qr, z%qc).
        const int u_dest = rank_of(static_cast<int>(w % qrv),
                                   static_cast<int>(z % qcv));
        u_out[static_cast<std::size_t>(u_dest)].push_back(
            PanelEntry{z, w / qrv, u / Kv});
        // L_{z,y} at rank (z%qr, w%qc), stored row-major by i = w.
        const int l_dest = rank_of(static_cast<int>(z % qrv),
                                   static_cast<int>(w % qcv));
        l_out[static_cast<std::size_t>(l_dest)].push_back(
            PanelEntry{z, w / qcv, u / Kv});
        if (enumeration == Enumeration::kIJK) {
          const int t_dest = rank_of(static_cast<int>(w % qrv),
                                     static_cast<int>(u % qcv));
          t_out[static_cast<std::size_t>(t_dest)].push_back(
              PanelEntry{0, w / qrv, u / qcv});
        }
      } else if (u < w && enumeration == Enumeration::kJIK) {
        const int t_dest = rank_of(static_cast<int>(w % qrv),
                                   static_cast<int>(u % qcv));
        t_out[static_cast<std::size_t>(t_dest)].push_back(
            PanelEntry{0, w / qrv, u / qcv});
      }
    }
  }

  const auto u_in = mpisim::alltoallv(comm, u_out);
  const auto l_in = mpisim::alltoallv(comm, l_out);
  const auto t_in = mpisim::alltoallv(comm, t_out);

  const int x = comm.rank() / qc;
  const int y = comm.rank() % qc;
  const VertexId n = slice.num_vertices;

  SummaBlocks blocks;
  // Split incoming panel entries by local panel index, then build CSRs.
  const int u_count = K / qc;
  const int l_count = K / qr;
  std::vector<std::vector<LocalEntry>> u_split(static_cast<std::size_t>(u_count));
  std::vector<std::vector<LocalEntry>> l_split(static_cast<std::size_t>(l_count));
  for (const auto& bucket : u_in) {
    for (const PanelEntry& e : bucket) {
      u_split[e.panel / static_cast<VertexId>(qc)].push_back(
          LocalEntry{e.row, e.col});
    }
  }
  for (const auto& bucket : l_in) {
    for (const PanelEntry& e : bucket) {
      l_split[e.panel / static_cast<VertexId>(qr)].push_back(
          LocalEntry{e.row, e.col});
    }
  }
  const VertexId u_rows = cyclic_row_count(n, qr, x);
  const VertexId l_rows = cyclic_row_count(n, qc, y);
  for (auto& entries : u_split) {
    blocks.upanels.push_back(BlockCsr::from_entries(u_rows, std::move(entries)));
  }
  for (auto& entries : l_split) {
    blocks.lpanels.push_back(BlockCsr::from_entries(l_rows, std::move(entries)));
  }
  std::vector<LocalEntry> task_entries;
  for (const auto& bucket : t_in) {
    for (const PanelEntry& e : bucket) {
      task_entries.push_back(LocalEntry{e.row, e.col});
    }
  }
  blocks.tasks = BlockCsr::from_entries(u_rows, std::move(task_entries));
  return blocks;
}

/// Owner broadcasts a block (as its §5.2 blob) to the other members of
/// its grid row/column via a binomial group broadcast.
BlockCsr panel_bcast(mpisim::Comm& comm, const BlockCsr* own,
                     int owner_index, std::span<const int> members) {
  std::vector<std::byte> blob;
  if (own != nullptr) blob = own->to_blob();
  mpisim::bcast_group(comm, blob, members, owner_index);
  if (own != nullptr) return *own;
  return BlockCsr::from_blob(blob);
}

}  // namespace

RunResult count_triangles_summa(const graph::EdgeList& graph,
                                const SummaOptions& options) {
  const int qr = options.grid_rows;
  const int qc = options.grid_cols;
  if (qr <= 0 || qc <= 0) {
    throw std::invalid_argument("summa: grid dims must be positive");
  }
  const int K = std::lcm(qr, qc);
  const Config& config = options.config;

  RunResult result;
  result.algorithm = "summa";
  result.ranks = qr * qc;
  result.overlap_enabled = config.overlap;
  return run_counter(std::move(result), options, [&](mpisim::Comm& comm,
                                                     RankStats& stats,
                                                     RunResult& out) {
    const int x = comm.rank() / qc;
    const int y = comm.rank() % qc;

    // Preprocessing: the §5.3 pipeline with the panel scatter in place of
    // Cannon's 2D scatter.
    const LocalSlice input =
        block_slice_from_edges(graph, comm.rank(), comm.size());
    PhaseTracker tracker(comm);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    stats.pre_steps.emplace_back("redistribute", tracker.cut());
    const RelabeledSlice relabeled = degree_relabel(comm, cyclic);
    stats.pre_steps.emplace_back("degree_order", tracker.cut());
    SummaBlocks blocks =
        scatter_summa(comm, qr, qc, K, relabeled, config.enumeration);
    stats.pre_steps.emplace_back("scatter_summa", tracker.cut());
    std::uint64_t local_edges = 0;
    std::uint64_t panels_bytes = 0;
    VertexId max_row = 0;
    for (const BlockCsr& b : blocks.upanels) {
      local_edges += b.num_entries();
      panels_bytes += b.heap_bytes();
      max_row = std::max(max_row, b.max_row_degree());
    }
    for (const BlockCsr& b : blocks.lpanels) panels_bytes += b.heap_bytes();
    const std::uint64_t num_edges = mpisim::allreduce_sum(comm, local_edges);
    stats.pre_steps.emplace_back("edge_count", tracker.cut());

    std::vector<int> row_members;
    for (int c = 0; c < qc; ++c) row_members.push_back(x * qc + c);
    std::vector<int> col_members;
    for (int r = 0; r < qr; ++r) col_members.push_back(r * qc + y);

    SuperstepEngine engine(comm, config, K, max_row);

    // Overlap mode replaces the binomial broadcast with a point-to-point
    // prefetch pipeline one panel ahead: step z+1's owners isend their
    // blobs (buffered, so the copy is immediate) and every other rank
    // posts irecvs before step z's intersection runs; the requests are
    // completed when the next step starts. Step 0's fetch is the pipeline
    // fill and cannot overlap anything.
    struct PanelFetch {
      mpisim::Request req;
      const BlockCsr* own = nullptr;
    };
    auto post = [&](const BlockCsr* own, int owner, std::span<const int> members,
                    int tag) {
      PanelFetch f;
      if (comm.rank() == owner) {
        f.own = own;
        const std::vector<std::byte> blob = own->to_blob();
        for (const int m : members) {
          if (m == comm.rank()) continue;
          (void)comm.isend_bytes(m, tag, std::span<const std::byte>(blob));
        }
      } else {
        f.req = comm.irecv(owner, tag);
      }
      return f;
    };
    auto u_owner = [&](int z) { return x * qc + (z % qc); };
    auto l_owner = [&](int z) { return (z % qr) * qc + y; };
    auto own_u = [&](int z) {
      return comm.rank() == u_owner(z)
                 ? &blocks.upanels[static_cast<std::size_t>(z / qc)]
                 : nullptr;
    };
    auto own_l = [&](int z) {
      return comm.rank() == l_owner(z)
                 ? &blocks.lpanels[static_cast<std::size_t>(z / qr)]
                 : nullptr;
    };
    auto post_u = [&](int z) {
      return post(own_u(z), u_owner(z), row_members, kTagSummaU);
    };
    auto post_l = [&](int z) {
      return post(own_l(z), l_owner(z), col_members, kTagSummaL);
    };
    auto resolve = [](PanelFetch& f) {
      if (f.own != nullptr) return *f.own;
      return BlockCsr::from_blob(f.req.wait().payload);
    };

    PanelFetch next_u;
    PanelFetch next_l;
    if (config.overlap) {
      next_u = post_u(0);
      next_l = post_l(0);
    }

    // Only the task block needs saving: the U/L panels are re-received per
    // step, and a crash replays against the panels already in hand, so
    // peers never see it.
    std::vector<std::byte> saved_tasks;
    for (int z = 0; z < K; ++z) {
      engine.begin(z, panels_bytes, blocks.tasks.heap_bytes());
      engine.checkpoint([&] { saved_tasks = blocks.tasks.to_blob(); });
      BlockCsr uz;
      BlockCsr lz;
      if (config.overlap) {
        uz = resolve(next_u);
        lz = resolve(next_l);
        if (z + 1 < K) {
          next_u = post_u(z + 1);
          next_l = post_l(z + 1);
        }
      } else {
        uz = panel_bcast(comm, own_u(z), z % qc, row_members);
        lz = panel_bcast(comm, own_l(z), z % qr, col_members);
      }
      engine.compute(
          [&] {
            engine.triangles() += intersect_blocks(
                blocks.tasks, uz, lz, config, engine.scratch(), engine.kernel());
          },
          [&] { blocks.tasks = BlockCsr::from_blob(saved_tasks); });
      stats.shifts.push_back(engine.finish(config.overlap));
    }
    const TriangleCount total = engine.reduce();
    stats.kernel = engine.kernel();
    if (comm.rank() == 0) {
      out.triangles = total;
      out.num_vertices = relabeled.num_vertices;
      out.num_edges = num_edges;
    }
  });
}

}  // namespace tricount::core
