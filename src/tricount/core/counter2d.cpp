#include "tricount/core/counter2d.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "tricount/core/superstep.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::core {

namespace {

// User-space tags for the shift traffic (well below kReservedTagBase).
constexpr int kTagUBlock = 101;
constexpr int kTagLBlock = 102;
constexpr int kTagUArrays = 103;  // non-blob mode sends arrays separately
constexpr int kTagLArrays = 104;

/// Ships a block to `dest` and receives this rank's next block from `src`.
/// Blob mode: one message round-trip per block (§5.2). Array mode: the
/// four arrays travel as separate messages and are reassembled — the
/// serialization overhead the blob optimization removes.
BlockCsr shift_block(mpisim::Comm& comm, BlockCsr block, int dest, int src,
                     int blob_tag, int array_tag, bool blob_comm) {
  if (blob_comm) {
    const std::vector<std::byte> blob = block.to_blob();
    mpisim::Message m = comm.sendrecv_bytes(
        dest, blob_tag, std::span<const std::byte>(blob), src, blob_tag);
    return BlockCsr::from_blob(m.payload);
  }
  const std::uint64_t rows = block.num_local_rows();
  comm.send_value<std::uint64_t>(dest, array_tag, rows);
  comm.send<std::uint64_t>(dest, array_tag, block.xadj());
  comm.send<VertexId>(dest, array_tag, block.adj());
  comm.send<VertexId>(dest, array_tag, block.nonempty());
  const auto in_rows = comm.recv_value<std::uint64_t>(src, array_tag);
  auto in_xadj = comm.recv<std::uint64_t>(src, array_tag);
  auto in_adj = comm.recv<VertexId>(src, array_tag);
  auto in_nonempty = comm.recv<VertexId>(src, array_tag);
  // Reassemble via the entry path to keep one construction code path.
  std::vector<LocalEntry> entries;
  entries.reserve(in_adj.size());
  for (VertexId r = 0; r + 1 < in_xadj.size(); ++r) {
    for (std::uint64_t at = in_xadj[r]; at < in_xadj[r + 1]; ++at) {
      entries.push_back(LocalEntry{r, in_adj[at]});
    }
  }
  (void)in_nonempty;
  return BlockCsr::from_entries(static_cast<VertexId>(in_rows),
                                std::move(entries));
}

/// The task loop of one compute step. `on_triangle(r, e, t)` receives
/// each closed triangle in block-local ids: task row r, task entry e, and
/// closing column t.
template <class OnTriangle>
TriangleCount intersect_tasks(const BlockCsr& tasks, const BlockCsr& ublock,
                              const BlockCsr& lblock, const Config& config,
                              kernels::IntersectScratch& scratch,
                              KernelCounters& counters,
                              OnTriangle on_triangle) {
  TriangleCount found = 0;

  auto process_row = [&](VertexId r) {
    ++counters.rows_visited;
    const auto task_cols = tasks.row(r);
    if (task_cols.empty()) return;
    const auto urow = ublock.row(r);
    if (urow.empty()) return;  // no closing vertices in this column block

    scratch.begin_row(urow, config.modified_hashing);

    for (const VertexId e : task_cols) {
      if (e >= lblock.num_local_rows()) continue;
      const auto lrow = lblock.row(e);
      if (lrow.empty()) continue;
      ++counters.intersection_tasks;
      found += scratch.task(config.kernel, lrow, config.backward_early_exit,
                            counters,
                            [&](VertexId t) { on_triangle(r, e, t); });
    }
  };

  if (config.doubly_sparse) {
    for (const VertexId r : tasks.nonempty()) process_row(r);
  } else {
    for (VertexId r = 0; r < tasks.num_local_rows(); ++r) process_row(r);
  }
  return found;
}

}  // namespace

TriangleCount intersect_blocks(const BlockCsr& tasks, const BlockCsr& ublock,
                               const BlockCsr& lblock, const Config& config,
                               kernels::IntersectScratch& scratch,
                               KernelCounters& counters) {
  return intersect_tasks(tasks, ublock, lblock, config, scratch, counters,
                         [](VertexId, VertexId, VertexId) {});
}

CountOutput cannon_count(mpisim::Cart2D& grid, Blocks blocks,
                         const Config& config, TriangleSink* sink) {
  mpisim::Comm& comm = grid.comm();
  const int q = grid.q();
  CountOutput out;
  SuperstepEngine engine(comm, config, q, blocks.ublock.max_row_degree());
  const auto qv = static_cast<VertexId>(q);
  const auto x = static_cast<VertexId>(grid.row());
  const auto y = static_cast<VertexId>(grid.col());
  VertexId z = 0;  // the column block of U this superstep holds

  /// The blocks as they were when the superstep started — what a crashed
  /// rank loses besides the engine's shared state.
  struct Saved {
    std::vector<std::byte> ublock;
    std::vector<std::byte> lblock;
    std::vector<std::byte> tasks;
  };
  Saved saved;
  auto intersect = [&] {
    if (sink == nullptr) {
      engine.triangles() +=
          intersect_blocks(blocks.tasks, blocks.ublock, blocks.lblock, config,
                           engine.scratch(), engine.kernel());
      return;
    }
    // Block (x, y) holds rows ≡ x and columns ≡ y (mod q); the closing
    // column t lies in column block z.
    engine.triangles() += intersect_tasks(
        blocks.tasks, blocks.ublock, blocks.lblock, config, engine.scratch(),
        engine.kernel(), [&](VertexId r, VertexId e, VertexId t) {
          sink->triangle(r * qv + x, e * qv + y, t * qv + z);
        });
  };

  for (int s = 0; s < q; ++s) {
    z = (x + y + static_cast<VertexId>(s)) % qv;
    engine.begin(s, blocks.ublock.heap_bytes() + blocks.lblock.heap_bytes(),
                 blocks.tasks.heap_bytes());
    engine.checkpoint([&] {
      saved = {blocks.ublock.to_blob(), blocks.lblock.to_blob(),
               blocks.tasks.to_blob()};
      if (sink != nullptr) sink->save();
    });
    // Overlap mode posts the next shift before intersecting: buffered
    // isends copy the blobs up front, so computing on the blocks while
    // the shift is in flight is safe, and the irecvs complete after the
    // intersection. Always blob format — a four-message array shift has
    // no single completion event to hide behind the compute.
    const bool overlapped = config.overlap && s + 1 < q;
    mpisim::Request u_req;
    mpisim::Request l_req;
    if (overlapped) {
      obs::ScopedSpan span("shift", "tc");
      const std::vector<std::byte> ublob = blocks.ublock.to_blob();
      const std::vector<std::byte> lblob = blocks.lblock.to_blob();
      (void)comm.isend_bytes(grid.left(), kTagUBlock,
                             std::span<const std::byte>(ublob));
      (void)comm.isend_bytes(grid.up(), kTagLBlock,
                             std::span<const std::byte>(lblob));
      u_req = comm.irecv(grid.right(), kTagUBlock);
      l_req = comm.irecv(grid.down(), kTagLBlock);
    }
    // The shifts have not happened yet when a crash replays this
    // superstep, so peers are unaffected.
    engine.compute(intersect, [&] {
      blocks.ublock = BlockCsr::from_blob(saved.ublock);
      blocks.lblock = BlockCsr::from_blob(saved.lblock);
      blocks.tasks = BlockCsr::from_blob(saved.tasks);
      if (sink != nullptr) sink->restore();
    });
    if (s + 1 < q) {
      // U one column left, L one row up (paper §5.1). Buffered sends keep
      // the ring deadlock-free in both modes.
      obs::ScopedSpan span("shift", "tc");
      if (overlapped) {
        blocks.ublock = BlockCsr::from_blob(u_req.wait().payload);
        blocks.lblock = BlockCsr::from_blob(l_req.wait().payload);
      } else {
        blocks.ublock = shift_block(comm, std::move(blocks.ublock),
                                    grid.left(), grid.right(), kTagUBlock,
                                    kTagUArrays, config.blob_comm);
        blocks.lblock =
            shift_block(comm, std::move(blocks.lblock), grid.up(), grid.down(),
                        kTagLBlock, kTagLArrays, config.blob_comm);
      }
      // A shifted-in block can carry longer rows than the initial one; an
      // undersized table degrades into mid-superstep rehashes
      // (reserve_for never shrinks).
      engine.scratch().reserve_for(blocks.ublock.max_row_degree());
    }
    out.shifts.push_back(engine.finish(overlapped));
  }
  out.total_triangles = engine.reduce();
  out.local_triangles = engine.triangles();
  out.kernel = engine.kernel();
  return out;
}

TriangleCount count_rank(mpisim::Cart2D& grid, Blocks blocks,
                         const Config& config, const SinkFactory& make_sink,
                         const std::function<std::vector<VertexId>()>& old_ids,
                         RankStats& stats) {
  const std::unique_ptr<TriangleSink> sink = make_sink ? make_sink() : nullptr;
  CountOutput count = cannon_count(grid, std::move(blocks), config, sink.get());
  if (sink != nullptr) sink->finish(grid.comm(), old_ids());
  stats.shifts = std::move(count.shifts);
  stats.kernel = count.kernel;
  return count.total_triangles;
}

}  // namespace tricount::core
