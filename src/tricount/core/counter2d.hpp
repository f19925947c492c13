// The triangle counting phase (paper §5.1): √p compute steps interleaved
// with Cannon-pattern shifts of the U and L blocks, followed by a global
// reduction of the per-rank counts.
//
// At step s, rank (x,y) holds U_{x,z} and L_{z,y} with z = (x+y+s) mod q
// (Equation 6); blocks arrive pre-aligned from preprocessing. The compute
// step runs the map-based (or list-based) intersection kernel over the
// rank's task block; then U shifts one column left and L one row up.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/core/config.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/graph/types.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/cart2d.hpp"

namespace tricount::core {

using graph::TriangleCount;

struct CountOutput {
  /// Triangles found by this rank's tasks (pre-reduction).
  TriangleCount local_triangles = 0;
  /// Global total (allreduce over ranks).
  TriangleCount total_triangles = 0;
  /// One sample per shift: the shift's compute plus its communication.
  std::vector<PhaseSample> shifts;
  KernelCounters kernel;
};

/// Receives every triangle cannon_count closes, in global new
/// (degree-ordered) ids: j is the task row's vertex, i the task entry's,
/// k the closing vertex (under ⟨i,j,k⟩ the first two trade roles). The
/// sink's tallies are superstep state: cannon_count saves them at each
/// checkpoint and restores them before a crashed superstep replays.
/// count_rank then calls finish() on every rank after the count.
class TriangleSink {
 public:
  TriangleSink() = default;
  TriangleSink(const TriangleSink&) = delete;
  TriangleSink& operator=(const TriangleSink&) = delete;
  virtual ~TriangleSink() = default;

  virtual void triangle(VertexId j, VertexId i, VertexId k) = 0;
  virtual void save() = 0;
  virtual void restore() = 0;
  /// Collective: reduces this rank's tallies, given the old (input) ids
  /// of the new ids this rank owns: old_ids[k] is the old id of new id
  /// rank + k*p (owned_old_ids).
  virtual void finish(mpisim::Comm& comm,
                      const std::vector<VertexId>& old_ids) = 0;
};

/// Builds one rank's triangle sink.
using SinkFactory = std::function<std::unique_ptr<TriangleSink>()>;

/// One compute step: intersects every task (r, e) in `tasks` against the
/// currently-held U and L blocks. For the ⟨j,i,k⟩ scheme r is the
/// higher-degree endpoint j (its U row gets hashed) and e is i (its L row
/// is looked up); for ⟨i,j,k⟩ the roles are r = i, e = j. The kernel each
/// task pair runs is chosen by `config.kernel` (docs/kernels.md). Exposed
/// separately for unit testing.
TriangleCount intersect_blocks(const BlockCsr& tasks, const BlockCsr& ublock,
                               const BlockCsr& lblock, const Config& config,
                               kernels::IntersectScratch& scratch,
                               KernelCounters& counters);

/// Runs the full counting phase. Consumes (shifts away) the U/L blocks.
/// A non-null `sink` receives every triangle found.
CountOutput cannon_count(mpisim::Cart2D& grid, Blocks blocks,
                         const Config& config, TriangleSink* sink = nullptr);

/// The per-rank counting body of every 2D run, fresh or resident: with
/// `make_sink`, builds this rank's sink, runs cannon_count into it, then
/// calls its finish() on `old_ids()` (called only then, after the count);
/// fills the rank's shift and kernel stats and returns the global count.
TriangleCount count_rank(mpisim::Cart2D& grid, Blocks blocks,
                         const Config& config, const SinkFactory& make_sink,
                         const std::function<std::vector<VertexId>()>& old_ids,
                         RankStats& stats);

}  // namespace tricount::core
