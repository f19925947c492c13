// Rectangular-grid triangle counting via the SUMMA communication pattern —
// the extension the paper's conclusion sketches ("this work can be easily
// extended to deal with rectangular processor grids using the SUMMA
// algorithm").
//
// The grid is qr × qc (p = qr·qc, not necessarily square). The inner (k)
// dimension is split into K = lcm(qr, qc) cyclic panels:
//   U_{x,z}: rows j with j%qr == x, columns k with k%K == z,
//            owned by rank (x, z%qc);
//   L_{z,y}: rows i with i%qc == y, columns k with k%K == z,
//            owned by rank (z%qr, y);
//   tasks (j,i) at rank (j%qr, i%qc), as in the Cannon formulation.
// Step z broadcasts U_{x,z} along grid row x and L_{z,y} along grid
// column y, then every rank runs the same intersection kernel. On a
// square grid this is block-for-block the Cannon distribution, just with
// broadcasts instead of shifts.
#pragma once

#include "tricount/core/driver.hpp"

namespace tricount::core {

struct SummaOptions : RunOptions {
  int grid_rows = 2;
  int grid_cols = 2;
};

/// Kept for callers written against the pre-RunResult API.
using SummaResult = RunResult;

/// Counts triangles on a qr × qc simulated grid. The result carries
/// `algorithm == "summa"`, grid_q == 0, one pre_steps entry per
/// preprocessing superstep, and one shifts entry per panel step
/// (num_shifts() == lcm(qr, qc)).
RunResult count_triangles_summa(const graph::EdgeList& graph,
                                const SummaOptions& options);

}  // namespace tricount::core
