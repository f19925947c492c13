// Resident-partition entry points: the driver's preprocess and counting
// phases split into separately callable halves over a PersistentWorld
// (docs/service.md).
//
// count_triangles_2d pays graph slicing + the full §5.3 preprocessing
// pipeline on every call. A long-lived service amortizes that: run
// preprocess_resident once, keep the per-rank Cannon-aligned blocks in a
// ResidentPartition, then answer each query with count_resident — only
// the √p counting supersteps, on blocks copied from the resident set
// (cannon_count shifts its blocks away, so the originals stay intact for
// the next query). A sink run (per-vertex counts, edge supports) counts
// the same way, with each rank's owned old ids kept from preprocessing.
#pragma once

#include <vector>

#include "tricount/core/driver.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::core {

/// Everything one preprocessing pass produced, kept alive across queries:
/// the per-rank U/L/task blocks in Cannon's aligned start positions plus
/// the run metadata a served RunResult needs.
struct ResidentPartition {
  int ranks = 0;
  int grid_q = 0;
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;
  /// The config the partition was built with. The enumeration scheme is
  /// baked into the task matrix (built from L for ⟨j,i,k⟩, from U for
  /// ⟨i,j,k⟩), so count_resident always counts under this enumeration;
  /// kernel-phase knobs may vary per query.
  Config config;
  util::AlphaBetaModel model;
  /// blocks[r] = rank r's aligned blocks; copied per counting sweep.
  std::vector<Blocks> blocks;
  /// Preprocessing measurements, kept for diagnostics ("how expensive was
  /// the setup this partition amortizes").
  std::vector<RankStats> pre_stats;
  /// old_ids[r] = rank r's owned_old_ids, which a sink's finish() needs.
  /// Empty when the blocks were built some other way: such a partition
  /// counts, but cannot feed a sink.
  std::vector<std::vector<VertexId>> old_ids;

  /// Approximate resident footprint of all ranks' blocks.
  std::uint64_t resident_bytes() const;
};

/// Runs the §5.3 preprocessing pipeline once on `world` (a perfect-square
/// persistent world) and returns the resident partition. The graph must
/// be simplified.
ResidentPartition preprocess_resident(mpisim::PersistentWorld& world,
                                      const graph::EdgeList& graph,
                                      const RunOptions& options = {});

/// Runs only the counting supersteps on the resident partition, through
/// run_counter on `world` (empty preprocessing phase; traffic counters
/// are this job's delta), and feeds every rank's `make_sink` sink as
/// count_triangles_2d does. `config`'s kernel-phase knobs (kernel,
/// overlap, §5.2 switches) are honored; its enumeration is overridden by
/// the partition's. `world` must be the world `partition` was built on.
RunResult count_resident(mpisim::PersistentWorld& world,
                         const ResidentPartition& partition, Config config,
                         const SinkFactory& make_sink = {});

}  // namespace tricount::core
