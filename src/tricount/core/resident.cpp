#include "tricount/core/resident.hpp"

#include <stdexcept>
#include <utility>

#include "tricount/core/dist_graph.hpp"
#include "tricount/core/superstep.hpp"
#include "tricount/mpisim/cart2d.hpp"

namespace tricount::core {

std::uint64_t ResidentPartition::resident_bytes() const {
  std::uint64_t total = 0;
  for (const Blocks& b : blocks) {
    total += b.ublock.heap_bytes() + b.lblock.heap_bytes() +
             b.tasks.heap_bytes();
  }
  return total;
}

ResidentPartition preprocess_resident(mpisim::PersistentWorld& world,
                                      const graph::EdgeList& graph,
                                      const RunOptions& options) {
  const int ranks = world.size();
  if (mpisim::perfect_square_root(ranks) == 0) {
    throw std::invalid_argument(
        "preprocess_resident: rank count must be a perfect square");
  }
  ResidentPartition partition;
  partition.ranks = ranks;
  partition.grid_q = mpisim::perfect_square_root(ranks);
  partition.config = options.config;
  partition.model = options.model;
  partition.blocks.resize(static_cast<std::size_t>(ranks));
  partition.old_ids.resize(static_cast<std::size_t>(ranks));

  RunResult result;
  result.ranks = ranks;
  result = run_counter(
      std::move(result), options,
      [&](mpisim::Comm& comm, RankStats& stats, RunResult& out) {
        mpisim::Cart2D grid(comm);
        PreprocessOutput pre = preprocess(
            grid, block_slice_from_edges(graph, comm.rank(), comm.size()),
            options.config);
        if (options.validate_blocks) pre.blocks.validate();
        const auto rank = static_cast<std::size_t>(comm.rank());
        partition.old_ids[rank] = owned_old_ids(comm, pre);
        partition.blocks[rank] = std::move(pre.blocks);
        stats.pre_steps = std::move(pre.steps);
        if (comm.rank() == 0) {
          out.num_vertices = pre.num_vertices;
          out.num_edges = pre.num_edges;
        }
      },
      &world);
  partition.num_vertices = result.num_vertices;
  partition.num_edges = result.num_edges;
  partition.pre_stats = std::move(result.per_rank);
  return partition;
}

RunResult count_resident(mpisim::PersistentWorld& world,
                         const ResidentPartition& partition, Config config,
                         const SinkFactory& make_sink) {
  if (world.size() != partition.ranks) {
    throw std::invalid_argument(
        "count_resident: world size does not match the resident partition");
  }
  if (partition.blocks.empty()) {
    throw std::invalid_argument("count_resident: empty partition");
  }
  if (make_sink && partition.old_ids.size() != partition.blocks.size()) {
    throw std::invalid_argument(
        "count_resident: a sink needs the partition's old_ids (build it "
        "with preprocess_resident)");
  }
  // The task matrix encodes the enumeration scheme it was built for;
  // counting must interpret it the same way.
  config.enumeration = partition.config.enumeration;
  RunOptions options;
  options.config = config;
  options.model = partition.model;

  RunResult result;
  result.ranks = partition.ranks;
  result.grid_q = partition.grid_q;
  result.num_vertices = partition.num_vertices;
  result.num_edges = partition.num_edges;
  result.overlap_enabled = config.overlap;
  return run_counter(
      std::move(result), options,
      [&](mpisim::Comm& comm, RankStats& stats, RunResult& out) {
        mpisim::Cart2D grid(comm);
        const auto rank = static_cast<std::size_t>(comm.rank());
        // Copy: cannon_count shifts the blocks away; the resident set
        // must survive for the next query.
        const TriangleCount triangles = count_rank(
            grid, partition.blocks[rank], config, make_sink,
            [&] { return partition.old_ids[rank]; }, stats);
        if (comm.rank() == 0) out.triangles = triangles;
      },
      &world);
}

}  // namespace tricount::core
