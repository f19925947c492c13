#include "tricount/core/resident.hpp"

#include <stdexcept>
#include <utility>

#include "tricount/core/dist_graph.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/obs/telemetry.hpp"

namespace tricount::core {

namespace {

obs::RankTelemetry* live_slot() {
  obs::Telemetry* telemetry = obs::Telemetry::current();
  return telemetry != nullptr ? telemetry->for_caller() : nullptr;
}

}  // namespace

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
  partition.pre_stats.assign(static_cast<std::size_t>(ranks), RankStats{});

  world.run_job([&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    obs::RankTelemetry* live = live_slot();
    if (live != nullptr) live->phase.store("pre", std::memory_order_relaxed);

    const LocalSlice input =
        block_slice_from_edges(graph, comm.rank(), comm.size());
    PreprocessOutput pre = preprocess(grid, input, options.config);
    if (options.validate_blocks) {
      pre.blocks.ublock.validate();
      pre.blocks.lblock.validate();
      pre.blocks.tasks.validate();
    }
    const auto rank = static_cast<std::size_t>(comm.rank());
    partition.blocks[rank] = std::move(pre.blocks);
    partition.pre_stats[rank].pre_steps = std::move(pre.steps);
    if (comm.rank() == 0) {
      partition.num_vertices = pre.num_vertices;
      partition.num_edges = pre.num_edges;
    }
    if (live != nullptr) {
      const Blocks& b = partition.blocks[rank];
      live->partition_bytes.store(b.ublock.heap_bytes() +
                                      b.lblock.heap_bytes() +
                                      b.tasks.heap_bytes(),
                                  std::memory_order_relaxed);
      live->phase.store("resident", std::memory_order_relaxed);
    }
  });

  for (const auto& [name, sample] : partition.pre_stats[0].pre_steps) {
    partition.step_names.push_back(name);
  }
  return partition;
}

RunResult count_resident(mpisim::PersistentWorld& world,
                         const ResidentPartition& partition, Config config) {
  if (world.size() != partition.ranks) {
    throw std::invalid_argument(
        "count_resident: world size does not match the resident partition");
  }
  if (partition.blocks.empty()) {
    throw std::invalid_argument("count_resident: empty partition");
  }
  // The task matrix encodes the enumeration scheme it was built for;
  // counting must interpret it the same way.
  config.enumeration = partition.config.enumeration;

  RunResult result;
  result.ranks = partition.ranks;
  result.grid_q = partition.grid_q;
  result.num_vertices = partition.num_vertices;
  result.num_edges = partition.num_edges;
  result.model = partition.model;
  result.overlap_enabled = config.overlap;
  result.per_rank.assign(static_cast<std::size_t>(partition.ranks),
                         RankStats{});

  mpisim::WorldReport report = world.run_job([&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    obs::RankTelemetry* live = live_slot();
    // Copy: cannon_count shifts the blocks away; the resident set must
    // survive for the next query.
    Blocks blocks = partition.blocks[static_cast<std::size_t>(comm.rank())];
    CountOutput count = cannon_count(grid, std::move(blocks), config);

    RankStats& stats = result.per_rank[static_cast<std::size_t>(comm.rank())];
    stats.shifts = std::move(count.shifts);
    stats.kernel = count.kernel;
    if (comm.rank() == 0) result.triangles = count.total_triangles;
    if (live != nullptr) {
      live->phase.store("resident", std::memory_order_relaxed);
    }
  });

  result.per_rank_counters = std::move(report.counters);
  result.comm_matrix = std::move(report.comm_matrix);
  result.per_rank_chaos = std::move(report.chaos);
  return result;
}

}  // namespace tricount::core
