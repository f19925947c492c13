#include "tricount/core/driver.hpp"

#include <functional>
#include <stdexcept>
#include <string>

#include "tricount/baselines/baselines.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/core/superstep.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::core {

namespace {

using SliceFactory = std::function<LocalSlice(mpisim::Comm&)>;

RunResult run_pipeline(int ranks, const RunOptions& options,
                       const SliceFactory& make_slice,
                       const SinkFactory& make_sink) {
  if (mpisim::perfect_square_root(ranks) == 0) {
    throw std::invalid_argument(
        "count_triangles_2d: rank count must be a perfect square");
  }
  RunResult result;
  result.ranks = ranks;
  result.grid_q = mpisim::perfect_square_root(ranks);
  result.overlap_enabled = options.config.overlap;
  return run_counter(std::move(result), options, [&](mpisim::Comm& comm,
                                                     RankStats& stats,
                                                     RunResult& out) {
    mpisim::Cart2D grid(comm);
    const LocalSlice input = make_slice(comm);
    PreprocessOutput pre = preprocess(grid, input, options.config);
    if (options.validate_blocks) pre.blocks.validate();
    stats.pre_steps = std::move(pre.steps);
    const TriangleCount triangles =
        count_rank(grid, std::move(pre.blocks), options.config, make_sink,
                   [&] { return owned_old_ids(comm, pre); }, stats);
    if (comm.rank() == 0) {
      out.triangles = triangles;
      out.num_vertices = pre.num_vertices;
      out.num_edges = pre.num_edges;
    }
  });
}

RunResult run_summa(const graph::EdgeList& graph, int ranks,
                    const RunOptions& options) {
  SummaOptions summa;
  static_cast<RunOptions&>(summa) = options;
  // Most-square factorisation: the largest divisor <= sqrt(ranks).
  summa.grid_rows = 1;
  for (int r = 1; r * r <= ranks; ++r) {
    if (ranks % r == 0) summa.grid_rows = r;
  }
  summa.grid_cols = ranks / summa.grid_rows;
  return count_triangles_summa(graph, summa);
}

struct Counter {
  std::string_view name;
  RunResult (*run)(const graph::EdgeList&, int, const RunOptions&);
};

const Counter kCounters[] = {
    {"2d",
     [](const graph::EdgeList& g, int ranks, const RunOptions& options) {
       return count_triangles_2d(g, ranks, options);
     }},
    {"cetric",
     [](const graph::EdgeList& g, int ranks, const RunOptions& options) {
       return cetric::count_triangles_cetric(g, ranks, options);
     }},
    {"summa", run_summa},
    {"aop", baselines::count_triangles_aop},
    {"push", baselines::count_triangles_push},
    {"wedge", baselines::count_triangles_wedge},
};

}  // namespace

std::vector<PhaseSample> RunResult::step_samples(std::size_t step_index) const {
  std::vector<PhaseSample> samples;
  samples.reserve(per_rank.size());
  for (const RankStats& stats : per_rank) {
    samples.push_back(stats.pre_steps.at(step_index).second);
  }
  return samples;
}

std::vector<PhaseSample> RunResult::shift_samples(std::size_t shift_index) const {
  std::vector<PhaseSample> samples;
  samples.reserve(per_rank.size());
  for (const RankStats& stats : per_rank) {
    samples.push_back(stats.shifts.at(shift_index));
  }
  return samples;
}

std::size_t RunResult::num_shifts() const {
  return per_rank.empty() ? 0 : per_rank[0].shifts.size();
}

double RunResult::pre_modeled_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < step_names.size(); ++s) {
    total += breakdown(step_samples(s)).modeled_seconds(model);
  }
  return total;
}

double RunResult::tc_modeled_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_shifts(); ++s) {
    total += breakdown(shift_samples(s)).modeled_seconds(model);
  }
  return total;
}

double RunResult::pre_modeled_comm_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < step_names.size(); ++s) {
    total += breakdown(step_samples(s)).modeled_comm_seconds(model);
  }
  return total;
}

double RunResult::tc_modeled_comm_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_shifts(); ++s) {
    total += breakdown(shift_samples(s)).modeled_comm_seconds(model);
  }
  return total;
}

std::uint64_t RunResult::pre_ops() const {
  std::uint64_t total = 0;
  for (const RankStats& stats : per_rank) total += stats.pre_total().ops;
  return total;
}

std::uint64_t RunResult::tc_ops() const {
  std::uint64_t total = 0;
  for (const RankStats& stats : per_rank) total += stats.tc_total().ops;
  return total;
}

mpisim::ChaosCounters RunResult::total_chaos() const {
  mpisim::ChaosCounters total;
  for (const mpisim::ChaosCounters& c : per_rank_chaos) total += c;
  return total;
}

CetricRankCounters RunResult::total_cetric() const {
  CetricRankCounters total;
  for (const CetricRankCounters& c : per_rank_cetric) {
    total.local_triangles += c.local_triangles;
    total.cut_triangles += c.cut_triangles;
    total.cut_wedges_sent += c.cut_wedges_sent;
    total.cut_wedge_messages_sent += c.cut_wedge_messages_sent;
    total.cut_wedge_bytes_sent += c.cut_wedge_bytes_sent;
    total.ghost_lists_fetched += c.ghost_lists_fetched;
    total.ghost_list_entries += c.ghost_list_entries;
  }
  return total;
}

KernelCounters RunResult::total_kernel() const {
  KernelCounters total;
  for (const RankStats& stats : per_rank) total += stats.kernel;
  return total;
}

double RunResult::shift_max_compute(std::size_t shift_index) const {
  return breakdown(shift_samples(shift_index)).max_compute_seconds;
}

double RunResult::shift_avg_compute(std::size_t shift_index) const {
  return breakdown(shift_samples(shift_index)).avg_compute_seconds;
}

const std::vector<std::string_view>& algorithm_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const Counter& c : kCounters) out.push_back(c.name);
    return out;
  }();
  return names;
}

RunResult count_triangles(std::string_view algorithm,
                          const graph::EdgeList& graph, int ranks,
                          const RunOptions& options) {
  for (const Counter& c : kCounters) {
    if (c.name == algorithm) return c.run(graph, ranks, options);
  }
  std::string message =
      "unknown algorithm '" + std::string(algorithm) + "' (valid:";
  for (const Counter& c : kCounters) message += " " + std::string(c.name);
  throw UnknownAlgorithm(message + ")");
}

RunResult count_triangles_2d(const graph::EdgeList& graph, int ranks,
                             const RunOptions& options,
                             const SinkFactory& make_sink) {
  return run_pipeline(
      ranks, options,
      [&](mpisim::Comm& comm) {
        return block_slice_from_edges(graph, comm.rank(), comm.size());
      },
      make_sink);
}

RunResult count_triangles_2d_rmat(const graph::RmatParams& params, int ranks,
                                  const RunOptions& options) {
  return run_pipeline(
      ranks, options,
      [&](mpisim::Comm& comm) { return block_slice_from_rmat(comm, params); },
      {});
}

}  // namespace tricount::core
