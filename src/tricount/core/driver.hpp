// Public entry points: run the full distributed pipeline (input slice ->
// preprocessing -> Cannon counting -> reduction) on a simulated world of
// p ranks and return the count plus every measurement the evaluation
// section needs.
//
// This is the API the examples and benchmarks use:
//
//   auto result = tricount::core::count_triangles_2d(graph, /*ranks=*/16);
//   std::cout << result.triangles << "\n";
//   std::cout << result.total_modeled_seconds() << "\n";
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tricount/core/config.hpp"
#include "tricount/core/counter2d.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/mpisim/fault.hpp"
#include "tricount/util/cost_model.hpp"

namespace tricount::core {

struct RunOptions {
  Config config;
  util::AlphaBetaModel model;
  /// Check block structural invariants after preprocessing (tests).
  bool validate_blocks = false;
  /// Fault injector for the run (chaos subsystem, docs/chaos.md); null
  /// keeps the fault-free fast path bit-identical to pre-chaos builds.
  std::shared_ptr<const mpisim::FaultInjector> chaos;
  /// Hang-watchdog budget forwarded to mpisim (0 = auto, <0 = off).
  double watchdog_seconds = 0.0;
};

/// One rank's CETRIC tallies (src/tricount/cetric/, docs/cetric.md):
/// the local-vs-cut triangle classification plus the cut-wedge and
/// ghost-exchange traffic the communication-avoiding claims rest on.
struct CetricRankCounters {
  std::uint64_t local_triangles = 0;
  std::uint64_t cut_triangles = 0;
  std::uint64_t cut_wedges_sent = 0;
  std::uint64_t cut_wedge_messages_sent = 0;
  std::uint64_t cut_wedge_bytes_sent = 0;
  std::uint64_t ghost_lists_fetched = 0;
  std::uint64_t ghost_list_entries = 0;
};

struct RunResult {
  graph::TriangleCount triangles = 0;
  int ranks = 0;
  /// Cannon grid edge; 0 for every other algorithm (cetric's 1D
  /// partition, SUMMA's possibly rectangular grid).
  int grid_q = 0;
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;
  util::AlphaBetaModel model;
  /// Preprocessing superstep names, in pipeline order (same on all ranks).
  std::vector<std::string> step_names;
  std::vector<RankStats> per_rank;
  /// Whole-run traffic counters per rank (totals + collective split).
  std::vector<mpisim::PerfCounters> per_rank_counters;
  /// The p×p (source, dest) traffic matrix recorded by mpisim.
  mpisim::CommMatrix comm_matrix;
  /// True when a fault injector was installed for this run.
  bool chaos_enabled = false;
  /// True when the run used comm/compute overlap (Config::overlap); the
  /// overlap metrics block is emitted only in this case so overlap-off
  /// artifacts stay byte-identical to pre-overlap builds.
  bool overlap_enabled = false;
  /// Per-rank chaos tallies (all zero unless chaos_enabled).
  std::vector<mpisim::ChaosCounters> per_rank_chaos;
  /// Which counting algorithm produced this result (algorithm_names()).
  /// Artifacts serialize the key only when it differs from "2d", so
  /// pre-cetric baselines stay byte-identical.
  std::string algorithm = "2d";
  /// Per-rank CETRIC tallies (empty unless algorithm == "cetric").
  std::vector<CetricRankCounters> per_rank_cetric;

  mpisim::ChaosCounters total_chaos() const;
  CetricRankCounters total_cetric() const;

  // --- derived metrics (see instrumentation.hpp for the model) ----------

  /// Per-rank samples of one preprocessing superstep / one shift.
  std::vector<PhaseSample> step_samples(std::size_t step_index) const;
  std::vector<PhaseSample> shift_samples(std::size_t shift_index) const;
  std::size_t num_shifts() const;

  /// Modeled parallel times (the reproduction's analogue of the paper's
  /// ppt / tct / overall columns).
  double pre_modeled_seconds() const;
  double tc_modeled_seconds() const;
  double total_modeled_seconds() const { return pre_modeled_seconds() + tc_modeled_seconds(); }

  /// Modeled communication-only time per phase (Figure 3).
  double pre_modeled_comm_seconds() const;
  double tc_modeled_comm_seconds() const;

  /// Total abstract operations per phase (Figure 2).
  std::uint64_t pre_ops() const;
  std::uint64_t tc_ops() const;

  /// Kernel counters summed over ranks (Table 4, §7.1 probes).
  KernelCounters total_kernel() const;

  /// Max/avg compute seconds of shift `i` across ranks (Table 3).
  double shift_max_compute(std::size_t shift_index) const;
  double shift_avg_compute(std::size_t shift_index) const;
};

/// Raised by count_triangles for a name outside algorithm_names(); the
/// message names the culprit and lists the valid names.
class UnknownAlgorithm : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The distributed counters count_triangles selects by name, in
/// registry order: "2d" (Cannon; perfect-square rank counts), "cetric"
/// (any rank count), "summa" (the most-square qr × qc factorisation of
/// the rank count), and the 1D baselines "aop", "push" and "wedge" (any
/// rank count; baselines/baselines.hpp).
const std::vector<std::string_view>& algorithm_names();

/// The algorithm registry: counts with the counter named `algorithm`.
/// Throws UnknownAlgorithm for a name outside algorithm_names(), and
/// std::invalid_argument for a rank count the counter cannot run on.
RunResult count_triangles(std::string_view algorithm,
                          const graph::EdgeList& graph, int ranks,
                          const RunOptions& options = {});

/// Counts triangles of a replicated, simplified edge list on a simulated
/// world of `ranks` ranks (must be a perfect square). With `make_sink`,
/// every rank builds a sink (counter2d.hpp), cannon_count feeds it the
/// triangles the rank closes, and the rank calls its finish() after the
/// count; per-vertex counts and edge supports are such sinks.
RunResult count_triangles_2d(const graph::EdgeList& graph, int ranks,
                             const RunOptions& options = {},
                             const SinkFactory& make_sink = {});

/// Same, but the graph is RMAT-generated inside the run, distributed, as
/// in the paper's synthetic-dataset experiments.
RunResult count_triangles_2d_rmat(const graph::RmatParams& params, int ranks,
                                  const RunOptions& options = {});

}  // namespace tricount::core
