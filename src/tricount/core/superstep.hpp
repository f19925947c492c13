// The superstep engine every distributed counter runs its counting phase
// on: Cannon's √p shifts (counter2d), SUMMA's K panel steps (summa2d),
// cetric's local + cut supersteps, the 1D baselines, and the stream delta
// pass (one superstep). Each superstep intersects, then moves data. The engine owns everything those loops do the same way:
//
//   * the chaos schedule (crash superstep, straggler factor) and
//     Config::checkpoint, read once per rank;
//   * the shared per-step state — this rank's triangle tally, the
//     KernelCounters, and the intersection scratch's probe tally and hash
//     capacity — checkpointed at a superstep's start and restored on a
//     scheduled fail-restart (docs/chaos.md);
//   * the live-progress publish: telemetry, the flight "superstep"
//     counter, and the msgtrace superstep tag;
//   * the crash note: chaos.crash instants, the flight auto-dump, and the
//     crash/recovery tallies around the "recover" span;
//   * the PhaseSample finish: tracker cut, straggler inflation, ops.
//
// The algorithm keeps only its communication and its own recovery state.
// One superstep reads:
//
//   engine.begin(s, graph_bytes, partition_bytes);
//   engine.checkpoint([&] { /* save own state */ });
//   /* post communication */
//   engine.compute([&] { /* intersect into engine.triangles() */ },
//                  [&] { /* restore own state */ });
//   /* complete communication */
//   samples.push_back(engine.finish(overlapped));
//
// and engine.reduce() returns the global count after the last superstep.
//
// run_counter() is the other shared half: it runs one body per rank on a
// simulated world and assembles the RunResult every counter returns.
#pragma once

#include <cstdint>
#include <functional>

#include "tricount/core/config.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/comm.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/telemetry.hpp"

namespace tricount::core {

class SuperstepEngine {
 public:
  /// `supersteps` is the total published to live telemetry. The scratch
  /// is sized for rows of max(`max_row`, 16) entries before the first
  /// superstep's tracking starts.
  SuperstepEngine(mpisim::Comm& comm, const Config& config, int supersteps,
                  std::size_t max_row);

  kernels::IntersectScratch& scratch() { return scratch_; }
  KernelCounters& kernel() { return kernel_; }
  /// This rank's running triangle tally; compute callbacks add to it.
  TriangleCount& triangles() { return triangles_; }

  /// Starts superstep `step` and publishes it as live progress. The byte
  /// gauges feed the telemetry memory view (0 = not tracked).
  void begin(int step, std::uint64_t graph_bytes = 0,
             std::uint64_t partition_bytes = 0);

  /// When checkpointing is on (Config::checkpoint or a scheduled crash),
  /// saves the shared state and calls `save` for the algorithm's own.
  void checkpoint(const std::function<void()>& save = {});

  /// Runs the superstep's intersection `work`. On this rank's scheduled
  /// crash superstep it then plays the one-shot fail-restart: the
  /// superstep's results are lost, the checkpoint is restored (shared
  /// state, then `restore`), and `work` runs again. Peers are unaffected;
  /// the recovery cost lands in this rank's compute sample.
  void compute(const std::function<void()>& work,
               const std::function<void()>& restore = {});

  /// Cuts the superstep's sample: straggler inflation applied, ops = the
  /// kernel lookups this superstep made.
  PhaseSample finish(bool overlapped = false);

  /// After the last superstep: folds the scratch probes into kernel(),
  /// publishes the final live readings, and returns the global triangle
  /// count (allreduce of every rank's tally).
  TriangleCount reduce();

 private:
  /// Everything the fail-restart model loses besides the algorithm's own
  /// state. The scratch's probe tally lives outside kernel_ until
  /// reduce(), and the replay must rerun under the same hash capacity, or
  /// its probe and direct-mode tallies diverge from the discarded pass.
  struct Checkpoint {
    TriangleCount triangles = 0;
    KernelCounters kernel;
    std::uint64_t lookups_before = 0;
    std::uint64_t probes = 0;
    std::size_t hash_capacity = 0;
  };

  mpisim::Comm& comm_;
  int supersteps_;
  int step_ = -1;
  int crash_step_ = -1;
  double straggler_ = 1.0;
  bool checkpointing_ = false;
  kernels::IntersectScratch scratch_;
  KernelCounters kernel_;
  TriangleCount triangles_ = 0;
  std::uint64_t lookups_before_ = 0;
  Checkpoint ckpt_;
  obs::RankTelemetry* live_ = nullptr;
  PhaseTracker tracker_;
};

/// One rank's share of a run. It fills `stats` and, on rank 0, the
/// result's scalars (triangles, num_vertices, num_edges); per-rank extras
/// go to the rank's own slot of `result`.
using RankBody =
    std::function<void(mpisim::Comm&, RankStats& stats, RunResult& result)>;

/// Runs `body` on a simulated world of `result.ranks` ranks under
/// `options` (model, chaos injector, watchdog) and completes `result`:
/// per-rank stats, traffic counters, comm matrix, chaos tallies, and the
/// preprocessing step names. The caller presets what differs by
/// algorithm (algorithm, grid_q, overlap_enabled). Live telemetry reads
/// "pre" until the first superstep and "done" after the body.
///
/// With `world`, the body runs as one job on that persistent world
/// (traffic counters are the job's delta) instead of a fresh world; the
/// world's own options then stand in for the chaos injector and watchdog,
/// and a persistent world refuses injectors (mpisim/runtime.hpp).
RunResult run_counter(RunResult result, const RunOptions& options,
                      const RankBody& body,
                      mpisim::PersistentWorld* world = nullptr);

}  // namespace tricount::core
