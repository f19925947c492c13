#include "tricount/core/superstep.hpp"

#include <algorithm>
#include <utility>

#include "tricount/mpisim/collectives.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/util/time.hpp"

namespace tricount::core {

namespace {

obs::RankTelemetry* live_slot() {
  obs::Telemetry* telemetry = obs::Telemetry::current();
  return telemetry != nullptr ? telemetry->for_caller() : nullptr;
}

}  // namespace

SuperstepEngine::SuperstepEngine(mpisim::Comm& comm, const Config& config,
                                 int supersteps, std::size_t max_row)
    : comm_(comm),
      supersteps_(supersteps),
      live_(live_slot()),
      tracker_(comm) {
  scratch_.reserve_for(std::max<std::size_t>(max_row, 16));
  scratch_.reset_probes();
  (void)tracker_.cut();  // superstep 0 starts after the sizing
  // A scheduled fail-restart forces checkpointing so the crashed
  // superstep can be re-executed from the state it started with.
  if (const mpisim::FaultInjector* injector = comm.world().fault_injector()) {
    crash_step_ = injector->crash_superstep(comm.rank());
    straggler_ = injector->straggler_factor(comm.rank());
  }
  checkpointing_ = config.checkpoint || crash_step_ >= 0;
}

void SuperstepEngine::begin(int step, std::uint64_t graph_bytes,
                            std::uint64_t partition_bytes) {
  step_ = step;
  if (live_ != nullptr) {
    live_->phase.store("tc", std::memory_order_relaxed);
    live_->superstep.store(step, std::memory_order_relaxed);
    live_->total_supersteps.store(supersteps_, std::memory_order_relaxed);
    live_->triangles.store(static_cast<std::uint64_t>(triangles_),
                           std::memory_order_relaxed);
    live_->lookups.store(kernel_.lookups, std::memory_order_relaxed);
    live_->graph_bytes.store(graph_bytes, std::memory_order_relaxed);
    live_->partition_bytes.store(partition_bytes, std::memory_order_relaxed);
    live_->scratch_bytes.store(scratch_.hash_capacity() * sizeof(VertexId),
                               std::memory_order_relaxed);
  }
  // The flight "superstep" counter doubles as the crash witness: on a
  // chaos crash the dump's final superstep record is the failed one.
  if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
    flight->counter("superstep", "tc", static_cast<double>(step));
  }
  if (obs::MsgTrace* mt = obs::MsgTrace::current()) {
    mt->note_superstep(step);
  }
}

void SuperstepEngine::checkpoint(const std::function<void()>& save) {
  if (!checkpointing_) return;
  obs::ScopedSpan span("checkpoint", "chaos");
  ckpt_.triangles = triangles_;
  ckpt_.kernel = kernel_;
  ckpt_.lookups_before = lookups_before_;
  ckpt_.probes = scratch_.probes();
  ckpt_.hash_capacity = scratch_.hash_capacity();
  if (save) save();
}

void SuperstepEngine::compute(const std::function<void()>& work,
                              const std::function<void()>& restore) {
  {
    obs::ScopedSpan span("intersect", "tc");
    work();
  }
  if (step_ != crash_step_) return;

  mpisim::ChaosCounters& cc = comm_.world().chaos_counters(comm_.rank());
  cc.crashes += 1;
  if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
    // Dump at the crash instant: the last "superstep" counter in the
    // crashing rank's stream is exactly the failed superstep.
    flight->instant("chaos.crash", "chaos", static_cast<double>(step_));
    flight->try_auto_dump("chaos-crash");
  }
  const double t0 = util::thread_cpu_seconds();
  {
    obs::ScopedSpan span("recover", "chaos");
    triangles_ = ckpt_.triangles;
    kernel_ = ckpt_.kernel;
    lookups_before_ = ckpt_.lookups_before;
    scratch_.restore(ckpt_.hash_capacity, ckpt_.probes);
    if (restore) restore();
    work();
  }
  cc.recoveries += 1;
  cc.recovery_seconds += util::thread_cpu_seconds() - t0;
}

PhaseSample SuperstepEngine::finish(bool overlapped) {
  PhaseSample sample = tracker_.cut();
  sample.overlapped = overlapped;
  if (straggler_ > 1.0) {
    // Modeled slowdown: inflate the compute reading the α–β model sees;
    // the injected share is tallied so reports can subtract it.
    mpisim::ChaosCounters& cc = comm_.world().chaos_counters(comm_.rank());
    cc.straggler_steps += 1;
    cc.straggler_injected_seconds +=
        (straggler_ - 1.0) * sample.compute_cpu_seconds;
    sample.compute_cpu_seconds *= straggler_;
  }
  sample.ops = kernel_.lookups - lookups_before_;
  lookups_before_ = kernel_.lookups;
  return sample;
}

TriangleCount SuperstepEngine::reduce() {
  kernel_.probes = scratch_.probes();
  if (live_ != nullptr) {
    // Final readings: superstep == total renders as "n/n" (done) in the
    // streaming views.
    live_->superstep.store(supersteps_, std::memory_order_relaxed);
    live_->triangles.store(static_cast<std::uint64_t>(triangles_),
                           std::memory_order_relaxed);
    live_->lookups.store(kernel_.lookups, std::memory_order_relaxed);
  }
  return mpisim::allreduce_sum(comm_, triangles_);
}

RunResult run_counter(RunResult result, const RunOptions& options,
                      const RankBody& body, mpisim::PersistentWorld* world) {
  result.model = options.model;
  result.chaos_enabled = options.chaos != nullptr;
  result.per_rank.assign(static_cast<std::size_t>(result.ranks), RankStats{});

  const mpisim::RankFn rank_fn = [&](mpisim::Comm& comm) {
    obs::RankTelemetry* live = live_slot();
    if (live != nullptr) live->phase.store("pre", std::memory_order_relaxed);
    body(comm, result.per_rank[static_cast<std::size_t>(comm.rank())], result);
    if (live != nullptr) live->phase.store("done", std::memory_order_relaxed);
  };
  mpisim::WorldOptions world_options;
  world_options.fault_injector = options.chaos.get();
  world_options.watchdog_seconds = options.watchdog_seconds;
  mpisim::WorldReport report =
      world != nullptr
          ? world->run_job(rank_fn)
          : mpisim::run_world_report(result.ranks, rank_fn, world_options);

  result.per_rank_counters = std::move(report.counters);
  result.comm_matrix = std::move(report.comm_matrix);
  result.per_rank_chaos = std::move(report.chaos);
  for (const auto& [name, sample] : result.per_rank[0].pre_steps) {
    result.step_names.push_back(name);
  }
  return result;
}

}  // namespace tricount::core
