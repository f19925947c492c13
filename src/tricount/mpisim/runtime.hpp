// Runtime: spawns a world of p ranks, each an OS thread running the same
// rank function (the SPMD main), and joins them.
//
// Each rank gets a Comm handle; ranks may communicate only through it.
// If any rank throws, the world is failed (all blocked receives wake and
// throw) and the first exception is rethrown to the caller, so a bug in
// one rank cannot hang the whole test suite.
//
// Two optional services are configured through WorldOptions:
//  * a FaultInjector (chaos subsystem, docs/chaos.md) interposed on every
//    point-to-point transmission, and
//  * a hang watchdog that fails the world with a per-rank blocked-state
//    diagnostic when no rank makes progress for a configurable wall-time,
//    instead of letting a deadlock hang ctest forever.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tricount/mpisim/comm.hpp"
#include "tricount/mpisim/fault.hpp"
#include "tricount/mpisim/mailbox.hpp"

namespace tricount::mpisim {

struct WorldOptions {
  /// When non-null, every point-to-point transmission consults it and the
  /// Comm layer switches to sequenced, acked, retransmitting delivery.
  /// Not owned; must outlive the run_world call.
  const FaultInjector* fault_injector = nullptr;

  /// Wall-seconds without any mailbox progress before the watchdog fails
  /// the world. 0 = auto: the TRICOUNT_WATCHDOG_SECONDS environment
  /// variable if set, else 30 s when a fault injector is installed, else
  /// disabled. Negative disables unconditionally.
  double watchdog_seconds = 0.0;
};

/// Shared world state. Created by run_world(); Comm handles reference it.
class World {
 public:
  explicit World(int size, const WorldOptions& options = {});

  int size() const { return size_; }
  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<size_t>(rank)); }
  PerfCounters& counters(int rank) { return counters_.at(static_cast<size_t>(rank)); }
  const std::vector<PerfCounters>& all_counters() const { return counters_; }
  /// The p×p (source, dest) traffic matrix. Rank r's thread writes only
  /// row r, so sends record without locks; read after ranks have joined.
  CommMatrix& comm_matrix() { return comm_matrix_; }
  const CommMatrix& comm_matrix() const { return comm_matrix_; }

  /// The installed fault injector, or nullptr (the common case).
  const FaultInjector* fault_injector() const { return fault_injector_; }

  /// Rank r's chaos tallies; written only by rank r's thread.
  ChaosCounters& chaos_counters(int rank) {
    return chaos_counters_.at(static_cast<size_t>(rank));
  }
  const std::vector<ChaosCounters>& all_chaos_counters() const {
    return chaos_counters_;
  }

  /// Monotone count of mailbox pushes/pops, watched by the watchdog.
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Wakes every blocked receiver with a failure. Called when a rank
  /// throws.
  void fail_all();

 private:
  int size_;
  std::atomic<std::uint64_t> progress_{0};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<PerfCounters> counters_;
  std::vector<ChaosCounters> chaos_counters_;
  CommMatrix comm_matrix_;
  const FaultInjector* fault_injector_ = nullptr;
};

using RankFn = std::function<void(Comm&)>;

/// Everything a world measured: per-rank traffic counters, the (source,
/// dest) communication matrix, and — when a fault injector was installed —
/// per-rank chaos tallies.
struct WorldReport {
  std::vector<PerfCounters> counters;
  CommMatrix comm_matrix;
  std::vector<ChaosCounters> chaos;
};

/// Runs `fn` on `size` ranks and returns the per-rank traffic counters.
/// Rethrows the first rank exception, if any. Each rank thread is tagged
/// with its rank via util::set_current_rank, so log lines and trace
/// events are attributed to the right rank.
std::vector<PerfCounters> run_world(int size, const RankFn& fn,
                                    const WorldOptions& options = {});

/// Like run_world, but also returns the communication matrix and chaos
/// tallies.
WorldReport run_world_report(int size, const RankFn& fn,
                             const WorldOptions& options = {});

/// A world whose rank threads stay alive across many SPMD jobs — the
/// long-lived service daemon's runtime (docs/service.md). run_world pays
/// thread spawn + join per call; a resident service answering sub-
/// millisecond queries cannot. PersistentWorld parks each rank thread on
/// a condition variable between jobs and reuses the same mailboxes, so a
/// job costs one wakeup instead of p thread creations.
///
/// Differences from run_world:
///  * run_job returns only the *delta* the job produced (counters and
///    comm matrix), so per-request artifacts attribute traffic to the
///    request that caused it, not to the world's lifetime.
///  * Fault injection is unsupported: each job builds a fresh Comm, so
///    channel sequence numbers and collective tags restart, and a late
///    duplicate or retransmit from one job would be accepted as data by
///    the next. The constructor throws if a fault injector is configured.
///  * If any rank throws, the world is failed exactly like run_world —
///    and then *stays* failed: the world is poisoned, run_job refuses
///    further jobs, and the owner must rebuild the world.
///
/// Single-rank worlds run jobs inline on the caller's thread.
class PersistentWorld {
 public:
  explicit PersistentWorld(int size, const WorldOptions& options = {});
  ~PersistentWorld();

  PersistentWorld(const PersistentWorld&) = delete;
  PersistentWorld& operator=(const PersistentWorld&) = delete;

  int size() const { return size_; }
  /// True after a job failed; every later run_job throws immediately.
  bool poisoned() const { return poisoned_; }
  /// Jobs completed successfully since construction.
  std::uint64_t jobs_run() const { return jobs_run_; }

  /// Runs `fn` as one SPMD job on the resident rank threads, blocks until
  /// every rank returns, and reports only this job's traffic.
  WorldReport run_job(const RankFn& fn);

 private:
  void worker(int rank);
  WorldReport job_delta(const std::vector<PerfCounters>& counters_before,
                        const CommMatrix& matrix_before) const;

  int size_;
  std::unique_ptr<World> world_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers wait here between jobs
  std::condition_variable done_cv_;  // run_job waits here for completion
  const RankFn* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
  bool poisoned_ = false;
  std::uint64_t jobs_run_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace tricount::mpisim
