// One capture session per process (docs/observability.md): the flight
// recorder and its automatic dumps, the fatal-signal and SIGINT/SIGTERM
// handlers, live telemetry and its one snapshot-publisher thread, and the
// optional causal MsgTrace. `tricount_cli count` and `tricountd` each
// build one from the options they already parse.
//
// Construction installs everything process-wide; scope exit tears it all
// down in reverse, including during exception unwinding, so a
// watchdog-stall ChaosError still leaves its auto dump behind and nothing
// installed dangles.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "tricount/obs/flight.hpp"
#include "tricount/obs/graceful.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/telemetry.hpp"

namespace tricount::obs {

struct CaptureOptions {
  int ranks = 1;
  /// Flight recorder, telemetry, and signal handlers; false installs
  /// none of them (the MsgTrace is independent).
  bool flight = true;
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
  /// Where automatic dumps (chaos crash, watchdog stall, signal) go.
  std::string dump_dir = "flight-dumps";
  /// Also dump the rings when the session ends without an auto dump.
  bool dump_on_exit = false;
  /// What SIGINT/SIGTERM do (graceful.hpp).
  ShutdownMode shutdown = ShutdownMode::kFlushAndExit;
  /// Publish tricount.telemetry.v1 snapshots here; empty = no publisher.
  std::string telemetry_path;
  long long telemetry_interval_ms = 200;  ///< clamped to >= 10
  /// Records per rank of a causal MsgTrace; 0 = no capture (the default:
  /// off-mode runs stay byte-identical to builds without msgtrace).
  std::size_t msgtrace_capacity = 0;
};

class CaptureSession {
 public:
  explicit CaptureSession(const CaptureOptions& options);
  ~CaptureSession();

  CaptureSession(const CaptureSession&) = delete;
  CaptureSession& operator=(const CaptureSession&) = delete;

  /// Stops the publisher thread and publishes one final snapshot.
  /// Idempotent; the destructor calls it. Call it earlier when the final
  /// snapshot must see state that is torn down before the session (a
  /// service's gauges unregister when the service is destroyed).
  void stop_publisher();

  /// The installed causal trace, or nullptr when msgtrace is off.
  const MsgTrace* msgtrace() const { return msgtrace_.get(); }

 private:
  void publish() const;

  CaptureOptions options_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<MsgTrace> msgtrace_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mutex_
  std::thread publisher_;
};

}  // namespace tricount::obs
