#include "tricount/obs/capture.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "tricount/util/log.hpp"

namespace tricount::obs {

CaptureSession::CaptureSession(const CaptureOptions& options)
    : options_(options) {
  if (options_.msgtrace_capacity > 0) {
    msgtrace_ =
        std::make_unique<MsgTrace>(options_.ranks, options_.msgtrace_capacity);
    msgtrace_->install();
  }
  if (!options_.flight) return;

  recorder_ =
      std::make_unique<FlightRecorder>(options_.ranks, options_.flight_capacity);
  recorder_->set_auto_dump_dir(options_.dump_dir);
  recorder_->install();
  FlightRecorder::install_signal_handlers();
  // Installed before any world or service starts: mpisim wires mailbox
  // gauges and a Service registers its slot against the current instance.
  telemetry_ = std::make_unique<Telemetry>(options_.ranks);
  telemetry_->install();
  // Operator signals (ctrl-C, kill) either flush these same artifacts and
  // exit 0, or just raise the flag a daemon's frontend loop polls.
  set_shutdown_telemetry(telemetry_.get(), options_.telemetry_path);
  install_shutdown_handlers(options_.shutdown);

  if (options_.telemetry_path.empty()) return;
  const auto interval = std::chrono::milliseconds(
      std::max<long long>(options_.telemetry_interval_ms, 10));
  publisher_ = std::thread([this, interval] {
    util::set_thread_label("tlm");
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      publish();
      lock.lock();
      cv_.wait_for(lock, interval, [this] { return stop_; });
    }
  });
}

CaptureSession::~CaptureSession() {
  stop_publisher();
  if (telemetry_ != nullptr) {
    set_shutdown_telemetry(nullptr, "");
    telemetry_->uninstall();
  }
  if (recorder_ != nullptr) {
    if (options_.dump_on_exit && !recorder_->auto_dumped()) {
      try {
        recorder_->dump(options_.dump_dir, "exit");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "flight: exit dump failed: %s\n", e.what());
      }
    }
    recorder_->uninstall();
  }
  if (msgtrace_ != nullptr) msgtrace_->uninstall();
}

void CaptureSession::stop_publisher() {
  if (!publisher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  publisher_.join();
  publish();  // the final (post-run) snapshot
}

void CaptureSession::publish() const {
  try {
    telemetry_->publish(options_.telemetry_path);
  } catch (const std::exception&) {
    // Best-effort: a failed snapshot must never fail the run.
  }
}

}  // namespace tricount::obs
