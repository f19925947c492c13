#include "tricount/mpisim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "tricount/obs/flight.hpp"
#include "tricount/obs/telemetry.hpp"
#include "tricount/util/log.hpp"

namespace tricount::mpisim {

// ---------------------------------------------------------------------------
// Mailbox

void Mailbox::push(Message message) {
  {
    std::scoped_lock lock(mutex_);
    queued_bytes_ += message.payload.size();
    queue_.push_back(std::move(message));
    // Every arrival ages the deferred messages; release the ones whose
    // hold has expired, preserving their original relative order.
    if (!deferred_.empty()) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < deferred_.size(); ++i) {
        if (--deferred_[i].remaining <= 0) {
          queued_bytes_ += deferred_[i].message.payload.size();
          queue_.push_back(std::move(deferred_[i].message));
        } else {
          // keep == i would self-move, gutting the held payload.
          if (keep != i) deferred_[keep] = std::move(deferred_[i]);
          ++keep;
        }
      }
      deferred_.resize(keep);
    }
    publish_depth_locked();
  }
  note_progress();
  cv_.notify_all();
}

void Mailbox::push_front(Message message) {
  {
    std::scoped_lock lock(mutex_);
    queued_bytes_ += message.payload.size();
    queue_.push_front(std::move(message));
    publish_depth_locked();
  }
  note_progress();
  cv_.notify_all();
}

void Mailbox::push_deferred(Message message, int hold_pushes) {
  {
    std::scoped_lock lock(mutex_);
    deferred_.push_back(Deferred{std::move(message), std::max(1, hold_pushes)});
  }
  // Deliberately no notify: the message is invisible until released by a
  // later push or by a starving receiver (release_deferred_locked).
}

void Mailbox::release_deferred_locked() {
  for (Deferred& d : deferred_) {
    queued_bytes_ += d.message.payload.size();
    queue_.push_back(std::move(d.message));
  }
  deferred_.clear();
  publish_depth_locked();
}

std::size_t Mailbox::find_locked(int source, int tag) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (matches(queue_[i], source, tag)) return i;
  }
  return queue_.size();
}

Message Mailbox::pop(int source, int tag) {
  std::unique_lock lock(mutex_);
  std::size_t at = queue_.size();
  waiting_ = true;
  waiting_source_ = source;
  waiting_tag_ = tag;
  cv_.wait(lock, [&] {
    if (failed_) return true;
    at = find_locked(source, tag);
    if (at < queue_.size()) return true;
    if (!deferred_.empty()) {
      // Nothing deliverable but delayed messages exist: a blocked
      // receiver outwaits any modeled delay rather than deadlocking.
      release_deferred_locked();
      at = find_locked(source, tag);
    }
    return at < queue_.size();
  });
  waiting_ = false;
  if (at >= queue_.size()) {
    throw std::runtime_error(
        "mpisim: receive aborted, a peer rank failed while this rank was "
        "blocked");
  }
  Message m = std::move(queue_[at]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
  queued_bytes_ -= m.payload.size();
  publish_depth_locked();
  note_progress();
  return m;
}

bool Mailbox::pop_for(int source, int tag, double timeout_seconds,
                      Message& out) {
  std::unique_lock lock(mutex_);
  std::size_t at = queue_.size();
  waiting_ = true;
  waiting_source_ = source;
  waiting_tag_ = tag;
  const bool ready = cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [&] {
        if (failed_) return true;
        at = find_locked(source, tag);
        if (at < queue_.size()) return true;
        if (!deferred_.empty()) {
          release_deferred_locked();
          at = find_locked(source, tag);
        }
        return at < queue_.size();
      });
  waiting_ = false;
  if (failed_ && at >= queue_.size()) {
    throw std::runtime_error(
        "mpisim: receive aborted, a peer rank failed while this rank was "
        "blocked");
  }
  if (!ready || at >= queue_.size()) return false;
  out = std::move(queue_[at]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
  queued_bytes_ -= out.payload.size();
  publish_depth_locked();
  note_progress();
  return true;
}

bool Mailbox::try_pop(int source, int tag, Message& out) {
  std::scoped_lock lock(mutex_);
  const std::size_t at = find_locked(source, tag);
  if (at >= queue_.size()) return false;
  out = std::move(queue_[at]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
  queued_bytes_ -= out.payload.size();
  publish_depth_locked();
  note_progress();
  return true;
}

bool Mailbox::try_pop_ack(Message& out) {
  std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].kind == MsgKind::kAck) {
      out = std::move(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      queued_bytes_ -= out.payload.size();
      publish_depth_locked();
      note_progress();
      return true;
    }
  }
  return false;
}

void Mailbox::wait_ack_for(double timeout_seconds) {
  std::unique_lock lock(mutex_);
  waiting_ = true;
  waiting_source_ = kAnySource;
  waiting_tag_ = kAnyTag;
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds), [&] {
    return failed_ ||
           std::any_of(queue_.begin(), queue_.end(), [](const Message& m) {
             return m.kind == MsgKind::kAck;
           });
  });
  waiting_ = false;
  if (failed_) {
    throw std::runtime_error(
        "mpisim: ack wait aborted, a peer rank failed while this rank was "
        "blocked");
  }
}

bool Mailbox::probe(int source, int tag) {
  std::scoped_lock lock(mutex_);
  return find_locked(source, tag) < queue_.size();
}

void Mailbox::fail() {
  {
    std::scoped_lock lock(mutex_);
    failed_ = true;
  }
  cv_.notify_all();
}

std::size_t Mailbox::queued() const {
  std::scoped_lock lock(mutex_);
  return queue_.size();
}

Mailbox::WaitInfo Mailbox::waiting_info() const {
  std::scoped_lock lock(mutex_);
  return WaitInfo{waiting_, waiting_source_, waiting_tag_};
}

// ---------------------------------------------------------------------------
// World & run_world

World::World(int size, const WorldOptions& options)
    : size_(size),
      counters_(static_cast<size_t>(size)),
      chaos_counters_(static_cast<size_t>(size)),
      comm_matrix_(std::max(size, 0)),
      fault_injector_(options.fault_injector) {
  if (size <= 0) throw std::invalid_argument("mpisim: world size must be > 0");
  mailboxes_.reserve(static_cast<size_t>(size));
  obs::Telemetry* telemetry = obs::Telemetry::current();
  if (telemetry != nullptr && telemetry->ranks() < size) {
    telemetry = nullptr;  // sized for a different world; don't misattribute
  }
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(&progress_));
    if (telemetry != nullptr) {
      obs::RankTelemetry& slot = telemetry->rank(i);
      mailboxes_.back()->set_telemetry_gauges(&slot.mailbox_depth,
                                              &slot.mailbox_bytes);
    }
  }
}

void World::fail_all() {
  for (auto& mb : mailboxes_) mb->fail();
}

namespace {

/// Resolves the watchdog budget: explicit option, else environment, else
/// on-by-default (30 s) only when a fault injector can stall the world.
double watchdog_budget(const WorldOptions& options) {
  if (options.watchdog_seconds > 0.0) return options.watchdog_seconds;
  if (options.watchdog_seconds < 0.0) return 0.0;
  if (const char* env = std::getenv("TRICOUNT_WATCHDOG_SECONDS")) {
    const double parsed = std::strtod(env, nullptr);
    return parsed > 0.0 ? parsed : 0.0;
  }
  return options.fault_injector != nullptr ? 30.0 : 0.0;
}

/// One line per rank: what it is blocked on (operation, peer, tag) and how
/// deep its mailbox is — the actionable part of a watchdog failure.
std::string stall_diagnostic(World& world, double budget_seconds) {
  std::ostringstream out;
  out << "mpisim watchdog: no rank made progress for " << budget_seconds
      << " s; per-rank blocked state:";
  for (int r = 0; r < world.size(); ++r) {
    const Mailbox::WaitInfo info = world.mailbox(r).waiting_info();
    out << "\n  rank " << r << ": ";
    if (info.waiting) {
      out << "blocked in recv(source=";
      if (info.source == kAnySource) {
        out << "any";
      } else {
        out << info.source;
      }
      out << ", tag=";
      if (info.tag == kAnyTag) {
        out << "any";
      } else {
        out << info.tag;
      }
      out << ")";
    } else {
      out << "not blocked (computing or exited)";
    }
    out << ", " << world.mailbox(r).queued() << " queued";
  }
  return out.str();
}

}  // namespace

WorldReport run_world_report(int size, const RankFn& fn,
                             const WorldOptions& options) {
  World world(size, options);
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto rank_main = [&](int rank) {
    // Tag the thread so log lines and trace events carry the rank. The
    // single-rank inline path reuses the caller's thread, so the previous
    // tag is restored on exit.
    const int previous_rank = util::current_rank();
    util::set_current_rank(rank);
    Comm comm(world, rank);
    try {
      fn(comm);
      // Reliable-delivery quiesce: a rank may not return while peers still
      // wait on its unacknowledged sends. No-op without a fault injector.
      comm.flush_sends();
    } catch (...) {
      {
        std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      world.fail_all();
    }
    util::set_current_rank(previous_rank);
  };

  const double budget = watchdog_budget(options);
  std::thread watchdog;
  std::mutex wd_mutex;
  std::condition_variable wd_cv;
  bool wd_stop = false;
  // The watchdog only makes sense with real rank threads: the single-rank
  // inline path cannot deadlock on itself without also hanging the caller.
  if (budget > 0.0 && size > 1) {
    watchdog = std::thread([&] {
      // Not a rank: label the thread so its log lines read [wdog] and
      // its (rare) trace/flight events land in the shared world stream.
      util::set_thread_label("wdog");
      using clock = std::chrono::steady_clock;
      const auto interval = std::chrono::duration<double>(
          std::clamp(budget / 4.0, 0.01, 0.5));
      std::uint64_t last_progress = world.progress();
      auto last_change = clock::now();
      std::unique_lock lock(wd_mutex);
      while (!wd_cv.wait_for(lock, interval, [&] { return wd_stop; })) {
        const std::uint64_t now_progress = world.progress();
        if (now_progress != last_progress) {
          last_progress = now_progress;
          last_change = clock::now();
          continue;
        }
        // Only declare a stall when someone is actually blocked; a world
        // that is purely computing is slow, not stuck.
        bool any_waiting = false;
        for (int r = 0; r < size; ++r) {
          any_waiting = any_waiting || world.mailbox(r).waiting_info().waiting;
        }
        const double stalled =
            std::chrono::duration<double>(clock::now() - last_change).count();
        if (!any_waiting || stalled < budget) continue;
        const std::string diag = stall_diagnostic(world, budget);
        TRICOUNT_LOG_ERROR("%s", diag.c_str());
        // Dump the flight rings before tearing the world down: the hang
        // is exactly the case where post-run artifacts never happen.
        if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
          flight->instant("watchdog.stall", "chaos", budget);
          flight->try_auto_dump("watchdog-stall");
        }
        {
          std::scoped_lock error_lock(error_mutex);
          if (!first_error) {
            first_error = std::make_exception_ptr(
                ChaosError(ChaosError::Kind::kWatchdogStall, diag));
          }
        }
        world.fail_all();
        return;
      }
    });
  }

  if (size == 1) {
    // Single-rank worlds run inline: cheaper, and debugger-friendly.
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(size));
    for (int r = 0; r < size; ++r) {
      threads.emplace_back(rank_main, r);
    }
    for (auto& t : threads) t.join();
  }

  if (watchdog.joinable()) {
    {
      std::scoped_lock lock(wd_mutex);
      wd_stop = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return WorldReport{world.all_counters(), std::move(world.comm_matrix()),
                     world.all_chaos_counters()};
}

std::vector<PerfCounters> run_world(int size, const RankFn& fn,
                                    const WorldOptions& options) {
  return run_world_report(size, fn, options).counters;
}

// ---------------------------------------------------------------------------
// PersistentWorld

PersistentWorld::PersistentWorld(int size, const WorldOptions& options)
    : size_(size) {
  if (options.fault_injector != nullptr) {
    throw std::invalid_argument(
        "mpisim: PersistentWorld does not support fault injection (each "
        "job builds a fresh Comm, so channel sequence numbers and "
        "collective tags restart, and a late duplicate or retransmit from "
        "one job would be accepted as data by the next)");
  }
  world_ = std::make_unique<World>(size, options);
  if (size_ > 1) {
    threads_.reserve(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      threads_.emplace_back(&PersistentWorld::worker, this, r);
    }
  }
}

PersistentWorld::~PersistentWorld() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void PersistentWorld::worker(int rank) {
  // The thread is a rank for its whole lifetime: tag it once so log
  // lines and trace events from every job carry the rank.
  util::set_current_rank(rank);
  std::uint64_t seen = 0;
  while (true) {
    const RankFn* fn = nullptr;
    {
      std::unique_lock lock(mutex_);
      job_cv_.wait(lock, [&] { return stop_ || generation_ > seen; });
      if (stop_) return;
      seen = generation_;
      fn = job_;
    }
    Comm comm(*world_, rank);
    try {
      (*fn)(comm);
      comm.flush_sends();
    } catch (...) {
      {
        std::scoped_lock lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      world_->fail_all();
    }
    {
      std::scoped_lock lock(mutex_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

WorldReport PersistentWorld::job_delta(
    const std::vector<PerfCounters>& counters_before,
    const CommMatrix& matrix_before) const {
  WorldReport report;
  report.counters.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    report.counters.push_back(world_->counters(r) -
                              counters_before[static_cast<std::size_t>(r)]);
  }
  report.comm_matrix = CommMatrix(size_);
  // The matrix accumulates across jobs; per-job cells are the increment
  // since the last snapshot. Chaos is unsupported, so only the user and
  // collective columns can have moved — copy all fields for symmetry.
  for (int s = 0; s < size_; ++s) {
    for (int d = 0; d < size_; ++d) {
      const CommCell& now = world_->comm_matrix().at(s, d);
      const CommCell& base = matrix_before.at(s, d);
      CommCell& cell = report.comm_matrix.at(s, d);
      cell.user_messages = now.user_messages - base.user_messages;
      cell.user_bytes = now.user_bytes - base.user_bytes;
      cell.collective_messages =
          now.collective_messages - base.collective_messages;
      cell.collective_bytes = now.collective_bytes - base.collective_bytes;
      cell.chaos_messages = now.chaos_messages - base.chaos_messages;
      cell.chaos_bytes = now.chaos_bytes - base.chaos_bytes;
    }
  }
  report.chaos = world_->all_chaos_counters();  // all zero: no injector
  return report;
}

WorldReport PersistentWorld::run_job(const RankFn& fn) {
  if (poisoned_) {
    throw std::runtime_error(
        "mpisim: persistent world poisoned by an earlier job failure; "
        "rebuild the world before running more jobs");
  }
  const std::vector<PerfCounters> before = world_->all_counters();
  const CommMatrix matrix_before = world_->comm_matrix();

  if (size_ == 1) {
    // Inline, like run_world's single-rank path; restore the caller's tag.
    const int previous_rank = util::current_rank();
    util::set_current_rank(0);
    Comm comm(*world_, 0);
    try {
      fn(comm);
      comm.flush_sends();
    } catch (...) {
      util::set_current_rank(previous_rank);
      poisoned_ = true;
      world_->fail_all();
      throw;
    }
    util::set_current_rank(previous_rank);
  } else {
    {
      std::scoped_lock lock(mutex_);
      job_ = &fn;
      running_ = size_;
      ++generation_;
    }
    job_cv_.notify_all();
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    if (first_error_) {
      poisoned_ = true;
      std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

  ++jobs_run_;
  return job_delta(before, matrix_before);
}

}  // namespace tricount::mpisim
