// Flight recorder: an always-on, bounded, lock-free ring of fixed-size
// event records per rank (docs/observability.md), and the one live sink
// for spans and instants. Every ScopedSpan site (checkpoint, intersect,
// shift, recover, the collectives, ...) and every chaos fault instant
// lands here. The ring overwrites its oldest records and is built to be
// dumped at the moment of failure: chaos crash injection, the mpisim
// hang watchdog, and fatal signals all trigger an automatic dump in the
// `tricount.flight.v1` JSONL format, so the last few thousand events per
// rank survive exactly the runs that lose their post-mortem artifacts.
//
// Concurrency: rank threads write only their own ring (plus one trailing
// ring shared by non-rank threads, claimed per-slot via an atomic head),
// and each slot carries a seqlock so a dumper thread can snapshot every
// ring while the run is still writing. Torn slots are skipped, and the
// dump is sorted by timestamp.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "tricount/obs/json.hpp"

namespace tricount::obs {

/// One fixed-size flight record. Names and categories are truncated to
/// the inline buffers; all call sites pass short static strings.
struct FlightRecord {
  enum Kind : std::uint32_t { kBegin = 0, kEnd = 1, kInstant = 2,
                              kCounter = 3 };
  double ts_us = 0.0;
  std::uint32_t kind = kBegin;
  double value = 0.0;
  char name[40] = {};
  char cat[16] = {};
};

const char* to_string(FlightRecord::Kind kind);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// One ring per rank plus a trailing ring for non-rank threads
  /// (driver, watchdog). `capacity` is records per ring.
  explicit FlightRecorder(int ranks,
                          std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  int ranks() const { return ranks_; }
  std::size_t capacity() const { return capacity_; }

  /// Publishes this recorder as the process-wide current one. The
  /// recorder must outlive the run it observes.
  void install();
  void uninstall();
  static FlightRecorder* current();

  // --- recording (hot path; callers tolerate `current() == nullptr`) ----
  void span_begin(const char* name, const char* cat);
  void span_end(const char* name, const char* cat);
  void instant(const char* name, const char* cat, double value = 0.0);
  void counter(const char* name, const char* cat, double value);

  // --- dumping ----------------------------------------------------------
  /// Writes one `tricount.flight.v1` JSONL file per ring into `dir`
  /// (created if missing): flight-r000.jsonl ... plus flight-world.jsonl
  /// for the non-rank ring. Returns the paths written. Safe to call from
  /// any thread while ranks keep recording.
  std::vector<std::string> dump(const std::string& dir,
                                const std::string& reason);

  /// Arms automatic dumps into `dir`; empty disables them.
  void set_auto_dump_dir(const std::string& dir);
  /// First trigger wins: dumps into the armed directory at most once per
  /// recorder, so a crash cascade doesn't overwrite the first (most
  /// informative) dump. No-op when no directory is armed. Never throws.
  void try_auto_dump(const char* reason) noexcept;
  bool auto_dumped() const { return auto_dumped_.load(); }

  /// Installs fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
  /// SIGILL) that try_auto_dump("signal:...") on the current recorder
  /// and re-raise. Best-effort by nature: the dump path is not
  /// async-signal-safe, which is an accepted trade for a crash artifact
  /// that usually survives. Idempotent; process-wide.
  static void install_signal_handlers();

 private:
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    FlightRecord record;
  };
  struct Ring {
    std::atomic<std::uint64_t> head{0};
    std::vector<Slot> slots;
  };

  Ring& ring_for_caller();
  void record(FlightRecord::Kind kind, const char* name, const char* cat,
              double value);
  /// Seqlock-consistent snapshot of one ring, oldest first, sorted by
  /// timestamp; torn or never-written slots are skipped.
  std::vector<FlightRecord> snapshot(const Ring& ring,
                                     std::uint64_t& recorded,
                                     std::uint64_t& dropped) const;

  int ranks_ = 0;
  std::size_t capacity_ = 0;
  double epoch_seconds_ = 0.0;
  std::vector<Ring> rings_;  // ranks_ + 1, trailing = non-rank threads
  std::string auto_dump_dir_;
  std::atomic<bool> auto_dumped_{false};
  std::mutex dump_mutex_;
};

/// RAII span on the installed flight recorder; a no-op (one relaxed
/// atomic load) when none is installed.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : flight_(FlightRecorder::current()), name_(name), cat_(cat) {
    if (flight_ != nullptr) flight_->span_begin(name_, cat_);
  }
  ~ScopedSpan() {
    if (flight_ != nullptr) flight_->span_end(name_, cat_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  FlightRecorder* flight_;
  const char* name_;
  const char* cat_;
};

// --- tricount.flight.v1 files ---------------------------------------------

/// A parsed dump file: the header line plus one JSON object per record.
struct FlightDump {
  json::Value header;
  std::vector<json::Value> records;
};

/// Parses a JSONL flight dump. Throws std::runtime_error on I/O or JSON
/// errors (a malformed *line* is a lint violation, not a parse error,
/// only when the line is valid JSON of the wrong shape).
FlightDump read_flight_dump(const std::string& path);

/// Validates a dump against the tricount.flight.v1 invariants: header
/// schema and fields, known record kinds, non-empty names, non-negative
/// and non-decreasing timestamps. Returns human-readable violations
/// (empty = clean), capped like obs::lint_trace.
std::vector<std::string> lint_flight(const FlightDump& dump);

}  // namespace tricount::obs
