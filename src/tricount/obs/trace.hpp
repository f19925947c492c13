// Chrome trace-event container: the modeled run timeline written by
// `count --trace-out` and the input tricount_trace_lint validates.
//
// The modeled run trace (core/artifacts.hpp) is built after a run from
// the per-superstep samples, on a virtual timeline where superstep
// boundaries are aligned across ranks and communication spans are drawn
// from the α–β model, so the timeline totals match
// PhaseBreakdown::modeled_seconds exactly. Live spans and instants go to
// the flight recorder (flight.hpp), not here.
//
// The export format is the Chrome trace-event JSON array understood by
// chrome://tracing and Perfetto: one process, one "thread" per rank
// (tid = rank + 1; tid 0 is the modeled cross-rank summary timeline).
// See docs/observability.md for the schema.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tricount/obs/json.hpp"

namespace tricount::obs {

/// One exported event. `ph` is the trace-event phase: 'X' (complete span)
/// or 'i' (instant). Timestamps are microseconds, as the format requires.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< spans only
  std::vector<std::pair<std::string, double>> args;
};

/// An ordered collection of events plus thread naming, serializable to
/// (and parseable from) the Chrome trace-event JSON format.
class Trace {
 public:
  void set_thread_name(int tid, std::string name);
  void add_complete(int tid, std::string name, std::string cat, double ts_us,
                    double dur_us,
                    std::vector<std::pair<std::string, double>> args = {});
  void add_instant(int tid, std::string name, std::string cat, double ts_us);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::pair<int, std::string>>& thread_names() const {
    return thread_names_;
  }

  /// {"traceEvents": [...]} with metadata events for thread names.
  json::Value to_json() const;
  void write_file(const std::string& path) const;

  /// Rebuilds a Trace from to_json() output (or any trace file using the
  /// same subset). Throws std::runtime_error on schema violations.
  static Trace from_json(const json::Value& root);

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<int, std::string>> thread_names_;
};

/// Checks span invariants and returns human-readable violations (empty
/// means the trace is well formed): non-negative timestamps/durations,
/// known phase codes, and — per tid — spans that either nest properly or
/// are disjoint (no partial overlap).
std::vector<std::string> lint_trace(const Trace& trace);

}  // namespace tricount::obs
