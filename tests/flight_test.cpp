// Flight-recorder + live-telemetry tests (docs/observability.md): the
// ring-buffer overwrite/dropped accounting, the tricount.flight.v1 dump
// and lint round trip, the two automatic dump triggers (chaos crash
// injection and the hang watchdog) against real runs, the chaos fault
// instants in a capture session's exit dump, the telemetry
// snapshot/publish/render path, and the quantile edge cases the
// telemetry views depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "test_seed.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/obs/capture.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/telemetry.hpp"
#include "tricount/util/build.hpp"

namespace tricount {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under the test temp root; dumps from earlier
/// runs of the same test must not satisfy this run's assertions.
std::string fresh_dump_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("flight_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::string> dump_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The last value carried by `kind`/`name` records in a dump, or -1.
double last_value(const obs::FlightDump& dump, const std::string& kind,
                  const std::string& name) {
  double last = -1.0;
  for (const obs::json::Value& rec : dump.records) {
    const obs::json::Value* k = rec.find("kind");
    const obs::json::Value* n = rec.find("name");
    const obs::json::Value* v = rec.find("value");
    if (k == nullptr || n == nullptr || v == nullptr) continue;
    if (k->as_string() == kind && n->as_string() == name) {
      last = v->as_number();
    }
  }
  return last;
}

bool has_record(const obs::FlightDump& dump, const std::string& kind,
                const std::string& name) {
  for (const obs::json::Value& rec : dump.records) {
    const obs::json::Value* k = rec.find("kind");
    const obs::json::Value* n = rec.find("name");
    if (k != nullptr && n != nullptr && k->as_string() == kind &&
        n->as_string() == name) {
      return true;
    }
  }
  return false;
}

// --- ring accounting -------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops) {
  const std::string dir = fresh_dump_dir("ring");
  obs::FlightRecorder recorder(/*ranks=*/1, /*capacity=*/8);
  // The test thread is not a rank thread, so these land in the trailing
  // "world" ring.
  for (int i = 0; i < 20; ++i) {
    recorder.counter("tick", "test", static_cast<double>(i));
  }
  const std::vector<std::string> written = recorder.dump(dir, "unit-test");
  ASSERT_EQ(written.size(), 2u);  // flight-r000.jsonl + flight-world.jsonl

  const obs::FlightDump world =
      obs::read_flight_dump(dir + "/flight-world.jsonl");
  EXPECT_TRUE(obs::lint_flight(world).empty());
  EXPECT_EQ(world.header.get("recorded").as_number(), 20.0);
  EXPECT_EQ(world.header.get("dropped").as_number(), 12.0);
  ASSERT_EQ(world.records.size(), 8u);
  // Oldest surviving record is tick 12; the newest is tick 19.
  EXPECT_EQ(world.records.front().get("value").as_number(), 12.0);
  EXPECT_EQ(world.records.back().get("value").as_number(), 19.0);

  // The rank ring never recorded: header-only dump, still lint-clean.
  const obs::FlightDump rank0 =
      obs::read_flight_dump(dir + "/flight-r000.jsonl");
  EXPECT_TRUE(obs::lint_flight(rank0).empty());
  EXPECT_TRUE(rank0.records.empty());
  EXPECT_EQ(rank0.header.get("reason").as_string(), "unit-test");
}

TEST(FlightRecorder, ScopedSpansFeedTheInstalledRecorder) {
  const std::string dir = fresh_dump_dir("spans");
  obs::FlightRecorder recorder(1, 32);
  recorder.install();
  {
    obs::ScopedSpan span("unit.work", "test");
  }
  recorder.uninstall();
  {
    // No recorder installed: the span is a no-op, not a crash.
    obs::ScopedSpan span("unit.ignored", "test");
  }
  recorder.dump(dir, "unit-test");
  const obs::FlightDump world =
      obs::read_flight_dump(dir + "/flight-world.jsonl");
  EXPECT_TRUE(has_record(world, "begin", "unit.work"));
  EXPECT_TRUE(has_record(world, "end", "unit.work"));
  EXPECT_FALSE(has_record(world, "begin", "unit.ignored"));
}

TEST(FlightRecorder, AutoDumpFiresOnceAndOnlyWhenArmed) {
  const std::string dir = fresh_dump_dir("auto");
  obs::FlightRecorder recorder(1, 8);
  // Unarmed: no directory, no dump.
  recorder.try_auto_dump("too-early");
  EXPECT_FALSE(recorder.auto_dumped());
  EXPECT_TRUE(dump_files(dir).empty());

  recorder.set_auto_dump_dir(dir);
  recorder.counter("tick", "test", 1.0);
  recorder.try_auto_dump("first");
  EXPECT_TRUE(recorder.auto_dumped());
  // Second trigger must not overwrite the first (most informative) dump.
  recorder.try_auto_dump("second");
  const obs::FlightDump world =
      obs::read_flight_dump(dir + "/flight-world.jsonl");
  EXPECT_EQ(world.header.get("reason").as_string(), "first");
}

// --- automatic dumps against real runs -------------------------------------

TEST(FlightRecorder, ChaosCrashDumpEndsAtTheCrashSuperstep) {
  const std::string dir = fresh_dump_dir("crash");
  const int ranks = 4;  // q = 2
  const int crash_step = 1;
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 7));

  chaos::FaultSpec spec;
  spec.seed = test_support::chaos_seed();
  spec.crash_superstep = crash_step;
  const auto plan = std::make_shared<const chaos::FaultPlan>(spec, ranks);

  obs::FlightRecorder recorder(ranks);
  recorder.set_auto_dump_dir(dir);
  recorder.install();
  core::RunOptions options;
  options.chaos = plan;
  const core::RunResult r = core::count_triangles_2d(g, ranks, options);
  recorder.uninstall();

  // The run still recovers and produces the exact count...
  EXPECT_EQ(r.triangles,
            graph::count_triangles_serial(graph::Csr::from_edges(g)));
  EXPECT_EQ(r.total_chaos().crashes, 1u);
  // ...but the crash armed an automatic dump at the moment of failure.
  ASSERT_TRUE(recorder.auto_dumped());
  ASSERT_EQ(dump_files(dir).size(), static_cast<std::size_t>(ranks) + 1);

  char name[32];
  std::snprintf(name, sizeof(name), "/flight-r%03d.jsonl",
                plan->crash_rank());
  const obs::FlightDump crashed = obs::read_flight_dump(dir + name);
  EXPECT_TRUE(obs::lint_flight(crashed).empty());
  EXPECT_EQ(crashed.header.get("reason").as_string(), "chaos-crash");
  // The crashing rank's stream ends at the failed superstep: its last
  // superstep counter and the chaos.crash marker both carry the step.
  EXPECT_EQ(last_value(crashed, "counter", "superstep"),
            static_cast<double>(crash_step));
  EXPECT_EQ(last_value(crashed, "instant", "chaos.crash"),
            static_cast<double>(crash_step));

  // Every per-rank dump in the directory lints clean.
  for (const std::string& file : dump_files(dir)) {
    EXPECT_TRUE(obs::lint_flight(obs::read_flight_dump(file)).empty())
        << file;
  }
}

TEST(FlightRecorder, WatchdogStallDumpsBeforeFailingTheWorld) {
  const std::string dir = fresh_dump_dir("stall");
  obs::FlightRecorder recorder(2);
  recorder.set_auto_dump_dir(dir);
  recorder.install();
  try {
    mpisim::WorldOptions options;
    options.watchdog_seconds = 0.2;
    mpisim::run_world(
        2,
        [](mpisim::Comm& comm) {
          // Classic deadlock: both ranks receive first.
          comm.recv_value<int>(1 - comm.rank(), 42);
        },
        options);
    FAIL() << "expected ChaosError";
  } catch (const mpisim::ChaosError& e) {
    EXPECT_EQ(e.kind(), mpisim::ChaosError::Kind::kWatchdogStall);
  }
  recorder.uninstall();

  ASSERT_TRUE(recorder.auto_dumped());
  const obs::FlightDump world =
      obs::read_flight_dump(dir + "/flight-world.jsonl");
  EXPECT_TRUE(obs::lint_flight(world).empty());
  EXPECT_EQ(world.header.get("reason").as_string(), "watchdog-stall");
  // The watchdog thread marks the stall in the world stream before
  // failing the blocked ranks.
  EXPECT_TRUE(has_record(world, "instant", "watchdog.stall"));
}

TEST(FlightRecorder, ExitDumpCarriesOneChaosDropInstantPerInjectedDrop) {
  const int ranks = 4;  // q = 2
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 5));

  struct Captured {
    core::RunResult result;
    std::size_t drops = 0;
    std::size_t chaos_records = 0;
  };
  // One capture session around a 2d count, with rings large enough never
  // to wrap: tallies the chaos.drop instants and all chaos-category
  // records across its exit dump.
  const auto capture = [&](const std::string& name,
                           std::shared_ptr<const chaos::FaultPlan> plan) {
    const std::string dir = fresh_dump_dir(name);
    obs::CaptureOptions options;
    options.ranks = ranks;
    options.flight_capacity = std::size_t{1} << 16;
    options.dump_dir = dir;
    options.dump_on_exit = true;
    options.shutdown = obs::ShutdownMode::kFlagOnly;
    Captured out;
    {
      const obs::CaptureSession session(options);
      core::RunOptions run;
      run.chaos = std::move(plan);
      out.result = core::count_triangles_2d(g, ranks, run);
    }
    const std::vector<std::string> files = dump_files(dir);
    EXPECT_EQ(files.size(), static_cast<std::size_t>(ranks) + 1);
    for (const std::string& file : files) {
      const obs::FlightDump dump = obs::read_flight_dump(file);
      EXPECT_TRUE(obs::lint_flight(dump).empty()) << file;
      EXPECT_EQ(dump.header.get("reason").as_string(), "exit") << file;
      EXPECT_EQ(dump.header.get("dropped").as_number(), 0.0) << file;
      for (const obs::json::Value& rec : dump.records) {
        if (rec.get("cat").as_string() == "chaos") ++out.chaos_records;
        if (rec.get("kind").as_string() == "instant" &&
            rec.get("name").as_string() == "chaos.drop") {
          ++out.drops;
        }
      }
    }
    return out;
  };

  chaos::FaultSpec spec;
  spec.seed = test_support::chaos_seed();
  spec.drop_rate = 0.1;
  spec.retry_timeout_seconds = 2e-3;
  const Captured faulty = capture(
      "drops", std::make_shared<const chaos::FaultPlan>(spec, ranks));
  const std::uint64_t injected = faulty.result.total_chaos().drops_injected;
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(faulty.drops, injected);

  // A fault-free run's dump carries no chaos records at all.
  const Captured clean = capture("nodrops", nullptr);
  EXPECT_EQ(clean.result.triangles, faulty.result.triangles);
  EXPECT_EQ(clean.chaos_records, 0u);
}

// --- live telemetry --------------------------------------------------------

TEST(Telemetry, SnapshotPublishesAndRendersAtomically) {
  obs::Telemetry telemetry(2);
  telemetry.rank(0).phase.store("tc", std::memory_order_relaxed);
  telemetry.rank(0).superstep.store(1, std::memory_order_relaxed);
  telemetry.rank(0).total_supersteps.store(2, std::memory_order_relaxed);
  telemetry.rank(0).triangles.store(42, std::memory_order_relaxed);
  telemetry.rank(1).graph_bytes.store(1024, std::memory_order_relaxed);

  const obs::json::Value snapshot = telemetry.snapshot_json();
  EXPECT_EQ(snapshot.get("schema").as_string(), "tricount.telemetry.v1");
  EXPECT_EQ(snapshot.get("ranks").as_number(), 2.0);
  EXPECT_EQ(snapshot.get("per_rank").size(), 2u);
  EXPECT_EQ(snapshot.get("totals").get("triangles").as_number(), 42.0);
  ASSERT_TRUE(snapshot.find("build") != nullptr);

  // publish() must round-trip through the filesystem with no tmp file
  // left behind.
  const std::string dir = fresh_dump_dir("telemetry");
  const std::string path = dir + "/live.json";
  telemetry.publish(path);
  const obs::json::Value reread = obs::json::read_file(path);
  EXPECT_EQ(reread.get("schema").as_string(), "tricount.telemetry.v1");
  EXPECT_EQ(dump_files(dir).size(), 1u);

  // The rendered table carries the per-rank rows; a wrong schema throws.
  const std::string rendered = obs::render_telemetry(reread);
  EXPECT_NE(rendered.find("tc"), std::string::npos);
  EXPECT_NE(rendered.find("1/2"), std::string::npos);
  obs::json::Value wrong;
  wrong.set("schema", "tricount.metrics.v2");
  EXPECT_THROW(obs::render_telemetry(wrong), std::runtime_error);
}

TEST(Telemetry, TracksALiveRunThroughCompletion) {
  const int ranks = 4;  // q = 2
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 11));
  obs::Telemetry telemetry(ranks);
  telemetry.install();
  const core::RunResult r = core::count_triangles_2d(g, ranks);
  telemetry.uninstall();

  std::uint64_t triangles = 0;
  for (int rank = 0; rank < ranks; ++rank) {
    const obs::RankTelemetry& t = telemetry.rank(rank);
    EXPECT_STREQ(t.phase.load(std::memory_order_relaxed), "done");
    // The final update parks superstep at total_supersteps.
    EXPECT_EQ(t.superstep.load(std::memory_order_relaxed), r.grid_q);
    EXPECT_EQ(t.total_supersteps.load(std::memory_order_relaxed), r.grid_q);
    EXPECT_GT(t.graph_bytes.load(std::memory_order_relaxed), 0u);
    EXPECT_GT(t.scratch_bytes.load(std::memory_order_relaxed), 0u);
    triangles += t.triangles.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(triangles, static_cast<std::uint64_t>(r.triangles));
}

// --- quantile edge cases (feeds tricount_top / the perf report) ------------

TEST(Metrics, QuantileEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  obs::Snapshot::HistogramValue empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  obs::Registry registry;
  obs::Histogram& h = registry.histogram("lat");
  h.observe(3.0);
  const obs::Snapshot::HistogramValue single =
      registry.snapshot().histograms.at("lat");
  EXPECT_EQ(single.quantile(0.0), 3.0);
  EXPECT_EQ(single.quantile(0.5), 3.0);
  EXPECT_EQ(single.quantile(1.0), 3.0);

  h.observe(1.0);
  h.observe(100.0);
  const obs::Snapshot::HistogramValue spread =
      registry.snapshot().histograms.at("lat");
  // q outside [0, 1] clamps to the exact extremes.
  EXPECT_EQ(spread.quantile(-0.5), 1.0);
  EXPECT_EQ(spread.quantile(0.0), 1.0);
  EXPECT_EQ(spread.quantile(1.0), 100.0);
  EXPECT_EQ(spread.quantile(1.5), 100.0);
  // Interior quantiles stay within the observed range.
  const double p50 = spread.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  // A NaN q propagates instead of picking an arbitrary bucket.
  EXPECT_TRUE(std::isnan(spread.quantile(nan)));

  // NaN samples are rejected: count and extremes are unchanged.
  h.observe(nan);
  const obs::Snapshot::HistogramValue after =
      registry.snapshot().histograms.at("lat");
  EXPECT_EQ(after.count, 3u);
  EXPECT_EQ(after.min, 1.0);
  EXPECT_EQ(after.max, 100.0);
}

// --- build provenance ------------------------------------------------------

TEST(BuildInfo, CarriesVersionCompilerAndOptions) {
  const obs::json::Value info = obs::build_info_json();
  for (const char* key :
       {"version", "git", "build_type", "compiler", "options"}) {
    const obs::json::Value* v = info.find(key);
    ASSERT_TRUE(v != nullptr) << key;
    EXPECT_TRUE(v->is_string()) << key;
  }
  EXPECT_FALSE(info.get("version").as_string().empty());
  EXPECT_FALSE(info.get("compiler").as_string().empty());

  const std::string summary = util::build_summary();
  EXPECT_NE(summary.find(info.get("version").as_string()),
            std::string::npos);
}

}  // namespace
}  // namespace tricount
