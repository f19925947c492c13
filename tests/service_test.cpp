// Resident-service suite (`ctest -L service`): wire protocol, hardened
// JSON parsing (seeded fuzz), admission/backpressure, the versioned LRU
// result cache, batched-vs-unbatched byte equivalence, the
// served-equals-library equivalence corpus, the warm-vs-cold speedup
// acceptance gate, graceful-shutdown signal handling, and
// tricount.service.v1 artifact linting.
//
// Services here run with manual_dispatch: submit() parses and admits,
// the test thread drives dispatch_once()/drain(), and every response
// lands in a plain vector — no dispatcher thread, fully deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "test_corpus.hpp"
#include "test_seed.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/core/dist_truss.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/approx.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/obs/graceful.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/service/service.hpp"
#include "tricount/util/rng.hpp"
#include "tricount/util/time.hpp"

namespace tricount {
namespace {

using obs::json::ParseError;
using obs::json::ParseLimits;
using obs::json::Value;

/// A service plus a response log, for driving sessions in tests.
struct Harness {
  explicit Harness(service::ServiceOptions options = {})
      : svc(
            [&options] {
              options.manual_dispatch = true;
              return options;
            }(),
            [this](const std::string& line) { responses.push_back(line); }) {}

  /// Submits one request line and drains the queue.
  const std::string& ask(const std::string& line) {
    svc.submit(line);
    svc.drain();
    return responses.back();
  }

  /// Parses a response and returns the `result` object (asserting ok).
  Value result(const std::string& line) {
    Value doc = Value::parse(line);
    EXPECT_TRUE(doc.get("ok").as_bool()) << line;
    return doc;
  }

  std::vector<std::string> responses;
  service::Service svc;
};

std::string count_request(std::uint64_t id, const std::string& algo,
                          const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) +
         ",\"verb\":\"count\",\"params\":{\"algo\":\"" + algo + "\"" + extra +
         "}}";
}

graph::TriangleCount served_triangles(Harness& h, const std::string& line) {
  Value doc = h.result(h.ask(line));
  return static_cast<graph::TriangleCount>(
      doc.get("result").get("triangles").as_uint());
}

std::filesystem::path scratch_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tricount_service_test_" + std::string(tag));
  std::filesystem::create_directories(dir);
  return dir;
}

// --- wire protocol -------------------------------------------------------

TEST(ServiceProtocol, EnvelopeValidation) {
  const service::WireLimits limits;
  EXPECT_FALSE(service::parse_request("not json", limits).ok);
  EXPECT_FALSE(service::parse_request("[1,2]", limits).ok);
  EXPECT_FALSE(service::parse_request("{\"verb\":\"x\"}", limits).ok);
  EXPECT_FALSE(
      service::parse_request("{\"id\":-1,\"verb\":\"x\"}", limits).ok);
  EXPECT_FALSE(
      service::parse_request("{\"id\":1.5,\"verb\":\"x\"}", limits).ok);
  EXPECT_FALSE(service::parse_request("{\"id\":1}", limits).ok);
  EXPECT_FALSE(
      service::parse_request("{\"id\":1,\"verb\":\"x\",\"params\":3}", limits)
          .ok);

  const auto ok =
      service::parse_request("{\"id\":7,\"verb\":\"count\"}", limits);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.request.id, 7u);
  EXPECT_EQ(ok.request.verb, "count");
  EXPECT_EQ(ok.request.canonical_params, "{}");
}

TEST(ServiceProtocol, CanonicalParamsIgnoreKeyOrder) {
  const service::WireLimits limits;
  const auto a = service::parse_request(
      "{\"id\":1,\"verb\":\"count\",\"params\":{\"algo\":\"2d\","
      "\"overlap\":true}}",
      limits);
  const auto b = service::parse_request(
      "{\"id\":2,\"verb\":\"count\",\"params\":{\"overlap\":true,"
      "\"algo\":\"2d\"}}",
      limits);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.request.canonical_params, b.request.canonical_params);
}

TEST(ServiceProtocol, CanonicalParamsNormalizeNumericSpellings) {
  // Numerically equal params must canonicalize to the SAME key bytes no
  // matter how the client spelled them — `1`, `1.0`, `1e0`, `1.000` are
  // one number, and a cache keyed on the lexeme would fragment (cold
  // recomputes for warm queries) or, worse, split hit accounting across
  // aliases. Locked here at the protocol layer.
  const service::WireLimits limits;
  const auto canonical = [&](const std::string& lexeme) {
    const auto out = service::parse_request(
        "{\"id\":1,\"verb\":\"count\",\"params\":{\"q\":" + lexeme + "}}",
        limits);
    EXPECT_TRUE(out.ok) << lexeme;
    return out.request.canonical_params;
  };
  const std::string one = canonical("1");
  EXPECT_EQ(canonical("1.0"), one);
  EXPECT_EQ(canonical("1e0"), one);
  EXPECT_EQ(canonical("1.000"), one);
  EXPECT_EQ(canonical("10e-1"), one);
  const std::string half = canonical("0.5");
  EXPECT_EQ(canonical("5e-1"), half);
  EXPECT_EQ(canonical("0.50"), half);
  EXPECT_NE(half, one);
  // Distinct numbers must stay distinct even when they round-print alike.
  EXPECT_NE(canonical("2"), one);
}

TEST(ServiceProtocol, TypedLimitErrors) {
  service::WireLimits limits;
  limits.max_bytes = 64;
  limits.max_depth = 4;

  const std::string big = "{\"id\":1,\"verb\":\"count\",\"params\":{\"pad\":\"" +
                          std::string(100, 'x') + "\"}}";
  auto out = service::parse_request(big, limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, service::ErrorCode::kTooLarge);

  out = service::parse_request(
      "{\"id\":1,\"verb\":\"x\",\"params\":{\"a\":[[[1]]]}}", limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, service::ErrorCode::kTooDeep);

  out = service::parse_request("{\"id\":1,\"verb\":\"x\",\"par", limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, service::ErrorCode::kTruncated);
}

// --- hardened JSON parsing (satellite: obs/json) -------------------------

TEST(ServiceJsonHardening, LimitsAreTyped) {
  ParseLimits limits;
  limits.max_bytes = 32;
  try {
    Value::parse(std::string(64, ' ') + "1", limits);
    FAIL() << "oversized document accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTooLarge);
  }

  limits = ParseLimits{};
  limits.max_depth = 3;
  try {
    Value::parse("[[[[1]]]]", limits);
    FAIL() << "over-deep document accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTooDeep);
  }
  // At the limit is fine.
  EXPECT_NO_THROW(Value::parse("[[[1]]]", limits));

  try {
    Value::parse("{\"a\": \"unterminated", ParseLimits{});
    FAIL() << "truncated document accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTruncated);
  }
}

TEST(ServiceJsonHardening, SeededFuzzNeverCrashes) {
  // Three generators — random bytes, truncations of a valid document,
  // and byte mutations of a valid document — under tight limits. The
  // parser must either return a value or throw ParseError; anything
  // else (crash, other exception type) fails the test.
  util::Xoshiro256 rng(test_support::fuzz_seed() ^ 0x5e41ce);
  ParseLimits limits;
  limits.max_bytes = 4096;
  limits.max_depth = 8;
  const std::string seed_doc =
      "{\"id\":12,\"verb\":\"count\",\"params\":{\"algo\":\"2d\","
      "\"list\":[1,2.5,-3,true,false,null,\"s\\u00e9q\"],\"nested\":"
      "{\"a\":{\"b\":[]}}}}";
  const char alphabet[] = "{}[]\",:0123456789.eE+-truefalsnul \\x\t\n";

  auto try_parse = [&](const std::string& text) {
    try {
      (void)Value::parse(text, limits);
    } catch (const ParseError&) {
      // expected failure class
    }
  };

  for (int round = 0; round < 400; ++round) {
    std::string doc;
    const std::size_t len = rng.bounded(96);
    for (std::size_t i = 0; i < len; ++i) {
      doc += alphabet[rng.bounded(sizeof alphabet - 1)];
    }
    try_parse(doc);
  }
  for (std::size_t cut = 0; cut <= seed_doc.size(); ++cut) {
    try_parse(seed_doc.substr(0, cut));
  }
  for (int round = 0; round < 400; ++round) {
    std::string doc = seed_doc;
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips; ++f) {
      doc[rng.bounded(doc.size())] =
          static_cast<char>(32 + rng.bounded(95));
    }
    try_parse(doc);
  }
}

// --- result cache --------------------------------------------------------

TEST(ServiceCache, LruAccounting) {
  service::ResultCache cache(2);
  const std::string a = service::ResultCache::key(1, "count", "{}");
  const std::string b = service::ResultCache::key(1, "count", "{\"x\":1}");
  const std::string c = service::ResultCache::key(2, "count", "{}");
  EXPECT_NE(a, c) << "graph version must be part of the key";

  EXPECT_FALSE(cache.get(a).has_value());
  cache.put(a, "ra");
  cache.put(b, "rb");
  ASSERT_TRUE(cache.get(a).has_value());  // a is now MRU
  cache.put(c, "rc");                     // evicts b (LRU)
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_EQ(cache.get(a).value_or(""), "ra");
  EXPECT_EQ(cache.get(c).value_or(""), "rc");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);

  cache.invalidate_all();
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ServiceCache, CapacityZeroDisables) {
  service::ResultCache cache(0);
  cache.put("k", "v");
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// --- admission queue -----------------------------------------------------

TEST(ServiceAdmission, BoundedQueueSheds) {
  service::AdmissionQueue queue(2);
  service::Pending pending;
  EXPECT_TRUE(queue.try_push(pending));
  EXPECT_TRUE(queue.try_push(pending));
  EXPECT_FALSE(queue.try_push(pending)) << "third push must shed";
  EXPECT_EQ(queue.stats().admitted, 2u);
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(queue.stats().max_depth, 2u);

  EXPECT_EQ(queue.pop_batch(8).size(), 2u);
  EXPECT_TRUE(queue.try_push(pending)) << "space again after the pop";
  queue.stop();
  EXPECT_FALSE(queue.try_push(pending)) << "stopped queue refuses";
  EXPECT_EQ(queue.pop_batch(8).size(), 1u) << "backlog drains after stop";
  EXPECT_TRUE(queue.pop_batch(8).empty()) << "stopped and drained";
}

TEST(ServiceAdmission, ServiceShedsWithTypedError) {
  service::ServiceOptions options;
  options.ranks = 1;
  options.queue_depth = 2;
  Harness h(options);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    h.svc.submit("{\"id\":" + std::to_string(id) + ",\"verb\":\"hello\"}");
  }
  // The three rejected lines were answered inline, before any dispatch.
  ASSERT_EQ(h.responses.size(), 3u);
  for (const std::string& line : h.responses) {
    Value doc = Value::parse(line);
    EXPECT_FALSE(doc.get("ok").as_bool());
    EXPECT_EQ(doc.get("error").get("code").as_string(), "shed");
  }
  h.svc.drain();
  EXPECT_EQ(h.responses.size(), 5u);

  const auto counters = h.svc.counters();
  EXPECT_EQ(counters.requests, 5u);
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.shed, 3u);
}

// --- cache behaviour through the service ---------------------------------

TEST(ServiceCacheFlow, HitSkipsCountingAndVersionBumpInvalidates) {
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  const graph::TriangleCount expected = test_support::corpus()[0].expected;
  EXPECT_EQ(h.svc.graph_version(), 1u);

  const std::uint64_t jobs_before = h.svc.jobs_run();
  EXPECT_EQ(served_triangles(h, count_request(1, "2d")), expected);
  EXPECT_GT(h.svc.jobs_run(), jobs_before) << "miss must run a job";

  // Same query again: a cache hit — byte-identical except the id, no
  // SPMD job, and the record reports zero counting supersteps.
  const std::uint64_t jobs_after_miss = h.svc.jobs_run();
  EXPECT_EQ(served_triangles(h, count_request(2, "2d")), expected);
  EXPECT_EQ(h.svc.jobs_run(), jobs_after_miss)
      << "cache hit must not run a counting job";
  EXPECT_EQ(h.svc.cache_stats().hits, 1u);
  const service::RequestRecord& hit = h.svc.records().back();
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(hit.supersteps, 0u)
      << "a cache hit answers without any counting superstep";

  // Reloading the graph bumps the version and invalidates: the same
  // query is a miss again even though the bytes would still be right.
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  EXPECT_EQ(h.svc.graph_version(), 2u);
  EXPECT_GE(h.svc.cache_stats().invalidations, 1u);
  EXPECT_EQ(served_triangles(h, count_request(3, "2d")), expected);
  EXPECT_EQ(h.svc.records().back().cache, "miss");
  EXPECT_EQ(h.svc.cache_stats().hits, 1u) << "no hit across versions";
}

TEST(ServiceCacheFlow, EvictionPastCapacity) {
  service::ServiceOptions options;
  options.cache_capacity = 2;
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[1].graph, "corpus1");

  served_triangles(h, count_request(1, "2d"));
  served_triangles(h, count_request(1, "2d", ",\"kernel\":\"merge\""));
  served_triangles(h, count_request(1, "2d", ",\"kernel\":\"hash\""));
  EXPECT_EQ(h.svc.cache_stats().evictions, 1u);
  // The first (LRU) entry is gone: asking again is a miss, not a hit.
  served_triangles(h, count_request(2, "2d"));
  EXPECT_EQ(h.svc.records().back().cache, "miss");
}

TEST(ServiceCacheFlow, GraphSwapVerbBumpsVersion) {
  Harness h;
  Value doc = h.result(h.ask(
      "{\"id\":1,\"verb\":\"graph.load\",\"params\":{\"generate\":"
      "{\"type\":\"ws\",\"n\":64,\"k\":6,\"beta\":0.1,\"seed\":3}}}"));
  EXPECT_EQ(doc.get("result").get("graph_version").as_uint(), 1u);
  const graph::TriangleCount first = served_triangles(h, count_request(2, "2d"));
  EXPECT_GT(first, 0u);

  doc = h.result(h.ask(
      "{\"id\":3,\"verb\":\"graph.swap\",\"params\":{\"generate\":"
      "{\"type\":\"er\",\"n\":128,\"edges\":512,\"seed\":9}}}"));
  EXPECT_EQ(doc.get("result").get("graph_version").as_uint(), 2u);
  EXPECT_EQ(h.svc.graph_version(), 2u);
  served_triangles(h, count_request(4, "2d"));
  EXPECT_EQ(h.svc.records().back().cache, "miss")
      << "swap must invalidate the old graph's entries";
}

TEST(ServiceCacheFlow, NumericSpellingsShareCacheEntries) {
  // Service-level face of the canonicalization regression: the same
  // approx query spelled with different numeric lexemes is ONE cache
  // entry — the 2nd..4th spellings all hit.
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  const auto approx = [](std::uint64_t id, const std::string& retention,
                         const std::string& seed) {
    return "{\"id\":" + std::to_string(id) +
           ",\"verb\":\"approx\",\"params\":{\"retention\":" + retention +
           ",\"seed\":" + seed + "}}";
  };
  h.result(h.ask(approx(1, "0.5", "7")));
  h.result(h.ask(approx(2, "5e-1", "7")));
  h.result(h.ask(approx(3, "0.50", "7.0")));
  h.result(h.ask(approx(4, "0.5", "7e0")));
  EXPECT_EQ(h.svc.cache_stats().hits, 3u)
      << "numerically equal params must share one cache entry";
  EXPECT_EQ(h.svc.cache_stats().size, 1u);
}

TEST(ServiceCacheFlow, SwapInsideBatchSkipsCacheForStaleAdmissions) {
  // A graph.swap queued AHEAD of an already-admitted count: the count
  // was admitted against the old version but executes against the new
  // graph. It must bypass the cache entirely (no stale hit, no put under
  // a mismatched key) and still serve the NEW graph's number.
  Harness h;
  const graph::EdgeList a = graph::watts_strogatz(64, 6, 0.1, 3);
  h.svc.load_graph(a, "ws64");
  const graph::TriangleCount t_a = served_triangles(h, count_request(1, "2d"));

  // Queue [count, swap, count] as ONE drained batch: both counts are
  // admitted at v1; the second executes at v2.
  h.svc.submit(count_request(2, "2d"));
  h.svc.submit(
      "{\"id\":3,\"verb\":\"graph.swap\",\"params\":{\"generate\":"
      "{\"type\":\"er\",\"n\":128,\"edges\":512,\"seed\":9}}}");
  h.svc.submit(count_request(4, "2d"));
  h.svc.drain();

  const graph::EdgeList b = graph::erdos_renyi(128, 512, 9);
  const graph::TriangleCount t_b =
      graph::count_triangles_serial(graph::Csr::from_edges(b));
  ASSERT_NE(t_a, t_b) << "test graphs must disagree to detect staleness";

  const auto& records = h.svc.records();
  ASSERT_GE(records.size(), 3u);
  const service::RequestRecord& stale_hit = records[records.size() - 3];
  const service::RequestRecord& skewed = records.back();
  EXPECT_EQ(stale_hit.id, 2u);
  EXPECT_EQ(stale_hit.cache, "hit") << "pre-swap count still matches v1";
  EXPECT_EQ(skewed.id, 4u);
  EXPECT_EQ(skewed.cache, "none")
      << "a version-skewed request must not touch the cache";
  Value last = Value::parse(h.responses.back());
  EXPECT_TRUE(last.get("ok").as_bool());
  EXPECT_EQ(last.get("result").get("triangles").as_uint(), t_b)
      << "the skewed count must serve the NEW graph's triangles";

  // The skewed execution must not have poisoned either version's key:
  // the next same-shape query is a clean miss, then a clean hit.
  EXPECT_EQ(served_triangles(h, count_request(5, "2d")), t_b);
  EXPECT_EQ(h.svc.records().back().cache, "miss");
  EXPECT_EQ(served_triangles(h, count_request(6, "2d")), t_b);
  EXPECT_EQ(h.svc.records().back().cache, "hit");
}

TEST(ServiceCacheFlow, SwapUnderLoadNeverServesStaleCounts) {
  // Concurrent regression for the same race: one thread streams count
  // requests while the driving thread interleaves graph.swap requests
  // between two graphs with different triangle totals. Every served
  // count must be one of the two true totals, version-skewed requests
  // bypass the cache, and after the dust settles a fresh count serves
  // exactly the final graph's number.
  Harness h;
  const graph::EdgeList a = graph::watts_strogatz(64, 6, 0.1, 3);
  const graph::EdgeList b = graph::erdos_renyi(128, 512, 9);
  const graph::TriangleCount t_a =
      graph::count_triangles_serial(graph::Csr::from_edges(a));
  const graph::TriangleCount t_b =
      graph::count_triangles_serial(graph::Csr::from_edges(b));
  ASSERT_NE(t_a, t_b);
  h.svc.load_graph(a, "ws64");

  // submit() is thread-safe; all execution stays on this thread via
  // drain(), so the response log needs no locking.
  std::thread counter([&h] {
    for (std::uint64_t id = 100; id < 140; ++id) {
      h.svc.submit(count_request(id, "2d"));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const char* specs[2] = {
      "{\"type\":\"er\",\"n\":128,\"edges\":512,\"seed\":9}",
      "{\"type\":\"ws\",\"n\":64,\"k\":6,\"beta\":0.1,\"seed\":3}"};
  for (int swap = 0; swap < 10; ++swap) {
    h.svc.submit("{\"id\":" + std::to_string(swap + 1) +
                 ",\"verb\":\"graph.swap\",\"params\":{\"generate\":" +
                 specs[swap % 2] + "}}");
    h.svc.drain();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  counter.join();
  h.svc.drain();

  std::size_t shed = 0;
  for (const std::string& line : h.responses) {
    Value doc = Value::parse(line);
    if (!doc.get("ok").as_bool()) {
      ++shed;  // backpressure under load is fine; staleness is not
      continue;
    }
    if (doc.get("id").as_uint() < 100) continue;  // swap responses
    const graph::TriangleCount served = static_cast<graph::TriangleCount>(
        doc.get("result").get("triangles").as_uint());
    EXPECT_TRUE(served == t_a || served == t_b)
        << "served " << served << ", expected " << t_a << " or " << t_b;
  }
  EXPECT_LT(shed, h.responses.size()) << "some requests must have served";

  // Final state: ws graph (last swap used specs[1]); a fresh count must
  // serve its exact total, never a stale cached one.
  EXPECT_EQ(served_triangles(h, count_request(999, "2d")), t_a);
}

// --- batching ------------------------------------------------------------

std::map<std::uint64_t, std::string> run_session(
    service::ServiceOptions options, const std::vector<std::string>& lines) {
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[2].graph, "corpus2");
  for (const std::string& line : lines) h.svc.submit(line);
  h.svc.drain();
  std::map<std::uint64_t, std::string> by_id;
  for (const std::string& line : h.responses) {
    by_id[Value::parse(line).get("id").as_uint()] = line;
  }
  return by_id;
}

TEST(ServiceBatching, BatchedAndUnbatchedBytesIdentical) {
  // The same session through a coalescing service (all requests land in
  // one sweep) and a strictly serial one (max_batch 1): every response
  // must be byte-identical. Runs once with the cache on (duplicates are
  // hits) and once with it off (duplicates coalesce within the batch) —
  // the wire bytes must not depend on either knob.
  std::vector<std::string> lines;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    lines.push_back(count_request(id, "2d"));
  }
  lines.push_back(count_request(5, "cetric"));
  lines.push_back(count_request(6, "2d", ",\"kernel\":\"merge\""));
  lines.push_back(
      "{\"id\":7,\"verb\":\"approx\",\"params\":{\"retention\":0.5,"
      "\"seed\":11}}");
  lines.push_back("{\"id\":8,\"verb\":\"clustering\"}");
  lines.push_back("{\"id\":9,\"verb\":\"bogus\"}");

  for (const std::size_t cache_capacity : {std::size_t{128}, std::size_t{0}}) {
    service::ServiceOptions batched;
    batched.cache_capacity = cache_capacity;
    batched.max_batch = lines.size();
    service::ServiceOptions serial = batched;
    serial.max_batch = 1;
    serial.batching = false;

    const auto a = run_session(batched, lines);
    const auto b = run_session(serial, lines);
    ASSERT_EQ(a.size(), lines.size());
    ASSERT_EQ(b.size(), lines.size());
    for (const auto& [id, line] : a) {
      EXPECT_EQ(line, b.at(id))
          << "response bytes diverge for id=" << id
          << " cache_capacity=" << cache_capacity;
    }
  }
}

TEST(ServiceBatching, CoalescedDuplicatesSkipRecount) {
  // Cache off: duplicates within one sweep still compute once.
  service::ServiceOptions options;
  options.cache_capacity = 0;
  options.max_batch = 8;
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[3].graph, "corpus3");
  const std::uint64_t jobs_before = h.svc.jobs_run();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    h.svc.submit(count_request(id, "2d"));
  }
  h.svc.drain();
  EXPECT_EQ(h.svc.jobs_run(), jobs_before + 1)
      << "four identical queries in one sweep must count once";
  std::size_t coalesced = 0;
  for (const auto& row : h.svc.records()) {
    if (row.cache == "coalesced") {
      ++coalesced;
      EXPECT_EQ(row.supersteps, 0u);
    }
  }
  EXPECT_EQ(coalesced, 3u);
}

// --- served results equal the library (corpus equivalence) ---------------

TEST(ServiceEquivalence, ServedCountsMatchCorpusAcrossAlgorithms) {
  // Every corpus graph the cross-algorithm matrix already agrees on,
  // served through the wire protocol: 2D Cannon on the resident
  // partition across kernel policies, and every registered algorithm,
  // must all return the serial reference count.
  const char* kKernels[] = {"auto", "merge", "galloping", "bitmap", "hash"};
  for (std::size_t gi = 0; gi < test_support::corpus().size(); ++gi) {
    const auto& entry = test_support::corpus()[gi];
    Harness h;
    h.svc.load_graph(entry.graph, "corpus" + std::to_string(gi));
    std::uint64_t id = 0;
    for (const char* kernel : kKernels) {
      const std::string extra =
          ",\"kernel\":\"" + std::string(kernel) + "\"";
      EXPECT_EQ(served_triangles(h, count_request(++id, "2d", extra)),
                entry.expected)
          << "graph=" << gi << " algo=2d kernel=" << kernel;
    }
    for (const std::string_view algo : core::algorithm_names()) {
      EXPECT_EQ(served_triangles(h, count_request(++id, std::string(algo))),
                entry.expected)
          << "graph=" << gi << " algo=" << algo;
    }
    EXPECT_EQ(served_triangles(h, count_request(++id, "2d",
                                                ",\"overlap\":true")),
              entry.expected)
        << "graph=" << gi << " algo=2d overlap";
  }
}

TEST(ServiceEquivalence, AnalyticsVerbsMatchLibraryCalls) {
  const auto& entry = test_support::corpus()[4];
  Harness h;
  h.svc.load_graph(entry.graph, "corpus4");
  const graph::EdgeList simplified = graph::simplify(entry.graph);

  // clustering == clustering_stats_2d
  Value doc = h.result(h.ask("{\"id\":1,\"verb\":\"clustering\"}"));
  const core::ClusteringStats stats = core::clustering_stats_2d(simplified, 4);
  EXPECT_EQ(doc.get("result").get("triangles").as_uint(),
            static_cast<std::uint64_t>(stats.triangles));
  EXPECT_DOUBLE_EQ(doc.get("result").get("transitivity").as_number(),
                   stats.transitivity);
  EXPECT_DOUBLE_EQ(
      doc.get("result").get("average_local_clustering").as_number(),
      stats.average_local_clustering);

  // pervertex top-k == the densest vertices of count_per_vertex_2d
  doc = h.result(
      h.ask("{\"id\":2,\"verb\":\"pervertex\",\"params\":{\"top\":3}}"));
  const core::PerVertexResult reference =
      core::count_per_vertex_2d(simplified, 4);
  EXPECT_EQ(doc.get("result").get("total_triangles").as_uint(),
            static_cast<std::uint64_t>(reference.total_triangles));
  const Value& top = doc.get("result").get("top");
  ASSERT_GE(top.size(), 1u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const auto v =
        static_cast<std::size_t>(top.at(i).get("vertex").as_uint());
    EXPECT_EQ(top.at(i).get("triangles").as_uint(),
              static_cast<std::uint64_t>(reference.counts.at(v)))
        << "pervertex rank " << i;
  }

  // approx with a pinned seed == the library call with the same seed
  doc = h.result(h.ask(
      "{\"id\":3,\"verb\":\"approx\",\"params\":{\"retention\":0.4,"
      "\"seed\":21}}"));
  const graph::ApproxCount approx =
      graph::approx_triangles_doulion(simplified, 0.4, 21);
  EXPECT_DOUBLE_EQ(doc.get("result").get("estimate").as_number(),
                   approx.estimate);
  EXPECT_EQ(h.svc.records().back().supersteps, 0u)
      << "approx runs no counting superstep";
}

TEST(ServiceEquivalence, AnalyticsVerbsReadTheMutatedGraphAfterApply) {
  // The analytic verbs count on the resident partition, which a delta
  // batch dirties: after graph.apply they must answer for the mutated
  // edge list, not the partition preprocessed at load.
  const auto& entry = test_support::corpus()[4];
  Harness h;
  h.svc.load_graph(entry.graph, "corpus4");
  const graph::EdgeList loaded = graph::simplify(entry.graph);
  const char* kVerbs[] = {
      R"({"id":1,"verb":"pervertex","params":{"top":10}})",
      R"({"id":2,"verb":"clustering"})",
      R"({"id":3,"verb":"support","params":{"top":10}})",
      R"({"id":4,"verb":"truss"})"};
  for (const char* line : kVerbs) h.result(h.ask(line));

  // Delete two edges that close triangles, insert one absent pair.
  const auto loaded_supports = graph::edge_supports(loaded);
  std::vector<graph::Edge> removed;
  for (std::size_t e = 0; e < loaded.edges.size() && removed.size() < 2; ++e) {
    if (loaded_supports[e] > 0) removed.push_back(loaded.edges[e]);
  }
  ASSERT_EQ(removed.size(), 2u);
  graph::Edge added{0, 1};
  while (std::binary_search(loaded.edges.begin(), loaded.edges.end(), added)) {
    ++added.v;
  }
  ASSERT_LT(added.v, loaded.num_vertices);
  std::string ops = "\"+" + std::to_string(added.u) + " " +
                    std::to_string(added.v) + "\"";
  graph::EdgeList mutated;
  mutated.num_vertices = loaded.num_vertices;
  mutated.edges.push_back(added);
  for (const graph::Edge& edge : loaded.edges) {
    if (std::find(removed.begin(), removed.end(), edge) == removed.end()) {
      mutated.edges.push_back(edge);
    }
  }
  for (const graph::Edge& edge : removed) {
    ops += ",\"-" + std::to_string(edge.u) + " " + std::to_string(edge.v) +
           "\"";
  }
  mutated = graph::simplify(std::move(mutated));
  h.result(h.ask(R"({"id":5,"verb":"graph.apply","params":{"ops":[)" + ops +
                 "]}}"));

  const core::PerVertexResult per_vertex =
      core::count_per_vertex_2d(mutated, 4);
  ASSERT_NE(per_vertex.total_triangles, entry.expected);
  Value doc = h.result(h.ask(kVerbs[0])).get("result");
  EXPECT_EQ(doc.get("total_triangles").as_uint(), per_vertex.total_triangles);
  const std::vector<graph::VertexId> top = per_vertex.top(10);
  ASSERT_EQ(doc.get("top").size(), top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(doc.get("top").at(i).get("vertex").as_uint(), top[i]);
    EXPECT_EQ(doc.get("top").at(i).get("triangles").as_uint(),
              per_vertex.counts[top[i]]);
  }

  const core::ClusteringStats stats = core::clustering_stats_2d(mutated, 4);
  doc = h.result(h.ask(kVerbs[1])).get("result");
  EXPECT_EQ(doc.get("triangles").as_uint(), stats.triangles);
  EXPECT_EQ(doc.get("wedges").as_uint(), stats.wedges);
  EXPECT_DOUBLE_EQ(doc.get("transitivity").as_number(), stats.transitivity);
  EXPECT_DOUBLE_EQ(doc.get("average_local_clustering").as_number(),
                   stats.average_local_clustering);

  const std::vector<graph::TriangleCount> supports =
      core::edge_supports_2d(mutated, 4);
  doc = h.result(h.ask(kVerbs[2])).get("result");
  EXPECT_EQ(doc.get("edges").as_uint(), supports.size());
  std::vector<std::size_t> order(supports.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return supports[a] > supports[b];
                   });
  ASSERT_EQ(doc.get("top").size(), std::min<std::size_t>(10, order.size()));
  for (std::size_t i = 0; i < doc.get("top").size(); ++i) {
    const Value& row = doc.get("top").at(i);
    EXPECT_EQ(row.get("u").as_uint(), mutated.edges[order[i]].u);
    EXPECT_EQ(row.get("v").as_uint(), mutated.edges[order[i]].v);
    EXPECT_EQ(row.get("support").as_uint(), supports[order[i]]);
  }

  const graph::KtrussResult truss = core::ktruss_2d(mutated, 4);
  doc = h.result(h.ask(kVerbs[3])).get("result");
  EXPECT_EQ(doc.get("max_k").as_number(), truss.max_k);
  ASSERT_EQ(doc.get("per_k").size(),
            static_cast<std::size_t>(std::max(truss.max_k - 2, 0)));
  for (int k = 3; k <= truss.max_k; ++k) {
    const auto edges = static_cast<std::uint64_t>(std::count_if(
        truss.trussness.begin(), truss.trussness.end(),
        [k](int t) { return t >= k; }));
    EXPECT_EQ(doc.get("per_k").at(static_cast<std::size_t>(k - 3))
                  .get("edges")
                  .as_uint(),
              edges)
        << "k=" << k;
  }
}

// --- warm-vs-cold acceptance gate ----------------------------------------

TEST(ServicePerformance, WarmServedCountBeatsColdCliTenfold) {
  // Acceptance criterion: on rmat_s8 at 4 ranks, a warm served count —
  // resident partition, cache MISS, so the √p counting supersteps do
  // run — must be at least 10x faster than a cold `tricount_cli count`
  // end-to-end (process start, graph read, preprocess, count). The CLI
  // path comes from ctest via TRICOUNT_CLI.
  const char* cli = std::getenv("TRICOUNT_CLI");
  if (cli == nullptr || *cli == '\0') {
    GTEST_SKIP() << "TRICOUNT_CLI not set (run via ctest)";
  }

  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 1;
  const graph::EdgeList rmat_s8 = graph::rmat(params);

  const auto dir = scratch_dir("perf");
  const auto graph_path = dir / "rmat_s8.mtx";
  graph::write_matrix_market(rmat_s8, graph_path.string());

  // Cold side: full CLI runs, best of 3 (best-of is the conservative
  // choice — it shrinks the cold time, so it can only make the gate
  // harder to pass).
  const std::string command = "cd " + dir.string() + " && " + cli +
                              " count --file " + graph_path.string() +
                              " --ranks 4 >/dev/null 2>&1";
  double cold_seconds = 1e9;
  for (int round = 0; round < 3; ++round) {
    const double start = util::wall_seconds();
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    cold_seconds = std::min(cold_seconds, util::wall_seconds() - start);
  }

  // Warm side: resident service with the cache disabled, so every
  // served count is a genuine miss that runs the counting supersteps.
  service::ServiceOptions options;
  options.cache_capacity = 0;
  Harness h(options);
  h.svc.load_graph(rmat_s8, "rmat_s8");
  const graph::TriangleCount expected = served_triangles(h, count_request(1, "2d"));
  double warm_seconds = 1e9;
  for (std::uint64_t id = 2; id <= 6; ++id) {
    const double start = util::wall_seconds();
    EXPECT_EQ(served_triangles(h, count_request(id, "2d")), expected);
    warm_seconds = std::min(warm_seconds, util::wall_seconds() - start);
  }
  for (const auto& row : h.svc.records()) {
    EXPECT_EQ(row.cache, "miss") << "warm timing must measure misses";
    EXPECT_GT(row.supersteps, 0u);
  }

  EXPECT_GE(cold_seconds, warm_seconds * 10.0)
      << "warm served count must be >=10x faster than cold CLI: cold="
      << cold_seconds << "s warm=" << warm_seconds << "s";
}

// --- graceful shutdown (satellite: obs/graceful) -------------------------

TEST(ServiceGraceful, SignalSetsFlagWithoutKilling) {
  obs::reset_shutdown_for_tests();
  obs::install_shutdown_handlers(obs::ShutdownMode::kFlagOnly);
  EXPECT_FALSE(obs::shutdown_requested());
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(obs::shutdown_requested())
      << "kFlagOnly must survive the signal and set the flag";
  EXPECT_EQ(obs::shutdown_signal(), SIGTERM);
  obs::reset_shutdown_for_tests();
  EXPECT_FALSE(obs::shutdown_requested());
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

TEST(ServiceGraceful, ShutdownVerbStopsAndShutdownDrains) {
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  h.svc.submit(count_request(1, "2d"));
  h.svc.submit("{\"id\":2,\"verb\":\"shutdown\"}");
  EXPECT_FALSE(h.svc.stop_requested()) << "not yet dispatched";
  h.svc.shutdown();  // drains the backlog even in manual mode
  EXPECT_TRUE(h.svc.stop_requested());
  EXPECT_EQ(h.responses.size(), 2u) << "both answers flushed on shutdown";
  h.svc.shutdown();  // idempotent
  EXPECT_EQ(h.responses.size(), 2u);
}

// --- session artifact ----------------------------------------------------

TEST(ServiceArtifact, MixedSessionLintsClean) {
  service::ServiceOptions options;
  options.queue_depth = 3;
  options.artifacts_dir = scratch_dir("artifact").string();
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[1].graph, "corpus1");

  // hits, misses, an unknown verb (admitted error), a parse reject, and
  // sheds — every disposition the lint rules reconcile.
  h.svc.submit(count_request(1, "2d"));
  h.svc.drain();
  h.svc.submit(count_request(2, "2d"));
  h.svc.drain();
  h.svc.submit("{\"id\":3,\"verb\":\"bogus\"}");
  h.svc.drain();
  h.svc.submit("{broken");
  h.svc.submit(count_request(4, "cetric"));
  h.svc.submit(count_request(5, "summa"));
  h.svc.submit("{\"id\":6,\"verb\":\"clustering\"}");
  h.svc.submit("{\"id\":7,\"verb\":\"hello\"}");  // queue_depth 3: shed
  h.svc.drain();

  const Value artifact = h.svc.session_artifact();
  const std::vector<std::string> violations = service::lint_service(artifact);
  EXPECT_TRUE(violations.empty())
      << "lint violations:\n  "
      << [&violations] {
           std::string joined;
           for (const auto& v : violations) joined += v + "\n  ";
           return joined;
         }();

  const std::string path = h.svc.write_session_artifact();
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(service::lint_service(obs::json::read_file(path)).empty());
}

TEST(ServiceArtifact, LintCatchesBrokenDocuments) {
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  served_triangles(h, count_request(1, "2d"));
  Value artifact = h.svc.session_artifact();
  ASSERT_TRUE(service::lint_service(artifact).empty());

  Value wrong_schema = Value::parse(artifact.dump());
  wrong_schema.set("schema", "tricount.metrics.v3");
  EXPECT_FALSE(service::lint_service(wrong_schema).empty());

  // The compact dump's first "requests" key is session.requests (the
  // requests array comes later); corrupt it and the counter
  // reconciliation must fire.
  std::string dump = artifact.dump();
  const std::string needle = "\"requests\":1,";
  const std::size_t at = dump.find(needle);
  ASSERT_NE(at, std::string::npos);
  dump.replace(at, needle.size(), "\"requests\":99,");
  EXPECT_FALSE(service::lint_service(Value::parse(dump)).empty());
}

}  // namespace
}  // namespace tricount
