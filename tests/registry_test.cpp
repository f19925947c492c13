// Tests for the algorithm registry (core::count_triangles): every
// registered name reproduces the serial count and yields a lint-clean
// metrics artifact, each counter accepts or
// rejects rank counts as documented, and an unknown name fails fast with
// the typed error — in the library, over the service wire, and at the CLI.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "test_corpus.hpp"
#include "tricount/core/artifacts.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/obs/analysis.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/service/service.hpp"

namespace tricount {
namespace {

graph::EdgeList small_rmat() {
  graph::RmatParams params;
  params.scale = 7;
  params.edge_factor = 6;
  params.seed = 5;
  return graph::rmat(params);
}

graph::TriangleCount serial(const graph::EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

TEST(Registry, NamesEveryDistributedCounter) {
  const std::vector<std::string_view> expected{"2d",  "cetric", "summa",
                                               "aop", "push",   "wedge"};
  EXPECT_EQ(core::algorithm_names(), expected);
}

TEST(Registry, EveryNameGivesTheSerialCount) {
  for (const test_support::CorpusEntry& entry : test_support::corpus()) {
    for (const std::string_view algo : core::algorithm_names()) {
      const core::RunResult r = core::count_triangles(algo, entry.graph, 4);
      EXPECT_EQ(r.triangles, entry.expected) << algo;
      EXPECT_EQ(r.algorithm, algo);
      EXPECT_EQ(r.ranks, 4);
      // Every counter's result feeds the shared artifact pipeline.
      EXPECT_EQ(obs::analysis::lint_metrics(core::build_run_metrics(r)),
                std::vector<std::string>{})
          << algo;
    }
  }
}

TEST(Registry, TwoDRejectsNonSquareRankCounts) {
  const graph::EdgeList g = small_rmat();
  for (const int ranks : {2, 3, 6, 8}) {
    try {
      (void)core::count_triangles("2d", g, ranks);
      FAIL() << "2d accepted " << ranks << " ranks";
    } catch (const core::UnknownAlgorithm&) {
      FAIL() << "a known name raised UnknownAlgorithm";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("perfect square"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Registry, CetricAcceptsAnyRankCount) {
  const graph::EdgeList g = small_rmat();
  const graph::TriangleCount expected = serial(g);
  for (const int ranks : {1, 2, 3, 5, 6, 7}) {
    EXPECT_EQ(core::count_triangles("cetric", g, ranks).triangles, expected)
        << "ranks=" << ranks;
  }
}

TEST(Registry, SummaRunsOnTheMostSquareGrid) {
  // ranks -> most-square qr x qc -> K = lcm(qr, qc) panel steps.
  const graph::EdgeList g = small_rmat();
  const graph::TriangleCount expected = serial(g);
  const std::pair<int, std::size_t> cases[] = {
      {1, 1}, {4, 2}, {6, 6}, {7, 7}, {12, 12}, {16, 4}};
  for (const auto& [ranks, panels] : cases) {
    const core::RunResult r = core::count_triangles("summa", g, ranks);
    EXPECT_EQ(r.triangles, expected) << "ranks=" << ranks;
    EXPECT_EQ(r.num_shifts(), panels) << "ranks=" << ranks;
  }
}

TEST(Registry, UnknownNameRaisesTheTypedError) {
  try {
    (void)core::count_triangles("nope", small_rmat(), 4);
    FAIL() << "unknown algorithm accepted";
  } catch (const core::UnknownAlgorithm& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
    for (const std::string_view algo : core::algorithm_names()) {
      EXPECT_NE(what.find(algo), std::string::npos) << what;
    }
  }
  // The typed error is still a std::invalid_argument for generic callers.
  EXPECT_THROW((void)core::count_triangles("", small_rmat(), 4),
               std::invalid_argument);
}

TEST(Registry, UnknownNameIsBadParamsOverTheWire) {
  service::ServiceOptions options;
  options.manual_dispatch = true;
  std::vector<std::string> responses;
  service::Service svc(options, [&](const std::string& line) {
    responses.push_back(line);
  });
  svc.load_graph(small_rmat(), "rmat");
  svc.submit(R"({"id":1,"verb":"count","params":{"algo":"nope"}})");
  svc.drain();
  ASSERT_EQ(responses.size(), 1u);
  const obs::json::Value doc = obs::json::Value::parse(responses.back());
  EXPECT_FALSE(doc.get("ok").as_bool()) << responses.back();
  const obs::json::Value& error = doc.get("error");
  EXPECT_EQ(error.get("code").as_string(), "bad_params") << responses.back();
  EXPECT_NE(error.get("message").as_string().find("nope"), std::string::npos)
      << responses.back();
}

TEST(Registry, CliUnknownAlgoExitsOne) {
  const char* cli = std::getenv("TRICOUNT_CLI");
  if (cli == nullptr || *cli == '\0') {
    GTEST_SKIP() << "TRICOUNT_CLI not set (run via ctest)";
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "tricount_registry_test";
  std::filesystem::create_directories(dir);
  const auto graph_path = dir / "rmat_s7.mtx";
  graph::write_matrix_market(small_rmat(), graph_path.string());
  for (const std::string args :
       {"count --algo nope --flight off", "count --enumeration bogus --flight off",
        "pervertex --top -3 --ranks 4"}) {
    const std::string command = std::string(cli) + " " + args + " --file " +
                                graph_path.string() + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
  }
}

}  // namespace
}  // namespace tricount
