// §7.3 — "Quantifying the gains achieved by the optimizations": ablation
// of the triangle counting phase on the largest g500 surrogate.
//
// Paper numbers to shape-match:
//  * doubly-sparse traversal saves 10% (16 ranks) / 15% (100 ranks),
//  * modified hashing saves 1.2% (16 ranks) / 8.7% (100 ranks),
//  * the <j,i,k> enumeration scheme is 72.8% faster than <i,j,k>.
// Also ablated here: backward early exit and blob communication.
#include "common.hpp"

namespace {

double tct_seconds(const tricount::graph::EdgeList& graph, int ranks,
                   tricount::core::RunOptions options, int reps) {
  // Median of several runs to damp scheduler noise in the CPU samples.
  std::vector<double> times;
  for (int i = 0; i < std::max(1, reps); ++i) {
    times.push_back(tricount::core::count_triangles("2d", graph, ranks, options)
                        .tc_modeled_seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_section73_optimizations",
                       "Reproduces the §7.3 optimization ablation.");
  bench::add_common_options(args, /*default_scale=*/15, "16,100");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const bench::Dataset dataset =
      bench::overhead_dataset(static_cast<int>(args.get_int("scale")));
  bench::banner("Section 7.3: optimization ablations, " + dataset.name,
                "tct = modeled triangle counting time; reduction% = "
                "(ablated - full) / ablated.");

  const graph::EdgeList g = graph::rmat(dataset.params);
  const int reps = static_cast<int>(args.get_int("reps"));
  core::RunOptions base;
  base.model = bench::model_from_args(args);
  base.config.kernel = bench::kernel_from_args(args);
  base.config.overlap = args.get_bool("overlap");

  struct Ablation {
    const char* name;
    core::Config config;
  };
  std::vector<Ablation> ablations;
  {
    core::Config c;
    c.doubly_sparse = false;
    ablations.push_back({"no doubly-sparse traversal", c});
  }
  {
    core::Config c;
    c.modified_hashing = false;
    ablations.push_back({"no modified hashing", c});
  }
  {
    core::Config c;
    c.backward_early_exit = false;
    ablations.push_back({"no backward early exit", c});
  }
  {
    core::Config c;
    c.blob_comm = false;
    ablations.push_back({"no blob communication", c});
  }
  {
    core::Config c;
    c.enumeration = core::Enumeration::kIJK;
    ablations.push_back({"<i,j,k> enumeration (vs <j,i,k>)", c});
  }
  {
    core::Config c;
    c.degree_ordering = false;
    ablations.push_back({"no degree ordering (vs ordered)", c});
  }

  for (const int p : bench::ranks_from_args(args)) {
    if (mpisim::perfect_square_root(p) == 0) continue;
    std::printf("\n--- %d ranks ---\n", p);
    const double full = tct_seconds(g, p, base, reps);
    util::Table table({"configuration", "tct (ms)", "reduction by full opt"});
    table.row().cell("all optimizations (paper default)").cell(full * 1e3, 3).dash();
    for (const Ablation& ablation : ablations) {
      core::RunOptions options = base;
      options.config = ablation.config;
      options.config.kernel = base.config.kernel;
      options.config.overlap = base.config.overlap;
      const double ablated = tct_seconds(g, p, options, reps);
      const double pct = 100.0 * (ablated - full) / ablated;
      table.row()
          .cell(ablation.name)
          .cell(ablated * 1e3, 3)
          .cell(std::to_string(pct).substr(0, 5) + "%");
    }
    table.print();
    bench::maybe_write_csv(table, args.get("csv"), std::to_string(p) + "ranks");
  }
  return 0;
}
