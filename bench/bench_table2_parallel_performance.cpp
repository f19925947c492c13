// Table 2 — "Parallel performance achieved using 16-169 MPI ranks":
// preprocessing (ppt), triangle counting (tct), and overall modeled
// parallel times per dataset and rank count, with speedups relative to
// the 16-rank baseline.
//
// Paper shape to reproduce: times fall as ranks grow; overall speedup at
// 169 ranks lands well below the expected 10.56 (the paper reports
// 3.06-6.93); tct scales better than ppt.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_table2_parallel_performance",
                       "Reproduces Table 2.");
  bench::add_common_options(args, /*default_scale=*/15,
                            "16,25,36,49,64,81,100,121,144,169");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  bench::banner(
      "Table 2: parallel performance, 16-169 ranks",
      "Modeled parallel time = per-shift max rank CPU + alpha-beta "
      "communication (see DESIGN.md). Speedups relative to the first rank "
      "count.");

  const auto ranks = bench::ranks_from_args(args);
  const int reps = static_cast<int>(args.get_int("reps"));
  core::RunOptions options;
  options.model = bench::model_from_args(args);
  options.config.kernel = bench::kernel_from_args(args);
  options.config.overlap = args.get_bool("overlap");
  bench::JsonReport report("table2_parallel_performance");

  for (const bench::Dataset& dataset :
       bench::paper_datasets(static_cast<int>(args.get_int("scale")))) {
    const graph::EdgeList g = graph::rmat(dataset.params);
    std::printf("\n--- %s (%u vertices, %zu edges) ---\n",
                dataset.name.c_str(), g.num_vertices, g.edges.size());
    util::Table table({"ranks", "expected", "ppt (ms)", "ppt spd",
                       "tct (ms)", "tct spd", "overall (ms)", "overall spd"});
    double base_ppt = 0.0;
    double base_tct = 0.0;
    double base_all = 0.0;
    int base_ranks = 0;
    graph::TriangleCount expected_triangles = 0;
    for (const int p : ranks) {
      if (mpisim::perfect_square_root(p) == 0) continue;
      options.chaos = bench::chaos_from_args(args, p);
      const core::RunResult r = bench::median_run("2d", g, p, options, reps);
      if (expected_triangles == 0) {
        expected_triangles = r.triangles;
      } else if (r.triangles != expected_triangles) {
        std::fprintf(stderr, "COUNT MISMATCH at ranks=%d\n", p);
        return 1;
      }
      const double ppt = r.pre_modeled_seconds() * 1e3;
      const double tct = r.tc_modeled_seconds() * 1e3;
      const double all = ppt + tct;
      report.add_record(dataset, r);
      if (base_ranks == 0) {
        base_ranks = p;
        base_ppt = ppt;
        base_tct = tct;
        base_all = all;
        table.row()
            .cell(static_cast<std::int64_t>(p))
            .dash()
            .cell(ppt, 2)
            .dash()
            .cell(tct, 2)
            .dash()
            .cell(all, 2)
            .dash();
        continue;
      }
      table.row()
          .cell(static_cast<std::int64_t>(p))
          .cell(static_cast<double>(p) / base_ranks, 2)
          .cell(ppt, 2)
          .cell(base_ppt / ppt, 2)
          .cell(tct, 2)
          .cell(base_tct / tct, 2)
          .cell(all, 2)
          .cell(base_all / all, 2);
    }
    table.print();
    bench::maybe_write_csv(table, args.get("csv"), dataset.name);
    std::printf("triangles: %llu (identical across all grids)\n",
                static_cast<unsigned long long>(expected_triangles));
  }
  report.maybe_write(args.get("json"));
  return 0;
}
