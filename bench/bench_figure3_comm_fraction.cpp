// Figure 3 — fraction of each phase's modeled time spent in communication
// on the largest g500 surrogate.
//
// Paper shape to reproduce: computation dominates both phases for the
// large graph, but the communication fraction grows steadily with the
// number of ranks.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_figure3_comm_fraction", "Reproduces Figure 3.");
  bench::add_common_options(args, /*default_scale=*/15,
                            "16,25,36,49,64,81,100,121,144,169");
  args.add_option("algo", "2d",
                  "counting algorithm to sweep (core::algorithm_names(); "
                  "every name but 2d also runs non-square rank counts)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const std::string algo = args.get("algo");
  const auto& names = core::algorithm_names();
  if (std::find(names.begin(), names.end(), algo) == names.end()) {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }

  const bench::Dataset dataset =
      bench::overhead_dataset(static_cast<int>(args.get_int("scale")));
  bench::banner("Figure 3: communication fraction of phase time, " +
                    dataset.name +
                    (algo == "2d" ? "" : " (" + algo + ")"),
                "percentage of modeled phase time attributed to the "
                "alpha-beta communication term.");

  const graph::EdgeList g = graph::rmat(dataset.params);
  const int reps = static_cast<int>(args.get_int("reps"));
  core::RunOptions options;
  options.model = bench::model_from_args(args);
  options.config.kernel = bench::kernel_from_args(args);
  options.config.overlap = args.get_bool("overlap");

  util::Table table({"ranks", "ppt comm %", "tct comm %"});
  bench::JsonReport report("figure3_comm_fraction");
  double first_tct = -1.0;
  double last_tct = 0.0;
  for (const int p : bench::ranks_from_args(args)) {
    // The 2D pipeline needs a square grid; the other counters take any
    // rank count, so their sweeps keep the full schedule.
    if (algo == "2d" && mpisim::perfect_square_root(p) == 0) continue;
    options.chaos = bench::chaos_from_args(args, p);
    const core::RunResult r = bench::median_run(algo, g, p, options, reps);
    const double ppt_pct =
        100.0 * r.pre_modeled_comm_seconds() / r.pre_modeled_seconds();
    const double tct_pct =
        100.0 * r.tc_modeled_comm_seconds() / r.tc_modeled_seconds();
    if (first_tct < 0) first_tct = tct_pct;
    last_tct = tct_pct;
    obs::json::Value& record = report.add_record(dataset, r);
    record.set("ppt_comm_pct", ppt_pct);
    record.set("tct_comm_pct", tct_pct);
    table.row()
        .cell(static_cast<std::int64_t>(p))
        .cell(ppt_pct, 2)
        .cell(tct_pct, 2);
  }
  table.print();
  bench::maybe_write_csv(table, args.get("csv"));
  report.maybe_write(args.get("json"));
  std::printf("\nshape check: tct comm fraction grows from %.2f%% to %.2f%% "
              "across the sweep (%s)\n",
              first_tct, last_tct,
              last_tct > first_tct ? "matches paper" : "differs from paper");
  return 0;
}
