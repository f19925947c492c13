// Figure 2 — average operation rate (kOps/s) of the preprocessing and
// triangle counting phases across ranks, on the largest g500 surrogate.
//
// Paper shape to reproduce: preprocessing's rate keeps improving with
// more ranks, while the counting phase peaks early (25 ranks in the
// paper) and flattens/declines as redundant work and communication grow.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_figure2_operation_rate",
                       "Reproduces Figure 2.");
  bench::add_common_options(args, /*default_scale=*/15,
                            "16,25,36,49,64,81,100,121,144,169");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const bench::Dataset dataset =
      bench::overhead_dataset(static_cast<int>(args.get_int("scale")));
  bench::banner("Figure 2: operation rate (kOps/s), " + dataset.name,
                "ppt ops = adjacency entries processed; tct ops = hash "
                "lookups; rate = total ops / modeled phase time.");

  const graph::EdgeList g = graph::rmat(dataset.params);
  const int reps = static_cast<int>(args.get_int("reps"));
  core::RunOptions options;
  options.model = bench::model_from_args(args);
  options.config.kernel = bench::kernel_from_args(args);
  options.config.overlap = args.get_bool("overlap");

  util::Table table({"ranks", "ppt kOps/s", "tct kOps/s"});
  for (const int p : bench::ranks_from_args(args)) {
    if (mpisim::perfect_square_root(p) == 0) continue;
    options.chaos = bench::chaos_from_args(args, p);
    const core::RunResult r = bench::median_run("2d", g, p, options, reps);
    const double ppt_rate = static_cast<double>(r.pre_ops()) /
                            r.pre_modeled_seconds() / 1e3;
    const double tct_rate =
        static_cast<double>(r.tc_ops()) / r.tc_modeled_seconds() / 1e3;
    table.row()
        .cell(static_cast<std::int64_t>(p))
        .cell(ppt_rate, 1)
        .cell(tct_rate, 1);
  }
  table.print();
  bench::maybe_write_csv(table, args.get("csv"));
  return 0;
}
