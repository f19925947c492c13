// Figure 1 (a-d) — efficiency of ppt, tct, and overall per dataset,
// relative to the 4x4 (16-rank) grid: E(p) = 16*T16 / (p*Tp).
//
// Paper shape to reproduce: efficiency decays with rank count and the
// preprocessing curve decays faster than triangle counting.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_figure1_efficiency", "Reproduces Figure 1.");
  bench::add_common_options(args, /*default_scale=*/15,
                            "16,25,36,49,64,81,100,121,144,169");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  bench::banner("Figure 1: efficiency vs ranks (baseline: first grid)",
                "One sub-table per dataset; series are the figure's ppt / "
                "tct / overall curves.");

  const auto ranks = bench::ranks_from_args(args);
  const int reps = static_cast<int>(args.get_int("reps"));
  core::RunOptions options;
  options.model = bench::model_from_args(args);
  options.config.kernel = bench::kernel_from_args(args);
  options.config.overlap = args.get_bool("overlap");

  for (const bench::Dataset& dataset :
       bench::paper_datasets(static_cast<int>(args.get_int("scale")))) {
    const graph::EdgeList g = graph::rmat(dataset.params);
    std::printf("\n--- %s ---\n", dataset.name.c_str());
    util::Table table(
        {"ranks", "eff ppt", "eff tct", "eff overall"});
    double base_ppt = 0.0;
    double base_tct = 0.0;
    double base_all = 0.0;
    int base_ranks = 0;
    double ppt_eff_last = 0.0;
    double tct_eff_last = 0.0;
    for (const int p : ranks) {
      if (mpisim::perfect_square_root(p) == 0) continue;
      options.chaos = bench::chaos_from_args(args, p);
      const core::RunResult r = bench::median_run("2d", g, p, options, reps);
      const double ppt = r.pre_modeled_seconds();
      const double tct = r.tc_modeled_seconds();
      const double all = ppt + tct;
      if (base_ranks == 0) {
        base_ranks = p;
        base_ppt = ppt;
        base_tct = tct;
        base_all = all;
      }
      const double scale_factor =
          static_cast<double>(base_ranks) / static_cast<double>(p);
      ppt_eff_last = scale_factor * base_ppt / ppt;
      tct_eff_last = scale_factor * base_tct / tct;
      table.row()
          .cell(static_cast<std::int64_t>(p))
          .cell(ppt_eff_last, 3)
          .cell(tct_eff_last, 3)
          .cell(scale_factor * base_all / all, 3);
    }
    table.print();
    bench::maybe_write_csv(table, args.get("csv"), dataset.name);
    std::printf("shape check: tct efficiency (%.3f) %s ppt efficiency "
                "(%.3f) at the largest grid\n",
                tct_eff_last,
                tct_eff_last >= ppt_eff_last ? ">= (matches paper)"
                                             : "< (differs from paper)",
                ppt_eff_last);
  }
  return 0;
}
