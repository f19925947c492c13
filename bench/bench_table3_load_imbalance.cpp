// Table 3 — per-shift load imbalance of the triangle counting phase on
// the largest g500 surrogate (paper: 1.05 at 25 ranks, 1.14 at 36 ranks),
// plus the task-count imbalance the paper quotes as "less than 6%".
#include "common.hpp"

#include "tricount/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_table3_load_imbalance", "Reproduces Table 3.");
  bench::add_common_options(args, /*default_scale=*/15, "25,36");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const bench::Dataset dataset =
      bench::overhead_dataset(static_cast<int>(args.get_int("scale")));
  bench::banner("Table 3: per-shift runtime and load imbalance, " + dataset.name,
                "max / avg of per-rank compute time summed over shifts; "
                "paper reports 1.05 (25 ranks) and 1.14 (36 ranks).");

  const graph::EdgeList g = graph::rmat(dataset.params);
  const int reps = static_cast<int>(args.get_int("reps"));
  core::RunOptions options;
  options.model = bench::model_from_args(args);
  options.config.kernel = bench::kernel_from_args(args);
  options.config.overlap = args.get_bool("overlap");

  util::Table table({"ranks", "max runtime (ms)", "avg runtime (ms)",
                     "load imbalance", "task imbalance"});
  for (const int p : bench::ranks_from_args(args)) {
    if (mpisim::perfect_square_root(p) == 0) continue;
    options.chaos = bench::chaos_from_args(args, p);
    const core::RunResult r = bench::median_run("2d", g, p, options, reps);
    double max_total = 0.0;
    double avg_total = 0.0;
    for (std::size_t s = 0; s < r.num_shifts(); ++s) {
      max_total += r.shift_max_compute(s);
      avg_total += r.shift_avg_compute(s);
    }
    // Task-distribution imbalance: non-zero intersection tasks per rank.
    std::vector<std::uint64_t> tasks_per_rank;
    for (const core::RankStats& stats : r.per_rank) {
      tasks_per_rank.push_back(stats.kernel.intersection_tasks);
    }
    table.row()
        .cell(static_cast<std::int64_t>(p))
        .cell(max_total * 1e3, 3)
        .cell(avg_total * 1e3, 3)
        .cell(avg_total > 0 ? max_total / avg_total : 1.0, 3)
        .cell(util::load_imbalance<std::uint64_t>(tasks_per_rank), 3);
  }
  table.print();
  bench::maybe_write_csv(table, args.get("csv"));
  return 0;
}
