// Table 4 — growth of the map-intersection task count with rank count
// (the algorithm's redundant work) on the largest g500 surrogate.
//
// Paper shape to reproduce: tasks grow ~25% from 16 to 25 ranks and ~20%
// from 25 to 36 ranks.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace tricount;

  util::ArgParser args("bench_table4_task_counts", "Reproduces Table 4.");
  bench::add_common_options(args, /*default_scale=*/15, "16,25,36");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const bench::Dataset dataset =
      bench::overhead_dataset(static_cast<int>(args.get_int("scale")));
  bench::banner("Table 4: map-intersection task growth, " + dataset.name,
                "tasks = intersection operations performed across all "
                "shifts and ranks; paper reports +25% then +20%.");

  const graph::EdgeList g = graph::rmat(dataset.params);
  core::RunOptions options;
  options.model = bench::model_from_args(args);
  options.config.kernel = bench::kernel_from_args(args);
  options.config.overlap = args.get_bool("overlap");

  util::Table table({"ranks", "task counts", "increase vs previous"});
  std::uint64_t previous = 0;
  for (const int p : bench::ranks_from_args(args)) {
    if (mpisim::perfect_square_root(p) == 0) continue;
    options.chaos = bench::chaos_from_args(args, p);
    // Task counts are deterministic; a single run suffices.
    const core::RunResult r = core::count_triangles("2d", g, p, options);
    const std::uint64_t tasks = r.total_kernel().intersection_tasks;
    if (previous == 0) {
      table.row().cell(static_cast<std::int64_t>(p)).cell(tasks).dash();
    } else {
      const double pct = 100.0 *
                         (static_cast<double>(tasks) - static_cast<double>(previous)) /
                         static_cast<double>(previous);
      table.row()
          .cell(static_cast<std::int64_t>(p))
          .cell(tasks)
          .cell(std::to_string(static_cast<long long>(pct + (pct >= 0 ? 0.5 : -0.5))) + "%");
    }
    previous = tasks;
  }
  table.print();
  bench::maybe_write_csv(table, args.get("csv"));
  return 0;
}
