// Figure 2 — "Average time for obtaining the lock by a mobile agent".
//
// Reproduces the paper's ALT metric: mean time from agent dispatch to the
// moment it holds the highest priority, swept over the mean request
// inter-arrival time, with one series per cluster size (3, 4, 5 servers).
// Expected shape (paper §4): ALT falls as the inter-arrival time grows
// (less lock contention), and larger clusters pay more.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;
  const std::vector<double> grid = bench::interarrival_grid(options.quick);
  const std::vector<std::size_t> cluster_sizes{3, 4, 5};

  std::cout << "Figure 2: ALT — average lock-acquisition time (ms), mean ± 95% CI\n"
            << "(" << options.seeds << " seed(s) per point)\n\n";

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (std::size_t servers : cluster_sizes) {
    for (double interarrival : grid) {
      configs.push_back(bench::figure_config(servers, interarrival));
    }
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  metrics::Table table({"inter-arrival (ms)", "3 servers", "4 servers", "5 servers"});
  for (std::size_t g = 0; g < grid.size(); ++g) {
    std::vector<std::string> row{metrics::Table::num(grid[g], 0)};
    for (std::size_t s = 0; s < cluster_sizes.size(); ++s) {
      const auto& aggregate = aggregates[s * grid.size() + g];
      inconsistent |= bench::warn_if_inconsistent(
          aggregate, "fig2 N=" + std::to_string(cluster_sizes[s]) + " ia=" +
                         std::to_string(grid[g]));
      row.push_back(metrics::with_ci(aggregate.alt_ms.mean(),
                                     aggregate.alt_ms.ci95_half_width(), 1));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: ALT should fall monotonically (modulo noise) as\n"
               "inter-arrival grows, and grow with the number of servers.\n";
  return inconsistent ? 1 : 0;
}
