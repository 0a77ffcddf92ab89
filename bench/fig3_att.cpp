// Figure 3 — "Average time for completing a request".
//
// Reproduces the paper's ATT metric: mean time from agent dispatch to
// COMMIT, i.e. ALT plus the UPDATE/ACK/COMMIT message rounds. The paper
// observes that the message-passing delay of that final phase is the
// dominant cost as the cluster grows; the Δ(ATT−ALT) column surfaces it.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;
  const std::vector<double> grid = bench::interarrival_grid(options.quick);
  const std::vector<std::size_t> cluster_sizes{3, 4, 5};

  std::cout << "Figure 3: ATT — average total update time (ms), mean ± 95% CI\n"
            << "(" << options.seeds << " seed(s) per point)\n\n";

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (std::size_t servers : cluster_sizes) {
    for (double interarrival : grid) {
      configs.push_back(bench::figure_config(servers, interarrival));
    }
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  metrics::Table table({"inter-arrival (ms)", "3 servers", "4 servers",
                        "5 servers", "msg-phase Δ (N=5)"});
  for (std::size_t g = 0; g < grid.size(); ++g) {
    std::vector<std::string> row{metrics::Table::num(grid[g], 0)};
    double att5 = 0.0, alt5 = 0.0;
    for (std::size_t s = 0; s < cluster_sizes.size(); ++s) {
      const auto& aggregate = aggregates[s * grid.size() + g];
      inconsistent |= bench::warn_if_inconsistent(
          aggregate, "fig3 N=" + std::to_string(cluster_sizes[s]) + " ia=" +
                         std::to_string(grid[g]));
      row.push_back(metrics::with_ci(aggregate.att_ms.mean(),
                                     aggregate.att_ms.ci95_half_width(), 1));
      if (cluster_sizes[s] == 5) {
        att5 = aggregate.att_ms.mean();
        alt5 = aggregate.alt_ms.mean();
      }
    }
    row.push_back(metrics::Table::num(att5 - alt5, 2));
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: ATT tracks Figure 2's ALT plus a messaging delta\n"
               "(UPDATE/ACK/COMMIT rounds); both fall as load lightens.\n";
  return inconsistent ? 1 : 0;
}
