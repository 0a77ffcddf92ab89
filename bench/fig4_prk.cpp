// Figure 4 — "Percentages of requests whose lock is obtained by visiting K
// servers" (K = 3, 4, 5; N = 5).
//
// Paper §4: at high request rates (inter-arrival below ~45 ms) most agents
// must visit all 5 servers before they can claim the lock; as the rate
// drops, most locks are granted after visiting only (N+1)/2 = 3 servers.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;
  const std::vector<double> grid = bench::interarrival_grid(options.quick);
  constexpr std::size_t kServers = 5;

  std::cout << "Figure 4: PRK — % of requests acquiring the lock after visiting\n"
            << "K servers (N = 5, " << options.seeds << " seed(s) per point)\n\n";

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (double interarrival : grid) {
    configs.push_back(bench::figure_config(kServers, interarrival));
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  metrics::Table table(
      {"inter-arrival (ms)", "K=3 (%)", "K=4 (%)", "K=5 (%)", "dominant K"});
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto& aggregate = aggregates[g];
    inconsistent |= bench::warn_if_inconsistent(aggregate, "fig4 ia=" + std::to_string(grid[g]));
    std::vector<std::string> row{metrics::Table::num(grid[g], 0)};
    std::uint32_t dominant = 0;
    double dominant_pct = -1.0;
    for (std::uint32_t k = 3; k <= 5; ++k) {
      auto it = aggregate.prk.find(k);
      const double pct = it == aggregate.prk.end() ? 0.0 : it->second.mean();
      row.push_back(metrics::Table::num(pct, 1));
      if (pct > dominant_pct) {
        dominant_pct = pct;
        dominant = k;
      }
    }
    row.push_back(std::to_string(dominant));
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: the dominant K flips from 5 (heavy contention)\n"
               "to (N+1)/2 = 3 (light load) as inter-arrival time grows.\n";
  return inconsistent ? 1 : 0;
}
