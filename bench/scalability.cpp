// Scalability — cluster-size sweep (§5 claims MARP "is fully distributed
// and scalable"; the paper only measured 3-5 servers).
//
// Fixed per-server load, N = 3..11: how do lock time, total time, and
// per-write cost grow with the number of replicas? The quorum tour is
// (N+1)/2 sequential hops, so ALT should grow linearly in N uncontended.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;
  const std::vector<std::size_t> sizes{3, 5, 7, 9, 11};

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (std::size_t servers : sizes) {
    runner::ExperimentConfig config = bench::figure_config(servers, 200.0, 7000);
    config.workload.max_requests_per_server = 40;
    configs.push_back(config);
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  std::cout << "Scalability: cluster-size sweep (inter-arrival 200 ms per "
               "server, " << options.seeds << " seed(s))\n\n";
  metrics::Table table({"servers", "quorum", "ALT (ms)", "ATT (ms)",
                        "migrations/write", "msgs/write"});
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const auto& aggregate = aggregates[s];
    inconsistent |= bench::warn_if_inconsistent(aggregate, "N=" + std::to_string(sizes[s]));
    table.add_row({std::to_string(sizes[s]),
                   std::to_string((sizes[s] + 1) / 2),
                   metrics::with_ci(aggregate.alt_ms.mean(),
                                    aggregate.alt_ms.ci95_half_width(), 1),
                   metrics::with_ci(aggregate.att_ms.mean(),
                                    aggregate.att_ms.ci95_half_width(), 1),
                   metrics::Table::num(aggregate.migrations_per_write.mean(), 2),
                   metrics::Table::num(aggregate.messages_per_write.mean(), 1)});
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: ALT grows ~linearly with the quorum size\n"
               "(sequential migrations); messages per write grow ~2N from the\n"
               "UPDATE/COMMIT broadcasts — the scalability price of keeping\n"
               "coordination fully distributed.\n";
  return inconsistent ? 1 : 0;
}
