// Ablation 4 — request batching (§3.2: "After a pre-defined number of
// requests have been received or periodically, a mobile agent will be
// created and dispatched").
//
// Sweeps the batch size under contention: larger batches amortize one
// agent's quorum tour over several writes (fewer migrations and messages
// per write) at the price of batching delay in client latency.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;
  const std::vector<std::size_t> batch_sizes{1, 2, 4, 8};

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (std::size_t batch : batch_sizes) {
    runner::ExperimentConfig config = bench::figure_config(5, 45.0, 6000);
    config.marp.batch_size = batch;
    config.marp.batch_period = sim::SimTime::millis(60);
    config.workload.max_requests_per_server = 60;
    configs.push_back(config);
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  std::cout << "Ablation 4: batch size under contention (N = 5, inter-arrival "
               "45 ms, " << options.seeds << " seed(s))\n\n";
  metrics::Table table({"batch size", "client latency (ms)", "ATT (ms)",
                        "migrations/write", "msgs/write", "wire KB/write"});
  for (std::size_t b = 0; b < batch_sizes.size(); ++b) {
    const auto& aggregate = aggregates[b];
    inconsistent |= bench::warn_if_inconsistent(aggregate,
                                "batch=" + std::to_string(batch_sizes[b]));
    table.add_row(
        {std::to_string(batch_sizes[b]),
         metrics::with_ci(aggregate.client_latency_ms.mean(),
                          aggregate.client_latency_ms.ci95_half_width(), 1),
         metrics::with_ci(aggregate.att_ms.mean(),
                          aggregate.att_ms.ci95_half_width(), 1),
         metrics::Table::num(aggregate.migrations_per_write.mean(), 2),
         metrics::Table::num(aggregate.messages_per_write.mean(), 1),
         metrics::Table::num(aggregate.wire_bytes_per_write.mean() / 1024.0, 2)});
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: migrations and messages per write fall roughly\n"
               "as 1/batch; under contention batching also shortens client\n"
               "latency because fewer agents compete for the lock.\n";
  return inconsistent ? 1 : 0;
}
