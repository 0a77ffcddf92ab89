// Ablation 3 — fail-stop failures and recovery (§2's failure model).
//
// Sweeps the number of concurrently failed replicas (0..3 of 5) during the
// workload and reports success rate and latency: writes must keep
// committing while a majority survives, degrade to failure reports beyond
// that, and recover when servers come back.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;

  struct Scenario {
    const char* name;
    std::vector<runner::FailureEvent> failures;
  };
  auto at = [](double seconds) { return sim::SimTime::seconds(seconds); };
  const std::vector<Scenario> scenarios{
      {"no failures", {}},
      {"1 of 5 down", {{at(1.0), 4, true}}},
      {"2 of 5 down", {{at(1.0), 4, true}, {at(1.0), 3, true}}},
      {"3 of 5 down (no majority)",
       {{at(1.0), 4, true}, {at(1.0), 3, true}, {at(1.0), 2, true}}},
      {"crash at 1s, recover at 4s", {{at(1.0), 4, true}, {at(4.0), 4, false}}},
  };

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (const Scenario& scenario : scenarios) {
    // Light enough that a 4-of-5 cluster is not saturated, so the failure
    // scenarios show availability effects rather than queue growth.
    runner::ExperimentConfig config = bench::figure_config(5, 200.0, 5000);
    config.workload.max_requests_per_server = 40;
    config.workload.duration = sim::SimTime::seconds(8);
    config.failures = scenario.failures;
    config.drain = sim::SimTime::seconds(600);
    configs.push_back(config);
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  std::cout << "Ablation 3: MARP under fail-stop failures (N = 5, "
            << options.seeds << " seed(s))\n\n";
  metrics::Table table({"scenario", "committed", "failed", "success (%)",
                        "ATT of successes (ms)"});
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const auto& aggregate = aggregates[s];
    // Note: convergence is only audited on untouched servers, so even the
    // failure scenarios must report consistent.
    inconsistent |= bench::warn_if_inconsistent(aggregate, scenarios[s].name);
    const double total = static_cast<double>(aggregate.successful_writes +
                                             aggregate.failed_writes);
    table.add_row(
        {scenarios[s].name, std::to_string(aggregate.successful_writes),
         std::to_string(aggregate.failed_writes),
         metrics::Table::num(
             total == 0.0 ? 0.0
                          : 100.0 * static_cast<double>(
                                        aggregate.successful_writes) / total,
             1),
         metrics::with_ci(aggregate.att_ms.mean(),
                          aggregate.att_ms.ci95_half_width(), 1)});
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: success stays ~100% while a majority survives\n"
               "(requests lost with their origin server excepted), collapses\n"
               "for non-origin writes when 3 of 5 are down, and recovery\n"
               "restores full service.\n";
  return inconsistent ? 1 : 0;
}
