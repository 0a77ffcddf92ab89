// Ablation 1 — information sharing (gossip) and routing policy.
//
// The paper motivates two design choices: agents "tend to communicate with
// nearby replicas rather than distant ones" (cost-aware routing via the
// per-server routing tables of §3.2) and exchange locking information by
// leaving it at visited servers (§3.3). This ablation removes each on a
// clustered WAN, where routing order actually matters.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;

  struct Variant {
    const char* name;
    core::RoutingPolicy routing;
    bool gossip;
  };
  const std::vector<Variant> variants{
      {"cost-aware + gossip (paper)", core::RoutingPolicy::CostAware, true},
      {"cost-aware, no gossip", core::RoutingPolicy::CostAware, false},
      {"random routing + gossip", core::RoutingPolicy::Random, true},
      {"fixed-id routing + gossip", core::RoutingPolicy::ByServerId, true},
  };

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (const Variant& variant : variants) {
    // Below saturation (a WAN session costs ~200+ ms) so the variants show
    // per-session routing cost, not queueing noise.
    runner::ExperimentConfig config = bench::figure_config(5, 1200.0, 3000);
    config.network = runner::NetworkKind::Wan;
    config.drain = sim::SimTime::seconds(600);
    config.workload.duration = sim::SimTime::seconds(120);
    config.workload.max_requests_per_server = 40;
    config.marp.routing = variant.routing;
    config.marp.gossip = variant.gossip;
    configs.push_back(config);
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  std::cout << "Ablation 1: routing policy & gossip on a 3-cluster WAN (N = 5, "
            << options.seeds << " seed(s))\n\n";
  metrics::Table table({"variant", "ALT (ms)", "ATT (ms)", "migrations/write",
                        "wire KB/write"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& aggregate = aggregates[v];
    inconsistent |= bench::warn_if_inconsistent(aggregate, variants[v].name);
    table.add_row(
        {variants[v].name,
         metrics::with_ci(aggregate.alt_ms.mean(),
                          aggregate.alt_ms.ci95_half_width(), 1),
         metrics::with_ci(aggregate.att_ms.mean(),
                          aggregate.att_ms.ci95_half_width(), 1),
         metrics::Table::num(aggregate.migrations_per_write.mean(), 2),
         metrics::Table::num(aggregate.wire_bytes_per_write.mean() / 1024.0, 1)});
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: cost-aware routing visits cheap (intra-cluster)\n"
               "replicas first, lowering ALT vs. random/fixed orders; gossip\n"
               "trims migrations by letting agents decide with second-hand\n"
               "locking information.\n";
  return inconsistent ? 1 : 0;
}
