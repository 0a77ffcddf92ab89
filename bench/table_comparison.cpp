// Table A — MARP vs. conventional message-passing replication protocols.
//
// The paper's central argument (§1, §5) is qualitative: mobile agents avoid
// the repeated message rounds of message-passing quorum protocols, giving
// lower message overhead and better response times in wide-area settings.
// This bench turns that argument into numbers: for each protocol it reports
// client latency, messages per committed write, total wire bytes per write
// (agent migrations included for MARP), and agent migrations per write —
// on both a LAN and an Internet-like WAN.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;

  const std::vector<runner::ProtocolKind> protocols{
      runner::ProtocolKind::Marp,          runner::ProtocolKind::MpMcv,
      runner::ProtocolKind::WeightedVoting, runner::ProtocolKind::AvailableCopy,
      runner::ProtocolKind::PrimaryCopy,   runner::ProtocolKind::Tsae};
  const std::vector<runner::NetworkKind> networks{runner::NetworkKind::Lan,
                                                  runner::NetworkKind::Wan};

  // Light-to-moderate contention, mixed read/write traffic (the paper
  // targets read-dominated workloads; reads exercise each protocol's read
  // path). The inter-arrival is chosen so even the WAN runs stay below
  // saturation — the comparison should measure mechanism cost, not queueing.
  auto base = bench::figure_config(5, 300.0, 2000);
  base.workload.write_fraction = 0.3;
  base.workload.max_requests_per_server = 80;

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (runner::NetworkKind network : networks) {
    for (runner::ProtocolKind protocol : protocols) {
      runner::ExperimentConfig config = base;
      config.network = network;
      config.protocol = protocol;
      if (network == runner::NetworkKind::Wan) {
        config.drain = sim::SimTime::seconds(600);
      }
      configs.push_back(config);
    }
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  std::cout << "Table A: protocol comparison (write fraction 0.3, N = 5, "
            << options.seeds << " seed(s))\n\n";
  metrics::Table table({"network", "protocol", "client latency (ms)",
                        "msgs/write", "wire KB/write", "migrations/write"});
  for (std::size_t n = 0; n < networks.size(); ++n) {
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      const auto& aggregate = aggregates[n * protocols.size() + p];
      const std::string where =
          std::string(runner::protocol_name(protocols[p])) +
          (networks[n] == runner::NetworkKind::Lan ? "/LAN" : "/WAN");
      inconsistent |= bench::warn_if_inconsistent(aggregate, "tableA " + where);
      table.add_row({networks[n] == runner::NetworkKind::Lan ? "LAN" : "WAN",
                     runner::protocol_name(protocols[p]),
                     metrics::with_ci(aggregate.client_latency_ms.mean(),
                                      aggregate.client_latency_ms.ci95_half_width(), 1),
                     metrics::Table::num(aggregate.messages_per_write.mean(), 1),
                     metrics::Table::num(
                         aggregate.wire_bytes_per_write.mean() / 1024.0, 1),
                     metrics::Table::num(aggregate.migrations_per_write.mean(), 1)});
    }
  }
  bench::print_table(table, options);
  std::cout << "\nShape check (paper §1/§5): MARP commits writes with fewer\n"
               "coordination messages than MP-MCV / weighted voting; its cost\n"
               "shifts into agent migrations (bytes), and the gap matters most\n"
               "on the WAN, where message rounds are expensive.\n"
               "Note: TSAE's msgs/write is dominated by its continuous\n"
               "background anti-entropy (traffic independent of the write\n"
               "rate, amortized here over few writes) — its per-write\n"
               "latency is the point, its gossip bill the price.\n";
  return inconsistent ? 1 : 0;
}
