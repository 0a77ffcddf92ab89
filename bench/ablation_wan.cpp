// Ablation 2 — LAN vs. Internet-like WAN.
//
// §4 conjectures: "message passing would incur larger overhead if the
// experiments were conducted in a wide-area network such as the Internet."
// The prototype never ran that experiment; this bench does. MARP and the
// message-passing MCV baseline run the same workload on the LAN mesh and on
// a clustered WAN with heavy-tailed latency and transient spikes.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  const bench::Options options = bench::parse_options(argc, argv);
  bool inconsistent = false;

  const std::vector<runner::ProtocolKind> protocols{runner::ProtocolKind::Marp,
                                                    runner::ProtocolKind::MpMcv};
  const std::vector<runner::NetworkKind> networks{runner::NetworkKind::Lan,
                                                  runner::NetworkKind::Wan};

  ThreadPool pool;
  std::vector<runner::ExperimentConfig> configs;
  for (runner::ProtocolKind protocol : protocols) {
    for (runner::NetworkKind network : networks) {
      // A WAN update session costs ~200+ ms, so the arrival rate is kept
      // well below saturation: this ablation measures per-operation WAN
      // cost, not queueing collapse.
      runner::ExperimentConfig config = bench::figure_config(5, 2000.0, 4000);
      config.protocol = protocol;
      config.network = network;
      config.workload.duration = sim::SimTime::seconds(120);
      config.workload.max_requests_per_server = 40;
      config.drain = sim::SimTime::seconds(600);
      configs.push_back(config);
    }
  }
  const auto aggregates = runner::run_sweep(configs, options.seeds, pool);

  std::cout << "Ablation 2: LAN vs WAN (N = 5, write-only, " << options.seeds
            << " seed(s))\n\n";
  metrics::Table table({"protocol", "network", "ATT (ms)", "p99 proxy (max ms)",
                        "msgs/write", "WAN/LAN slowdown"});
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    double lan_att = 0.0;
    for (std::size_t n = 0; n < networks.size(); ++n) {
      const auto& aggregate = aggregates[p * networks.size() + n];
      const bool is_lan = networks[n] == runner::NetworkKind::Lan;
      inconsistent |= bench::warn_if_inconsistent(
          aggregate, std::string(runner::protocol_name(protocols[p])) +
                         (is_lan ? "/LAN" : "/WAN"));
      if (is_lan) lan_att = aggregate.att_ms.mean();
      table.add_row(
          {runner::protocol_name(protocols[p]), is_lan ? "LAN" : "WAN",
           metrics::with_ci(aggregate.att_ms.mean(),
                            aggregate.att_ms.ci95_half_width(), 1),
           metrics::Table::num(aggregate.att_ms.max(), 1),
           metrics::Table::num(aggregate.messages_per_write.mean(), 1),
           is_lan ? "1.00x"
                  : metrics::Table::num(
                        aggregate.att_ms.mean() / std::max(lan_att, 1e-9), 2) +
                        "x"});
    }
  }
  bench::print_table(table, options);
  std::cout << "\nShape check: both protocols slow down on the WAN, but the\n"
               "message-passing baseline pays per message round while MARP\n"
               "pays per migration hop — its coordination happens locally at\n"
               "each server, which is the paper's core claim.\n";
  return inconsistent ? 1 : 0;
}
