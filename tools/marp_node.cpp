// marp_node — one MARP cluster member as a real OS process.
//
// Hosts a full protocol stack (see src/transport/real_node.hpp) behind a
// SocketTransport, runs its share of the closed-loop workload, serves the
// control RPC, and exits on a Shutdown call. Typically launched N times by
// tools/marp_cluster; can also be started by hand:
//
//   marp_node --node 0 --servers 5 --dir /tmp/marp &   # … repeat for 1..4
//   marp_node --node 1 --servers 5 --dir /tmp/marp &
//
// With --endpoints the cluster can span machines over TCP:
//   marp_node --node 0 --endpoints tcp:10.0.0.1:7000,tcp:10.0.0.2:7000

#include <cstdio>
#include <iostream>
#include <string>

#include "transport/node_flags.hpp"

int main(int argc, char** argv) {
  using namespace marp::transport;
  RealNodeConfig config = node_defaults();
  std::size_t servers = 5;
  std::string dir = "/tmp";
  bool print_counters = false;

  marp::util::Flags flags = node_flags(config);
  flags.add("--servers", "N", servers, "cluster size, with --dir when --endpoints is absent")
      .add("--dir", "DIR", dir, "UDS socket directory when --endpoints is absent")
      .toggle("--counters", print_counters, true, "print the full counter registry on exit");
  flags.parse(argc, argv);

  if (config.endpoints.empty()) config.endpoints = local_uds_cluster(dir, servers);
  if (config.node >= config.endpoints.size()) {
    flags.fail("--node: expected a node id below " + std::to_string(config.endpoints.size()));
  }

  std::fprintf(stderr,
               "marp_node: node %u/%zu listening on %s, %llu sessions, "
               "incarnation %u%s\n",
               config.node, config.endpoints.size(),
               config.endpoints[config.node].to_string().c_str(),
               static_cast<unsigned long long>(config.sessions), config.incarnation,
               config.data_dir.empty() ? "" : (", durable in " + config.data_dir).c_str());

  RealNode node(std::move(config));
  node.run();

  if (print_counters) {
    // Same table marp_sim --counters prints, plus net.real.* and per-link
    // link.* — the real-wire parity view.
    std::cout << "counters:\n";
    node.counters().print(std::cout);
  }

  const auto status = node.status();
  std::fprintf(stderr,
               "marp_node: node %u done: %llu/%llu sessions, %llu commits, "
               "%llu aborts, quiesced=%d\n",
               node.node(), static_cast<unsigned long long>(status.sessions_completed),
               static_cast<unsigned long long>(status.sessions_target),
               static_cast<unsigned long long>(status.commits),
               static_cast<unsigned long long>(status.aborts), status.quiesced ? 1 : 0);
  return 0;
}
