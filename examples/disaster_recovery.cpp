// Disaster recovery: periodic checkpoints by mobile agents, a bad deploy,
// and an agent-driven rollback — with the agent itineraries the paper's
// prototype visualized (§4), read back from the execution tracer.
//
// A 5-replica MARP cluster serves writes; a CheckpointAgent tours the
// cluster sealing consistent snapshots; a buggy batch job then corrupts the
// data; a RollbackAgent restores the last good checkpoint everywhere.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "checkpoint/checkpoint.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

namespace {

/// Each agent's route — creation server, then every completed hop — and
/// lifetime, from the tracer's Session and Migration spans.
void print_itineraries(const marp::trace::Tracer& tracer, std::ostream& os) {
  using marp::trace::SpanKind;
  struct Itinerary {
    std::string hops;
    std::uint32_t failed_hops = 0;
    double lifetime_ms = 0.0;
  };
  std::vector<marp::trace::SpanRecord> records = tracer.records();
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) { return a.start_us < b.start_us; });
  std::map<marp::agent::AgentId, Itinerary> itineraries;
  for (const marp::trace::SpanRecord& record : records) {
    Itinerary& itinerary = itineraries[record.agent];
    if (record.kind == SpanKind::Session) {
      itinerary.hops = std::to_string(record.node) + itinerary.hops;
      itinerary.lifetime_ms = static_cast<double>(record.end_us - record.start_us) / 1000.0;
    } else if (record.kind == SpanKind::Migration) {
      if (record.aux2 == 0) {
        itinerary.hops += " -> " + std::to_string(record.node);
      } else {
        ++itinerary.failed_hops;
      }
    }
  }
  os << std::fixed << std::setprecision(3);
  for (const auto& [id, itinerary] : itineraries) {
    os << id.to_string() << ": " << itinerary.hops;
    if (itinerary.failed_hops != 0) os << "  (+" << itinerary.failed_hops << " failed hops)";
    os << "  [" << itinerary.lifetime_ms << " ms]\n";
  }
}

}  // namespace

int main() {
  using namespace marp;
  using namespace marp::sim::literals;

  sim::Simulator simulator(77);
  net::Topology topology = net::make_lan_mesh(5, 2_ms);
  net::Network network(simulator, topology,
                       std::make_unique<net::LanLatency>(topology.delays, 500.0,
                                                         12.5));
  agent::AgentPlatform platform(network);
  core::MarpProtocol marp(network, platform);
  checkpoint::CheckpointManager checkpoints(marp, platform);

  trace::Tracer tracer(simulator, 4096);
  platform.set_observer(&tracer);

  std::uint64_t next_request = 1;
  auto write = [&](net::NodeId origin, const std::string& key,
                   const std::string& value) {
    replica::Request request;
    request.id = next_request++;
    request.kind = replica::RequestKind::Write;
    request.key = key;
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    marp.submit(request);
  };
  auto show = [&](const char* label) {
    std::cout << label << ":";
    for (const auto& key : marp.server(0).store().keys()) {
      std::cout << "  " << key << "='" << marp.server(0).store().read(key)->value
                << "'";
    }
    std::cout << "\n";
  };

  // Day 1: healthy state, then a checkpoint.
  write(0, "accounts", "1000 users");
  write(1, "balance", "$1,000,000");
  simulator.run();
  show("state before checkpoint");

  bool sealed = false;
  checkpoints.checkpoint(1, 0, [&](std::uint64_t, bool ok) { sealed = ok; });
  simulator.run();
  std::cout << "checkpoint #1 sealed at all replicas: " << (sealed ? "yes" : "NO")
            << "\n\n";

  // Day 2: a buggy migration script corrupts both keys, replicated
  // faithfully everywhere (consistency preserves garbage too).
  write(2, "accounts", "-1 users (oops)");
  write(3, "balance", "NaN");
  simulator.run();
  show("state after the bad deploy");

  // Rollback from any server — replica 4 initiates.
  bool restored = false;
  checkpoints.rollback(1, 4, [&](std::uint64_t, bool ok) { restored = ok; });
  simulator.run();
  std::cout << "rollback completed: " << (restored ? "yes" : "NO") << "\n";
  show("state after rollback");

  // Every replica agrees with the manifest.
  bool all_equal = true;
  for (net::NodeId node = 1; node < 5; ++node) {
    for (const auto& key : marp.server(0).store().keys()) {
      all_equal = all_equal && marp.server(node).store().read(key)->value ==
                                   marp.server(0).store().read(key)->value;
    }
  }
  std::cout << "replicas identical: " << (all_equal ? "yes" : "NO") << "\n\n";

  // The execution, as the agents lived it.
  std::cout << "agent itineraries (from the execution tracer):\n";
  print_itineraries(tracer, std::cout);
  return restored && all_equal ? 0 : 1;
}
