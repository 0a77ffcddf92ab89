// Micro-benchmarks for the substrate (google-benchmark): event queue,
// RNG, serializer, agent-state round trip, UAL merge, the gossip exchange,
// decide() at N = 64, the wire framer and its checksum, network message
// delivery, and a whole small MARP simulation as a macro sanity number.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "agent/platform.hpp"
#include "marp/protocol.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "quorum/quorum.hpp"
#include "rpc/frame.hpp"
#include "runner/experiment.hpp"
#include "serial/byte_buffer.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace marp;
using namespace marp::sim::literals;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::int64_t t : times) queue.push(sim::SimTime::micros(t), [] {});
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 10)->Arg(1 << 14);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(7);
  double acc = 0.0;
  for (auto _ : state) acc += rng.exponential(45.0);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngExponential);

void BM_SerializerRoundTrip(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    serial::Writer w;
    for (std::size_t i = 0; i < entries; ++i) {
      w.varint(i * 2654435761u);
      w.str("key-and-some-value-payload");
    }
    serial::Reader r(w.bytes());
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < entries; ++i) {
      acc += r.varint();
      acc += r.str().size();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_SerializerRoundTrip)->Arg(16)->Arg(256);

/// An UpdateAgent caught mid-tour in perfbench's sim-mixed configuration
/// (N = 64 on the LAN model, grid quorum, 16 lock groups, half quorum-agent
/// reads, Poisson arrivals at 400 ms mean per server, seed 1): the first
/// resident one whose UAL holds at least 200 ids. Its UAL and per-group
/// Locking Tables are what a migration in that workload really carries.
const core::UpdateAgent& loaded_agent() {
  static const std::unique_ptr<core::UpdateAgent> captured = [] {
    const runner::ExperimentConfig lan;  // the LAN model's defaults
    core::MarpConfig marp;
    marp.quorum.geometry = quorum::Geometry::Grid;
    marp.num_lock_groups = 16;
    marp.read_mode = core::ReadMode::QuorumAgent;
    workload::WorkloadConfig load;
    load.arrivals = workload::ArrivalProcess::Poisson;
    load.write_fraction = 0.5;
    load.num_keys = 512;
    load.mean_interarrival_ms = 400.0;
    load.duration = sim::SimTime::seconds(10);
    constexpr std::size_t kServers = 64;

    sim::Simulator simulator(1);
    const net::Topology topology = net::make_lan_mesh(kServers, lan.lan_base);
    net::Network network(simulator, topology,
                         std::make_unique<net::LanLatency>(
                             topology.delays, lan.lan_jitter_mean_us, lan.lan_bytes_per_us));
    agent::AgentPlatform platform(network);
    core::MarpProtocol protocol(network, platform, marp);
    workload::RequestGenerator generator(
        simulator, kServers, load,
        [&protocol](const replica::Request& request) { protocol.submit(request); });
    generator.start();
    while (simulator.now() < load.duration) {
      simulator.run(simulator.now() + sim::SimTime::millis(10));
      for (net::NodeId node = 0; node < kServers; ++node) {
        for (const agent::MobileAgent* resident : platform.host(node).resident_agents()) {
          const auto* agent = dynamic_cast<const core::UpdateAgent*>(resident);
          if (agent == nullptr || agent->updated_agents().size() < 200) continue;
          auto copy = std::make_unique<core::UpdateAgent>();
          serial::Writer w;
          agent->serialize(w);
          serial::Reader r(w.bytes());
          copy->deserialize(r);
          return copy;
        }
      }
    }
    throw std::runtime_error("no update agent reached a 200-id UAL");
  }();
  return *captured;
}

void BM_UpdateAgentStateRoundTrip(benchmark::State& state) {
  // Serialize/deserialize a realistically loaded agent (loaded_agent()) —
  // the per-migration cost of the platform.
  const core::UpdateAgent& agent = loaded_agent();
  serial::Writer seed_writer;
  agent.serialize(seed_writer);
  const serial::Bytes bytes = seed_writer.take();
  for (auto _ : state) {
    core::UpdateAgent copy;
    serial::Reader r(bytes);
    copy.deserialize(r);
    serial::Writer w;
    copy.serialize(w);
    benchmark::DoNotOptimize(w.size());
  }
  state.counters["ual_ids"] = static_cast<double>(agent.updated_agents().size());
  state.counters["state_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_UpdateAgentStateRoundTrip);

void BM_UalMerge(benchmark::State& state) {
  // One visit's gossip merge: a server's full 256-entry Updated List view
  // into a 200-id UAL that already holds 144 of them. Each iteration merges
  // into a fresh copy of the UAL, as each hop rehydrates its own.
  std::vector<agent::AgentId> ids;
  for (std::uint32_t i = 0; i < 312; ++i) {
    ids.push_back({i % 64, 1'000'000 + 997 * static_cast<std::int64_t>(i), i});
  }
  const core::DoneSet ual(std::vector<agent::AgentId>(ids.begin(), ids.begin() + 200));
  const core::DoneSet ul(std::vector<agent::AgentId>(ids.begin() + 56, ids.end()));
  for (auto _ : state) {
    core::DoneSet merged = ual;
    merged.merge(ul);
    benchmark::DoNotOptimize(merged.size());
  }
}
BENCHMARK(BM_UalMerge);

void BM_GossipExchange(benchmark::State& state) {
  // One visit's gossip exchange (MarpServer::visit): the Locking Table of
  // loaded_agent()'s first lock group against a server cache that knows all
  // 64 servers. Where both know a server, even servers are fresher in the
  // cache and odd ones in the agent's table, so snapshots flow both ways.
  // Each iteration exchanges fresh copies of both, as each hop rehydrates
  // its own table.
  const core::GroupLockTable& groups = loaded_agent().lock_tables();
  if (groups.empty()) throw std::runtime_error("loaded agent carries no Locking Table");
  const core::LockTable& visitor = groups.begin()->second;
  core::LockTable cache;
  for (net::NodeId node = 0; node < 64; ++node) {
    if (const auto it = visitor.find(node); it != visitor.end()) {
      core::LockSnapshot snapshot = it->second;
      snapshot.observed_us += node % 2 == 0 ? 1 : -1;
      cache.emplace(node, std::move(snapshot));
    } else {
      cache.emplace(node, core::LockSnapshot{{{node, 1000 + node, 0}, {(node + 1) % 64, 1001, 1},
                                              {(node + 2) % 64, 1002, 2}},
                                             1000 + node});
    }
  }
  for (auto _ : state) {
    core::LockTable mine = visitor;
    core::LockTable theirs = cache;
    core::exchange_lock_tables(mine, theirs);
    benchmark::DoNotOptimize(mine.size() + theirs.size());
  }
  state.counters["visitor_entries"] = static_cast<double>(visitor.size());
  state.counters["cache_entries"] = static_cast<double>(cache.size());
}
BENCHMARK(BM_GossipExchange);

void BM_Decide(benchmark::State& state) {
  // decide() at N = 64 under the grid geometry: every list known, three
  // queued agents per list in seeded orders, one of six agents finished.
  constexpr std::size_t kServers = 64;
  quorum::QuorumSpec spec;
  spec.geometry = quorum::Geometry::Grid;
  const auto grid = quorum::make_quorum_system(spec, kServers);
  std::vector<agent::AgentId> pool;
  for (std::uint32_t i = 0; i < 6; ++i) pool.push_back({i % 4, 1000 + i * 37, i});
  sim::Rng rng(5);
  core::LockTable table;
  for (net::NodeId node = 0; node < kServers; ++node) {
    std::vector<agent::AgentId> queue = pool;
    rng.shuffle(queue);
    queue.resize(3);
    table.emplace(node, core::LockSnapshot{std::move(queue), 100 + node});
  }
  const core::DoneSet done{pool[5]};
  for (auto _ : state) {
    const core::Decision decision =
        core::decide(table, done, pool[0], kServers, core::TieBreakMode::TotalOrder, {},
                     core::ProtocolMutant::None, grid.get());
    benchmark::DoNotOptimize(decision.kind);
  }
}
BENCHMARK(BM_Decide);

void BM_FrameStreamDecode(benchmark::State& state) {
  // The node's receive path without the socket: a buffer of encoded frames
  // at cluster-uds sizes (seven ~200 B AppMessage bodies per ~2.1 KB agent
  // transfer, checksummed) fed to a FrameStream in 64 KiB recv-sized pieces
  // and cut back into frames, checksum verified.
  sim::Rng rng(11);
  serial::Bytes wire;
  std::int64_t frames = 0;
  for (std::uint64_t seq = 0; seq < 256; ++seq) {
    const bool agent = seq % 8 == 7;
    serial::Bytes body(agent ? 2100 : 200);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const serial::Bytes frame = rpc::encode_frame(
        agent ? rpc::FrameType::AgentTransfer : rpc::FrameType::AppMessage, 0, 1, seq,
        body);
    wire.insert(wire.end(), frame.begin(), frame.end());
    ++frames;
  }
  constexpr std::size_t kRecv = 64 * 1024;
  rpc::FrameStream stream;
  rpc::Frame frame;
  for (auto _ : state) {
    std::int64_t cut = 0;
    for (std::size_t at = 0; at < wire.size(); at += kRecv) {
      stream.append(wire.data() + at, std::min(kRecv, wire.size() - at));
      while (stream.next(&frame) == rpc::DecodeStatus::Ok) ++cut;
    }
    benchmark::DoNotOptimize(frame.body.data());
    if (cut != frames) state.SkipWithError("framer lost frames");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * frames);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_FrameStreamDecode);

void BM_Fnv1a64(benchmark::State& state) {
  // The frame checksum over a 64 KiB body (the per-layer metric
  // rpc.fnv1a64_ns_per_kb is this time / 64).
  sim::Rng rng(5);
  serial::Bytes data(64 * 1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpc::fnv1a64(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Fnv1a64);

void BM_NetworkUnicastDelivery(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator(3);
    net::Topology topo = net::make_lan_mesh(8, 1_ms);
    net::Network network(simulator, topo,
                         std::make_unique<net::ConstantLatency>(1_ms));
    std::uint64_t received = 0;
    for (net::NodeId node = 0; node < 8; ++node) {
      network.register_node(node, [&](const net::Message&) { ++received; });
    }
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      network.send(net::Message{0, static_cast<net::NodeId>(1 + i % 7), 1,
                                serial::Bytes(64)});
    }
    simulator.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_NetworkUnicastDelivery);

void BM_MarpEndToEnd(benchmark::State& state) {
  // Whole-stack sanity number: one bounded MARP simulation per iteration.
  // Arg(0) runs untraced (tracer never installed — the hook sites' guard
  // branch is the only cost); Arg(1) runs with a live tracer recording every
  // span. CI compares the two as the disabled-tracing overhead guard.
  const bool traced = state.range(0) != 0;
  for (auto _ : state) {
    runner::ExperimentConfig config;
    config.servers = 5;
    config.seed = 42;
    config.workload.mean_interarrival_ms = 100.0;
    config.workload.duration = sim::SimTime::seconds(10);
    config.workload.max_requests_per_server = 20;
    config.drain = sim::SimTime::seconds(120);
    if (traced) config.trace_capacity = 1u << 16;
    const runner::RunResult result = runner::run_experiment(config);
    if (!result.consistent) state.SkipWithError("inconsistent run");
    benchmark::DoNotOptimize(result.att_ms);
  }
}
BENCHMARK(BM_MarpEndToEnd)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("traced")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
