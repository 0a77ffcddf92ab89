// Timed layer probes and the per-layer metric set.
//
// Each probe calls one layer's public functions in a tight loop at an input
// size taken from the workload (the mean frame body, the mean agent transfer,
// the final store size), so a change to that layer shows here even when the
// end-to-end number hides it. Probes run on every workload's traced run.
// The check layer's probe also explores the CI membership space to a fixed
// cap and pins the explorer's exact counts.
#include <sys/resource.h>

#include <filesystem>
#include <memory>

#include "check/explorer.hpp"
#include "checkpoint/durable.hpp"
#include "checks.hpp"
#include "marp/priority.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "quorum/quorum.hpp"
#include "rpc/frame.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace marp;

serial::Bytes filler(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  serial::Bytes bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

struct RpcCost {
  double encode_us = 0;
  double decode_us = 0;
  double fnv_ns_per_kb = 0;
};

RpcCost probe_rpc(std::size_t body_bytes) {
  const serial::Bytes body = filler(body_bytes, 11);
  std::uint64_t seq = 0;
  RpcCost cost;
  cost.encode_us = ns_per_call([&] {
                     const serial::Bytes frame = rpc::encode_frame(
                         rpc::FrameType::AppMessage, 0, 1, ++seq, body, true);
                     keep(frame.data());
                   }, 2000) / 1000.0;
  const serial::Bytes frame =
      rpc::encode_frame(rpc::FrameType::AppMessage, 0, 1, 1, body, true);
  cost.decode_us = ns_per_call([&] {
                     rpc::Frame out;
                     keep(rpc::decode_frame(frame, &out));
                     keep(out.body.data());
                   }, 2000) / 1000.0;
  const serial::Bytes block = filler(64 * 1024, 12);
  cost.fnv_ns_per_kb =
      ns_per_call([&] { keep(rpc::fnv1a64(block.data(), block.size())); }, 20) / 64.0;
  return cost;
}

struct AgentCost {
  double serialize_us = 0;
  double rehydrate_us = 0;
};

AgentCost probe_agent(std::size_t target_bytes) {
  // Pad one write's value until the serialized agent is as large as the
  // transfers the workload observed.
  const auto make = [](std::size_t pad) {
    return core::UpdateAgent(
        0, {core::UpdateAgent::PendingWrite{1, "n0/k1", std::string(pad, 'v')}});
  };
  serial::Writer probe;
  make(0).serialize(probe);
  const std::size_t pad = target_bytes > probe.size() ? target_bytes - probe.size() : 0;
  const core::UpdateAgent agent = make(pad);
  serial::Writer w0;
  agent.serialize(w0);
  const serial::Bytes bytes = w0.take();

  AgentCost cost;
  cost.serialize_us = ns_per_call([&] {
                        serial::Writer w;
                        agent.serialize(w);
                        keep(w.size());
                      }, 2000) / 1000.0;
  cost.rehydrate_us = ns_per_call([&] {
                        core::UpdateAgent copy;
                        serial::Reader r(bytes);
                        copy.deserialize(r);
                        keep(copy.servers_visited());
                      }, 2000) / 1000.0;
  return cost;
}

struct CheckpointCost {
  double append_us = 0;
  double checkpoint_ms = 0;
};

/// DurableLog costs exactly as a node pays them: fsynced journal appends,
/// and a full checkpoint of a manifest as large as the final store.
CheckpointCost probe_checkpoint(std::size_t store_keys, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointCost cost;
  {
    checkpoint::DurableLog log(dir, 0);
    log.recover();
    std::int64_t t = 0;
    const std::string value(64, 'v');
    cost.append_us = ns_per_call([&] {
                       log.append_apply("probe/k" + std::to_string(t % 64),
                                        {value, replica::Version{++t, 0}});
                     }, 10, 9) / 1000.0;
    checkpoint::Manifest manifest;
    for (std::size_t i = 0; i < store_keys; ++i) {
      manifest.emplace("probe/k" + std::to_string(i),
                       replica::VersionedValue{value, replica::Version{
                                                          static_cast<std::int64_t>(i + 1), 0}});
    }
    cost.checkpoint_ms =
        ns_per_call([&] { keep(log.checkpoint(manifest, 0)); }, 1, 5) / 1e6;
  }
  std::filesystem::remove_all(dir);
  return cost;
}

/// decide() over a 64-server Locking Table under the grid geometry:
/// every list known, three queued agents per list in seeded orders.
double probe_decide_us() {
  constexpr std::size_t kServers = 64;
  quorum::QuorumSpec spec;
  spec.geometry = quorum::Geometry::Grid;
  const auto qs = quorum::make_quorum_system(spec, kServers);
  std::vector<agent::AgentId> pool;
  for (std::uint32_t i = 0; i < 6; ++i) pool.push_back({i % 4, 1000 + i * 37, i});
  sim::Rng rng(5);
  core::LockTable table;
  for (net::NodeId s = 0; s < kServers; ++s) {
    core::LockSnapshot snap;
    snap.observed_us = 100 + s;
    std::vector<agent::AgentId> order = pool;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
    }
    order.resize(3);
    snap.agents = order;
    table.emplace(s, std::move(snap));
  }
  const core::DoneSet done{pool[5]};
  return ns_per_call([&] {
           const core::Decision d =
               core::decide(table, done, pool[0], kServers, core::TieBreakMode::TotalOrder,
                            {}, core::ProtocolMutant::None, qs.get());
           keep(d.kind);
         }, 200) / 1000.0;
}

struct QuorumCost {
  double pick_us = 0;
  double cover_us = 0;
};

QuorumCost probe_quorum() {
  quorum::QuorumSpec spec;
  spec.geometry = quorum::Geometry::Grid;
  const auto qs = quorum::make_quorum_system(spec, 64);
  net::NodeId prefer = 0;
  QuorumCost cost;
  cost.pick_us = ns_per_call([&] {
                   const auto q = qs->pick_write_quorum({}, prefer++ % 64);
                   keep(q->size());
                 }, 2000) / 1000.0;
  const quorum::NodeSet covered = *qs->pick_write_quorum({}, 9);
  cost.cover_us =
      ns_per_call([&] { keep(qs->write_covered(covered)); }, 2000) / 1000.0;
  return cost;
}

/// One pop plus one push on a heap holding 16k pending events.
double probe_queue_ns() {
  constexpr std::size_t kPending = 16384;
  sim::Rng rng(3);
  sim::EventQueue queue;
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.push(sim::SimTime::micros(rng.uniform_int(0, 1'000'000)), [] {});
  }
  return ns_per_call([&] {
    const sim::Event e = queue.pop();
    queue.push(e.time + sim::SimTime::micros(rng.uniform_int(1, 1'000'000)), [] {});
  }, 20000);
}

/// Network::send plus the scheduled delivery, per message.
double probe_unicast_ns() {
  constexpr net::NodeId kNodes = 8;
  constexpr int kBatch = 1000;
  sim::Simulator simulator(3);
  net::Network network(simulator, net::make_lan_mesh(kNodes, sim::SimTime::millis(1)),
                       std::make_unique<net::ConstantLatency>(sim::SimTime::millis(1)));
  std::uint64_t received = 0;
  for (net::NodeId node = 0; node < kNodes; ++node) {
    network.register_node(node, [&](const net::Message&) { ++received; });
  }
  const serial::Bytes payload(64);
  const double per_batch = ns_per_call([&] {
    for (int i = 0; i < kBatch; ++i) {
      network.send(net::Message{0, static_cast<net::NodeId>(1 + i % (kNodes - 1)), 1, payload});
    }
    simulator.run();
  }, 1, 21);
  keep(received);
  return per_batch / kBatch;
}

/// The model-check space CI checks for epoch changes: N = 5 grid, two
/// agents, rf = 4 over the first four servers, node 4 joins at 3 ms and
/// node 1 leaves at 12 ms.
check::ScenarioConfig membership_space() {
  check::ScenarioConfig s;
  s.servers = 5;
  s.agents = 2;
  s.quorum.geometry = quorum::Geometry::Grid;
  s.membership_rf = 4;
  s.initial_members = 4;
  s.join_node = 4;
  s.join_at = sim::SimTime::millis(3);
  s.leave_node = 1;
  s.leave_at = sim::SimTime::millis(12);
  return s;
}

/// The space explored to a fixed schedule cap. The explorer is
/// deterministic, so these counts are constants of the program: a change
/// that alters them has changed what the checker explores — re-pin
/// deliberately, never silently.
constexpr std::uint64_t kExploreCap = 6000;
const ExplorePins kExplorePins{6000, 457635, 5570};

struct CheckCost {
  double build_us = 0;
  double run_us = 0;
  double steps_per_schedule = 0;
  double sleep_blocked_ratio = 0;
};

CheckCost probe_check(RunReport& report) {
  const check::ScenarioConfig space = membership_space();
  CheckCost cost;
  cost.build_us = ns_per_call([&] {
                    check::CheckScenario scenario(space);
                    keep(&scenario);
                  }, 5, 9) / 1000.0;
  std::vector<double> run_us;
  for (int i = 0; i < 9; ++i) {
    check::CheckScenario scenario(space);
    const auto t0 = Clock::now();
    const check::RunOutcome outcome = scenario.run(nullptr);
    run_us.push_back(seconds_since(t0) * 1e6);
    keep(outcome.steps);
  }
  cost.run_us = median(std::move(run_us));

  check::ExploreLimits limits;
  limits.max_schedules = kExploreCap;
  const check::ExploreReport explored = check::explore(space, limits);
  for (const std::string& p : check_explore(explored, kExploreCap)) {
    report.problems.push_back("membership exploration: " + p);
  }
  const ExplorePins got = explore_pins(explored);
  if (!(got == kExplorePins)) {
    report.problems.push_back("membership exploration counts drifted: pinned " +
                              describe(kExplorePins) + ", got " + describe(got));
  }
  const double schedules = static_cast<double>(explored.schedules_explored);
  if (schedules > 0) {
    cost.steps_per_schedule = static_cast<double>(explored.total_steps) / schedules;
    cost.sleep_blocked_ratio = static_cast<double>(explored.sleep_blocked) / schedules;
  }
  return cost;
}

double per_op(double value, double ops) { return ops > 0 ? value / ops : 0.0; }

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_layer_metrics(const LayerCounts& c, const ProbeShape& shape, double overhead_pct,
                       SpanLog& spans, RunReport& report) {
  RpcCost rpc_cost;
  AgentCost agent_cost;
  CheckpointCost checkpoint_cost;
  double decide_us = 0;
  QuorumCost quorum_cost;
  double queue_ns = 0;
  double unicast_ns = 0;
  CheckCost check_cost;
  {
    auto s = spans.span("probe.rpc");
    rpc_cost = probe_rpc(shape.frame_body_bytes);
  }
  {
    auto s = spans.span("probe.agent");
    agent_cost = probe_agent(shape.agent_bytes);
  }
  {
    auto s = spans.span("probe.checkpoint");
    checkpoint_cost = probe_checkpoint(shape.store_keys, shape.scratch_dir);
  }
  {
    auto s = spans.span("probe.decide");
    decide_us = probe_decide_us();
  }
  {
    auto s = spans.span("probe.quorum");
    quorum_cost = probe_quorum();
  }
  {
    auto s = spans.span("probe.event_queue");
    queue_ns = probe_queue_ns();
  }
  {
    auto s = spans.span("probe.network");
    unicast_ns = probe_unicast_ns();
  }
  {
    auto s = spans.span("probe.check");
    check_cost = probe_check(report);
  }

  report.set("transport.frames_per_op", per_op(c.frames, c.ops), "count");
  report.set("transport.bytes_per_op", per_op(c.frame_bytes, c.ops), "B");
  report.set("transport.agent_transfers_per_op", per_op(c.agent_transfers, c.ops), "count");
  report.set("transport.retries_per_op", per_op(c.transport_retries, c.ops), "count");
  report.set("rpc.encode_us", rpc_cost.encode_us, "us");
  report.set("rpc.decode_us", rpc_cost.decode_us, "us");
  report.set("rpc.fnv1a64_ns_per_kb", rpc_cost.fnv_ns_per_kb, "ns");
  report.set("agent.serialize_us", agent_cost.serialize_us, "us");
  report.set("agent.rehydrate_us", agent_cost.rehydrate_us, "us");
  report.set("agent.migrations_per_op", per_op(c.migrations, c.ops), "count");
  report.set("agent.bytes_per_op", per_op(c.migration_bytes, c.ops), "B");
  report.set("checkpoint.append_us", checkpoint_cost.append_us, "us");
  report.set("checkpoint.checkpoint_ms", checkpoint_cost.checkpoint_ms, "ms");
  report.set("marp.commit_ratio", per_op(c.updates_committed, c.update_attempts), "ratio");
  report.set("marp.retransmits_per_op", per_op(c.retransmits, c.ops), "count");
  report.set("marp.session_ms_p50", percentile(c.session_ms, 50), "ms");
  report.set("marp.session_ms_p99", percentile(c.session_ms, 99), "ms");
  report.set("marp.session_samples", static_cast<double>(c.session_ms.size()), "count");
  report.set("marp.lock_wait_ms_p99", percentile(c.lock_wait_ms, 99), "ms");
  report.set("marp.lock_wait_samples", static_cast<double>(c.lock_wait_ms.size()), "count");
  report.set("marp.migration_ms_p50", percentile(c.migration_ms, 50), "ms");
  report.set("marp.migration_samples", static_cast<double>(c.migration_ms.size()), "count");
  report.set("marp.decide_us", decide_us, "us");
  report.set("marp.alt_ms_virtual", c.alt_ms_virtual, "ms");
  report.set("marp.att_ms_virtual", c.att_ms_virtual, "ms");
  report.set("quorum.pick_us", quorum_cost.pick_us, "us");
  report.set("quorum.cover_us", quorum_cost.cover_us, "us");
  report.set("quorum.reselections_per_op", per_op(c.reselections, c.ops), "count");
  report.set("sim.queue_ns_per_event", queue_ns, "ns");
  report.set("net.messages_per_op", per_op(c.messages, c.ops), "count");
  report.set("net.unicast_ns", unicast_ns, "ns");
  report.set("check.steps_per_schedule", check_cost.steps_per_schedule, "count");
  report.set("check.sleep_blocked_ratio", check_cost.sleep_blocked_ratio, "ratio");
  report.set("check.scenario_build_us", check_cost.build_us, "us");
  report.set("check.run_us", check_cost.run_us, "us");
  report.set("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace perfbench
