// Tests for the timestamped anti-entropy baseline (Golding '92, the
// paper's ref [6]): instant local commits, background convergence,
// push-pull symmetry, staleness window, and failure/recovery behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/tsae.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "runner/experiment.hpp"
#include "serial/byte_buffer.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp::baseline {
namespace {

using namespace marp::sim::literals;

struct Stack {
  explicit Stack(std::size_t n, std::uint64_t seed = 1, TsaeConfig config = {})
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        protocol(network, config) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  void submit(std::uint64_t id, net::NodeId origin, replica::RequestKind kind,
              const std::string& value = {}) {
    replica::Request request;
    request.id = id;
    request.kind = kind;
    request.key = "item";
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  sim::Simulator simulator;
  net::Network network;
  TsaeProtocol protocol;
  workload::TraceCollector trace;
};

TEST(Tsae, WritesAckImmediatelyWithoutCoordination) {
  Stack stack(5);
  const auto messages_before = stack.network.stats().messages_sent;
  stack.submit(1, 0, replica::RequestKind::Write, "instant");
  stack.simulator.run(1_ms);
  ASSERT_EQ(stack.trace.successful_writes(), 1u);
  // Sub-millisecond local commit, zero synchronous messages.
  EXPECT_LT(stack.trace.outcomes()[0].total_latency().as_millis(), 1.0);
  EXPECT_EQ(stack.network.stats().messages_sent, messages_before);
}

TEST(Tsae, GossipConvergesAllReplicas) {
  Stack stack(5);
  stack.submit(1, 0, replica::RequestKind::Write, "spread-me");
  stack.simulator.run(5_s);
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value()) << "node " << node;
    EXPECT_EQ(value->value, "spread-me");
  }
  EXPECT_GT(stack.protocol.gossip_rounds(), 0u);
}

TEST(Tsae, RemoteReadIsStaleUntilGossipArrives) {
  Stack stack(5);
  stack.submit(1, 0, replica::RequestKind::Write, "new");
  stack.simulator.run(2_ms);  // long before any anti-entropy round
  stack.submit(2, 4, replica::RequestKind::Read);
  stack.simulator.run(4_ms);
  ASSERT_EQ(stack.trace.outcomes().size(), 2u);
  EXPECT_TRUE(stack.trace.outcomes()[1].value.empty());  // §1's "temporal
                                                         // inconsistency"
  // After convergence the same read sees the write.
  stack.simulator.run(5_s);
  stack.submit(3, 4, replica::RequestKind::Read);
  stack.simulator.run(6_s);
  EXPECT_EQ(stack.trace.outcomes()[2].value, "new");
}

TEST(Tsae, ConcurrentWritersConvergeByVersion) {
  Stack stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.submit(10 + node, node, replica::RequestKind::Write,
                 "w" + std::to_string(node));
  }
  stack.simulator.run(10_s);
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  for (net::NodeId node = 1; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, reference->value) << "node " << node;
    EXPECT_EQ(value->version, reference->version);
  }
}

TEST(Tsae, SummaryVectorsReachTheHighWaterEverywhere) {
  Stack stack(3);
  for (int i = 0; i < 4; ++i) {
    stack.submit(1 + i, 1, replica::RequestKind::Write, "v" + std::to_string(i));
  }
  stack.simulator.run(10_s);
  for (net::NodeId node = 0; node < 3; ++node) {
    EXPECT_EQ(stack.protocol.server(node).summary()[1], 4u) << "node " << node;
  }
}

TEST(Tsae, FailedReplicaCatchesUpAfterRecovery) {
  Stack stack(5);
  stack.protocol.fail_server(3);
  stack.submit(1, 0, replica::RequestKind::Write, "missed");
  stack.simulator.run(5_s);
  EXPECT_FALSE(stack.protocol.server(3).store().read("item").has_value());
  stack.protocol.recover_server(3);
  stack.simulator.run(15_s);  // peers re-gossip the full log
  const auto value = stack.protocol.server(3).store().read("item");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->value, "missed");
}

TEST(Tsae, RunnerIntegrationConvergesAndCompletes) {
  runner::ExperimentConfig config;
  config.protocol = runner::ProtocolKind::Tsae;
  config.servers = 5;
  config.seed = 5;
  config.workload.mean_interarrival_ms = 40.0;
  config.workload.write_fraction = 0.5;
  config.workload.duration = sim::SimTime::seconds(3);
  config.drain = sim::SimTime::seconds(30);
  const runner::RunResult result = runner::run_experiment(config);
  EXPECT_GT(result.generated, 0u);
  EXPECT_EQ(result.completed, result.generated);
  EXPECT_TRUE(result.consistent)
      << (result.consistency_problems.empty() ? ""
                                              : result.consistency_problems[0]);
  // The whole point: instant writes.
  EXPECT_LT(result.att_ms, 1.0);
}

TEST(Tsae, PartitionedGroupsConvergeAfterHeal) {
  Stack stack(4);
  stack.network.partition({0, 1});
  stack.submit(1, 0, replica::RequestKind::Write, "left");
  stack.simulator.run(2_s);
  // Both sides applied their local view; sides differ.
  ASSERT_TRUE(stack.protocol.server(1).store().read("item").has_value());
  EXPECT_FALSE(stack.protocol.server(2).store().read("item").has_value());

  stack.submit(2, 3, replica::RequestKind::Write, "right");
  stack.simulator.run(4_s);
  stack.network.heal_partition();
  stack.simulator.run(20_s);
  // After healing, the later version wins everywhere.
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(reference->value, "right");
  for (net::NodeId node = 1; node < 4; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, reference->value);
  }
}

TEST(Tsae, HugeSummaryCountsAreDecodeErrors) {
  // A summary's entry count comes off the wire. Counts far beyond the bytes
  // that follow must be rejected as malformed input, not drive an
  // allocation (2^40 entries would be std::bad_alloc, 2^62
  // std::length_error).
  Stack stack(3);
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    serial::Writer w;
    w.varint(count);
    w.varint(7);
    for (const net::MessageType type : {kTsaeSummary, kTsaeReply}) {
      EXPECT_THROW(stack.protocol.server(1).handle_message(
                       net::Message{0, 1, type, w.bytes()}),
                   serial::DecodeError)
          << "count " << count << ", type " << type;
    }
  }
}

}  // namespace
}  // namespace marp::baseline
