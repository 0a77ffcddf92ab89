// Tests for the protocol extensions and hardening mechanisms: weighted
// voting, agent-based quorum reads, recovery state sync, the server-side
// update-grant machinery (stale-attempt rejection), message loss, and
// network partitions.
#include <gtest/gtest.h>

#include <memory>

#include "marp/priority.hpp"
#include "marp/protocol.hpp"
#include "marp/read_agent.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp::core {
namespace {

using namespace marp::sim::literals;

struct Stack {
  explicit Stack(std::size_t n, MarpConfig config = {}, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform, std::move(config)) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  void submit_write(std::uint64_t id, net::NodeId origin, const std::string& value) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = "item";
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  void submit_read(std::uint64_t id, net::NodeId origin) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Read;
    request.key = "item";
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  MarpProtocol protocol;
  workload::TraceCollector trace;
};

// ---------- weighted voting ----------

TEST(WeightedMarp, VoteHelpers) {
  EXPECT_EQ(vote_of({}, 3), 1u);
  EXPECT_EQ(vote_of({3, 1, 1}, 0), 3u);
  EXPECT_EQ(total_votes({}, 5), 5u);
  EXPECT_EQ(total_votes({3, 1, 1}, 3), 5u);
}

TEST(WeightedMarp, HeavyServerShrinksTheQuorumTour) {
  // Node 0 holds 3 of 7 votes: topping nodes 0 and 1 (4 votes) is already a
  // majority, so an uncontended agent from node 0 visits only 2 servers.
  MarpConfig config;
  config.votes = {3, 1, 1, 1, 1};
  Stack stack(5, config);
  stack.submit_write(1, 0, "weighted");
  stack.simulator.run();
  ASSERT_EQ(stack.trace.successful_writes(), 1u);
  EXPECT_EQ(stack.trace.outcomes()[0].servers_visited, 2u);
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, "weighted");
  }
}

TEST(WeightedMarp, UniformWeightsMatchPlainMajority) {
  MarpConfig config;
  config.votes = {1, 1, 1, 1, 1};
  Stack stack(5, config);
  stack.submit_write(1, 0, "uniform");
  stack.simulator.run();
  ASSERT_EQ(stack.trace.successful_writes(), 1u);
  EXPECT_EQ(stack.trace.outcomes()[0].servers_visited, 3u);
}

TEST(WeightedMarp, ContendedWeightedRunStaysExclusive) {
  MarpConfig config;
  config.votes = {3, 2, 1, 1, 1};
  Stack stack(5, config);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.submit_write(10 + node, node, "w" + std::to_string(node));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
}

TEST(WeightedMarp, MutualExclusionMonitorCountsVotes) {
  // Grant injection against the Theorem-2 monitor under votes {3,3,1,1,1}
  // (9 votes, a write quorum needs 5). Counting grant-holding servers gets
  // both directions wrong: three light servers are a server majority but
  // only 3 votes, and the two heavy servers are a server minority but 6.
  MarpConfig config;
  config.votes = {3, 3, 1, 1, 1};
  Stack stack(5, config);
  const agent::AgentId winner{0, 100, 0};
  const agent::AgentId light{2, 200, 0};
  const agent::AgentId heavy{3, 300, 0};
  auto grant = [&](const agent::AgentId& agent, net::NodeId node,
                   std::uint32_t attempt) {
    UpdatePayload update;
    update.agent = agent;
    update.reply_to = node;
    update.attempt = attempt;
    update.groups = {0};
    ASSERT_EQ(stack.protocol.server(node).handle_update_local(update),
              MarpServer::GrantResult::Granted);
  };

  for (const net::NodeId node : {2u, 3u, 4u}) grant(light, node, 1);
  stack.protocol.note_update_quorum(winner, {0}, 0);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u)
      << "3 of 9 votes is not a write quorum";

  for (const net::NodeId node : {2u, 3u, 4u}) {
    stack.protocol.server(node).handle_release_local(
        ReleasePayload{light, {0}, net::kInvalidNode});
  }
  for (const net::NodeId node : {0u, 1u}) grant(heavy, node, 1);
  stack.protocol.note_update_quorum(winner, {0}, 2);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 1u)
      << "6 of 9 votes is a write quorum";
}

TEST(WeightedMarp, MismatchedVoteVectorRejected) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(5, 1_ms),
                       std::make_unique<net::ConstantLatency>(1_ms));
  agent::AgentPlatform platform(network);
  MarpConfig config;
  config.votes = {1, 1};  // 2 entries for 5 servers
  EXPECT_THROW(MarpProtocol(network, platform, config), ContractViolation);
}

TEST(WeightedMarp, DecideUsesVoteMass) {
  // Agent 1 heads one heavy server; agent 2 heads three light ones.
  auto aid = [](std::uint32_t n) { return agent::AgentId{n, n * 10, 0}; };
  LockTable table;
  table[0] = LockSnapshot{{aid(1)}, 1};
  table[1] = LockSnapshot{{aid(2)}, 1};
  table[2] = LockSnapshot{{aid(2)}, 1};
  table[3] = LockSnapshot{{aid(2)}, 1};
  // Unweighted: agent 2 heads 3 of 4 → majority.
  EXPECT_EQ(decide(table, {}, aid(2), 4, TieBreakMode::TotalOrder).kind,
            Decision::Kind::Win);
  // Weighted 5/1/1/1: agent 1's single heavy head (5) beats 3 light (3).
  const VoteWeights votes{5, 1, 1, 1};
  EXPECT_EQ(decide(table, {}, aid(1), 4, TieBreakMode::TotalOrder, votes).kind,
            Decision::Kind::Win);
  EXPECT_EQ(decide(table, {}, aid(2), 4, TieBreakMode::TotalOrder, votes).kind,
            Decision::Kind::Lose);
}

// ---------- quorum reads ----------

TEST(QuorumReads, ReadAgentReturnsFreshestCopy) {
  MarpConfig config;
  config.read_mode = ReadMode::QuorumAgent;
  Stack stack(5, config);
  stack.submit_write(1, 0, "fresh");
  stack.simulator.run();

  // Make the reader's local copy stale by force (simulates a lagging
  // replica); the quorum read must still return the committed value.
  stack.protocol.server(4).store().force("item", "stale", {0, 0});
  stack.submit_read(2, 4);
  stack.simulator.run();

  ASSERT_EQ(stack.trace.outcomes().size(), 2u);
  const auto& read = stack.trace.outcomes()[1];
  EXPECT_TRUE(read.success);
  EXPECT_EQ(read.value, "fresh");
  // Default read quorum for 5 unweighted votes: 5 − 2 = 3 servers.
  EXPECT_EQ(read.servers_visited, 3u);
  EXPECT_GT(read.read_version, (replica::Version{0, 0}));
}

TEST(QuorumReads, LocalModeCanReturnStale) {
  Stack stack(5);  // default ReadMode::LocalCopy
  stack.submit_write(1, 0, "fresh");
  stack.simulator.run();
  stack.protocol.server(4).store().force("item", "stale", {0, 0});
  stack.submit_read(2, 4);
  stack.simulator.run();
  EXPECT_EQ(stack.trace.outcomes()[1].value, "stale");  // the paper's trade
}

TEST(QuorumReads, CustomReadQuorumSize) {
  MarpConfig config;
  config.read_mode = ReadMode::QuorumAgent;
  config.read_quorum_votes = 5;  // read-all
  Stack stack(5, config);
  stack.submit_write(1, 0, "v");
  stack.simulator.run();
  stack.submit_read(2, 2);
  stack.simulator.run();
  EXPECT_EQ(stack.trace.outcomes()[1].servers_visited, 5u);
}

TEST(QuorumReads, ReadAgentSkipsFailedServersAndStillAnswers) {
  MarpConfig config;
  config.read_mode = ReadMode::QuorumAgent;
  Stack stack(5, config);
  stack.submit_write(1, 0, "durable");
  stack.simulator.run();
  stack.protocol.fail_server(1);
  stack.protocol.fail_server(2);
  stack.submit_read(2, 0);
  stack.simulator.run(60_s);
  ASSERT_EQ(stack.trace.outcomes().size(), 2u);
  EXPECT_TRUE(stack.trace.outcomes()[1].success);
  EXPECT_EQ(stack.trace.outcomes()[1].value, "durable");
}

TEST(QuorumReads, FailsExplicitlyWithoutQuorum) {
  MarpConfig config;
  config.read_mode = ReadMode::QuorumAgent;
  Stack stack(5, config);
  stack.submit_write(1, 0, "v");
  stack.simulator.run();
  for (net::NodeId node = 1; node <= 3; ++node) stack.protocol.fail_server(node);
  stack.submit_read(2, 0);
  stack.simulator.run(60_s);
  ASSERT_EQ(stack.trace.outcomes().size(), 2u);
  EXPECT_FALSE(stack.trace.outcomes()[1].success);
}

TEST(QuorumReads, ReadAgentStateRoundTrips) {
  ReadAgent original(3, 77, "some-key");
  serial::Writer w1;
  original.serialize(w1);
  ReadAgent copy;
  serial::Reader r(w1.bytes());
  copy.deserialize(r);
  EXPECT_TRUE(r.at_end());
  serial::Writer w2;
  copy.serialize(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

// ---------- recovery sync ----------

TEST(RecoverySync, RecoveredServerPullsMissedState) {
  Stack stack(5);  // recovery_sync defaults on
  stack.protocol.fail_server(4);
  stack.submit_write(1, 0, "missed-while-down");
  stack.simulator.run(30_s);
  EXPECT_FALSE(stack.protocol.server(4).store().read("item").has_value());

  stack.protocol.recover_server(4);
  stack.simulator.run(60_s);
  const auto value = stack.protocol.server(4).store().read("item");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->value, "missed-while-down");  // even with no new writes
}

TEST(RecoverySync, DisabledMeansOnlyCommitsCatchUp) {
  MarpConfig config;
  config.recovery_sync = false;
  Stack stack(5, config);
  stack.protocol.fail_server(4);
  stack.submit_write(1, 0, "missed");
  stack.simulator.run(30_s);
  stack.protocol.recover_server(4);
  stack.simulator.run(60_s);
  EXPECT_FALSE(stack.protocol.server(4).store().read("item").has_value());
  // A later commit closes the gap.
  stack.submit_write(2, 1, "later");
  stack.simulator.run(90_s);
  const auto value = stack.protocol.server(4).store().read("item");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->value, "later");
}

// ---------- server-side grant machinery ----------

TEST(UpdateGrants, StaleAttemptCannotResurrectAGrant) {
  Stack stack(5);
  MarpServer& server = stack.protocol.server(0);
  const agent::AgentId agent{1, 100, 0};

  // Attempt 1 granted, then withdrawn.
  UpdatePayload attempt1{agent, 1, 1, {}};
  EXPECT_EQ(server.handle_update_local(attempt1), MarpServer::GrantResult::Granted);
  server.handle_unlock_local(agent, 1);
  EXPECT_FALSE(server.update_holder().has_value());

  // A delayed duplicate of attempt 1 must be dropped, not re-granted.
  EXPECT_EQ(server.handle_update_local(attempt1), MarpServer::GrantResult::Stale);
  EXPECT_FALSE(server.update_holder().has_value());

  // A newer attempt from the same agent is fine.
  UpdatePayload attempt2{agent, 1, 2, {}};
  EXPECT_EQ(server.handle_update_local(attempt2), MarpServer::GrantResult::Granted);
}

TEST(UpdateGrants, CommittedAgentsUpdatesAreStale) {
  Stack stack(5);
  MarpServer& server = stack.protocol.server(0);
  const agent::AgentId agent{1, 100, 0};
  server.handle_commit_local(CommitPayload{agent, {}});
  EXPECT_EQ(server.handle_update_local(UpdatePayload{agent, 1, 3, {}}),
            MarpServer::GrantResult::Stale);
  EXPECT_FALSE(server.update_holder().has_value());
}

TEST(UpdateGrants, SecondSessionIsHeldNotGranted) {
  Stack stack(5);
  MarpServer& server = stack.protocol.server(0);
  const agent::AgentId first{1, 100, 0}, second{2, 200, 0};
  EXPECT_EQ(server.handle_update_local(UpdatePayload{first, 1, 1, {}}),
            MarpServer::GrantResult::Granted);
  EXPECT_EQ(server.handle_update_local(UpdatePayload{second, 2, 1, {}}),
            MarpServer::GrantResult::Held);
  EXPECT_EQ(*server.update_holder(), first);
  // Commit by the holder releases for the next session.
  server.handle_commit_local(CommitPayload{first, {}});
  EXPECT_EQ(server.handle_update_local(UpdatePayload{second, 2, 2, {}}),
            MarpServer::GrantResult::Granted);
}

TEST(UpdateGrants, UnlockOfOlderAttemptDoesNotReleaseNewer) {
  Stack stack(5);
  MarpServer& server = stack.protocol.server(0);
  const agent::AgentId agent{1, 100, 0};
  EXPECT_EQ(server.handle_update_local(UpdatePayload{agent, 1, 5, {}}),
            MarpServer::GrantResult::Granted);
  server.handle_unlock_local(agent, 4);  // late unlock of attempt 4
  EXPECT_TRUE(server.update_holder().has_value());  // attempt 5 keeps holding
  server.handle_unlock_local(agent, 5);
  EXPECT_FALSE(server.update_holder().has_value());
}

// ---------- wire round trips for the extension payloads ----------

TEST(Wire, ReadReportRoundTrip) {
  ReadReportPayload payload;
  payload.request_id = 42;
  payload.success = true;
  payload.value = "value";
  payload.version = {123, 4};
  payload.servers_visited = 3;
  const ReadReportPayload copy = ReadReportPayload::decode(payload.encode());
  EXPECT_EQ(copy.request_id, 42u);
  EXPECT_TRUE(copy.success);
  EXPECT_EQ(copy.value, "value");
  EXPECT_EQ(copy.version, (replica::Version{123, 4}));
  EXPECT_EQ(copy.servers_visited, 3u);
}

TEST(Wire, SyncPayloadRoundTrip) {
  SyncPayload payload;
  payload.items.push_back({"a", "1", {1, 0}});
  payload.items.push_back({"b", "2", {2, 3}});
  const SyncPayload copy = SyncPayload::decode(payload.encode());
  ASSERT_EQ(copy.items.size(), 2u);
  EXPECT_EQ(copy.items[1].key, "b");
  EXPECT_EQ(copy.items[1].version, (replica::Version{2, 3}));
}

TEST(Wire, UnlockAndNackRoundTrip) {
  const UnlockPayload unlock{{1, 2, 3}, 7};
  const UnlockPayload unlock_copy = UnlockPayload::decode(unlock.encode());
  EXPECT_EQ(unlock_copy.agent, (agent::AgentId{1, 2, 3}));
  EXPECT_EQ(unlock_copy.attempt, 7u);

  const NackPayload nack{4, 9, {5, 6, 7}};
  const NackPayload nack_copy = NackPayload::decode(nack.encode());
  EXPECT_EQ(nack_copy.server, 4u);
  EXPECT_EQ(nack_copy.attempt, 9u);
  EXPECT_EQ(nack_copy.holder, (agent::AgentId{5, 6, 7}));
}

// ---------- message loss and partitions ----------

class LossySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossySeeds, MarpDrainsUnderReliableChannelsWithLoss) {
  // The paper's §2 channel model: reliable but with unpredictable finite
  // delays. 10% transient loss with transport retransmission must not cost
  // a single request.
  Stack stack(5, {}, GetParam());
  stack.network.set_drop_probability(0.10);
  stack.network.set_loss_mode(net::Network::LossMode::Retransmit);
  for (net::NodeId node = 0; node < 5; ++node) {
    for (int i = 0; i < 4; ++i) {
      stack.submit_write(100 + node * 10 + i, node,
                         "n" + std::to_string(node) + "i" + std::to_string(i));
    }
  }
  stack.simulator.run(300_s);
  EXPECT_EQ(stack.trace.completed(), 20u);
  EXPECT_EQ(stack.trace.successful_writes(), 20u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value()) << "node " << node;
  }
}

TEST_P(LossySeeds, MarpStaysSafeUnderPermanentLoss) {
  // Outside the paper's model (UDP-like permanent drops): liveness is not
  // promised — REPORT/COMMIT messages can vanish — but safety must hold.
  Stack stack(5, {}, GetParam());
  stack.network.set_drop_probability(0.05);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.submit_write(200 + node, node, "p" + std::to_string(node));
  }
  stack.simulator.run(300_s);
  EXPECT_LE(stack.trace.completed(), 5u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  // Whatever committed is version-monotone everywhere.
  for (net::NodeId node = 0; node < 5; ++node) {
    replica::Version previous = replica::Version::none();
    for (const auto& record : stack.protocol.server(node).store().history()) {
      EXPECT_GT(record.version, previous);
      previous = record.version;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossySeeds, ::testing::Values(3, 14, 159));

TEST(Partitions, MinoritySideCannotCommitMajoritySideCan) {
  Stack stack(5);
  // {0,1} vs {2,3,4}.
  stack.network.partition({0, 1});
  stack.submit_write(1, 0, "minority-write");
  stack.submit_write(2, 3, "majority-write");
  stack.simulator.run(120_s);

  // The majority side commits; replicas 2-4 converge on it.
  for (net::NodeId node : {2u, 3u, 4u}) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value()) << "node " << node;
    EXPECT_EQ(value->value, "majority-write");
  }
  // The minority side must NOT have committed its write anywhere.
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    if (value) EXPECT_NE(value->value, "minority-write");
  }
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);

  // Healing lets new writes reach everyone.
  stack.network.heal_partition();
  stack.submit_write(3, 1, "after-heal");
  stack.simulator.run(300_s);
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, "after-heal");
  }
}

}  // namespace
}  // namespace marp::core
