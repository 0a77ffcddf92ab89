// End-to-end tests of the MARP protocol: single and concurrent updates,
// Theorem 2 (mutual exclusion) and Theorem 3 (migration bounds), order
// preservation, reads, batching, gossip, routing and tie-break modes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "marp/protocol.hpp"
#include "marp/read_agent.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "rpc/frame.hpp"
#include "runner/consistency.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "workload/trace.hpp"

namespace marp::core {
namespace {

using namespace marp::sim::literals;

/// A complete MARP deployment over a constant-latency LAN mesh.
struct Stack {
  explicit Stack(std::size_t n, MarpConfig config = {}, std::uint64_t seed = 1,
                 sim::SimTime latency = 2_ms)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, latency),
                std::make_unique<net::ConstantLatency>(latency)),
        platform(network),
        protocol(network, platform, config) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  replica::Request write(std::uint64_t id, net::NodeId origin,
                         const std::string& value, const std::string& key = "item") {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = key;
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    return request;
  }

  replica::Request read(std::uint64_t id, net::NodeId origin,
                        const std::string& key = "item") {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Read;
    request.key = key;
    request.origin = origin;
    request.submitted = simulator.now();
    return request;
  }

  void expect_converged(const std::string& key, const std::string& value) {
    for (net::NodeId node = 0; node < protocol.size(); ++node) {
      const auto stored = protocol.server(node).store().read(key);
      ASSERT_TRUE(stored.has_value()) << "node " << node << " missing " << key;
      EXPECT_EQ(stored->value, value) << "node " << node;
    }
  }

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  MarpProtocol protocol;
  workload::TraceCollector trace;
};

TEST(Marp, SingleWriteCommitsEverywhere) {
  Stack stack(5);
  stack.protocol.submit(stack.write(1, 0, "hello"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  stack.expect_converged("item", "hello");
  EXPECT_EQ(stack.protocol.stats().updates_committed, 1u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  EXPECT_EQ(stack.platform.live_agents(), 0u);  // agent disposed itself
}

TEST(Marp, UncontendedWinnerVisitsExactlyMajority) {
  // Theorem 3 lower bound: with nobody competing, the agent knows it has won
  // after topping ⌈(N+1)/2⌉ locking lists.
  for (std::size_t n : {3u, 5u, 7u}) {
    Stack stack(n);
    stack.protocol.submit(stack.write(1, 0, "x"));
    stack.simulator.run();
    ASSERT_EQ(stack.trace.outcomes().size(), 1u);
    EXPECT_EQ(stack.trace.outcomes()[0].servers_visited, (n + 1) / 2)
        << "N = " << n;
  }
}

TEST(Marp, VisitsNeverExceedClusterSize) {
  // Theorem 3 upper bound under heavy contention from every server.
  Stack stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(100 + node, node, "v" + std::to_string(node)));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  for (const auto& outcome : stack.trace.outcomes()) {
    EXPECT_GE(outcome.servers_visited, 3u);
    EXPECT_LE(outcome.servers_visited, 5u);
  }
}

TEST(Marp, ConcurrentWritersSerializeWithoutMutexViolations) {
  Stack stack(5);
  for (int burst = 0; burst < 4; ++burst) {
    stack.simulator.schedule(sim::SimTime::millis(burst * 3), [&stack, burst] {
      for (net::NodeId node = 0; node < 5; ++node) {
        stack.protocol.submit(stack.write(1000 + burst * 10 + node, node,
                                          "b" + std::to_string(burst) + "n" +
                                              std::to_string(node)));
      }
    });
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 20u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  EXPECT_EQ(stack.protocol.stats().updates_committed, 20u);

  // Order preservation: the global commit log is strictly version-ordered...
  const auto order = runner::check_commit_order(stack.protocol.commit_log());
  EXPECT_TRUE(order.ok) << (order.problems.empty() ? "" : order.problems[0]);
  // ...and every replica converged to the same final copy.
  std::vector<const replica::VersionedStore*> stores;
  for (net::NodeId node = 0; node < 5; ++node) {
    stores.push_back(&stack.protocol.server(node).store());
  }
  const auto convergence =
      runner::check_convergence(stores, std::vector<bool>(5, true));
  EXPECT_TRUE(convergence.ok)
      << (convergence.problems.empty() ? "" : convergence.problems[0]);
}

TEST(Marp, ReadsAreLocalAndFast) {
  Stack stack(5);
  stack.protocol.submit(stack.write(1, 0, "payload"));
  stack.simulator.run();
  const auto write_end = stack.simulator.now();

  stack.protocol.submit(stack.read(2, 3));
  stack.simulator.run();
  ASSERT_EQ(stack.trace.outcomes().size(), 2u);
  const auto& read_outcome = stack.trace.outcomes()[1];
  EXPECT_EQ(read_outcome.value, "payload");
  // Local read: no network round trip — completes in the local op time.
  EXPECT_LE((read_outcome.completed - write_end).as_millis(), 1.0);
  EXPECT_EQ(stack.protocol.stats().reads_served, 1u);
}

TEST(Marp, BatchingShipsMultipleRequestsInOneAgent) {
  MarpConfig config;
  config.batch_size = 3;
  config.batch_period = 500_ms;
  Stack stack(5, config);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    stack.protocol.submit(stack.write(i, 0, "v" + std::to_string(i)));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 3u);
  // One agent carried the whole batch → one commit session.
  EXPECT_EQ(stack.protocol.stats().updates_committed, 1u);
  stack.expect_converged("item", "v3");  // batch order: last write wins
}

TEST(Marp, BatchPeriodFlushesPartialBatch) {
  MarpConfig config;
  config.batch_size = 10;
  config.batch_period = 20_ms;
  Stack stack(5, config);
  stack.protocol.submit(stack.write(1, 0, "lonely"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  stack.expect_converged("item", "lonely");
}

TEST(Marp, GossipOffStillConvergesAndCommits) {
  MarpConfig config;
  config.gossip = false;
  Stack stack(5, config);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(10 + node, node, "g" + std::to_string(node)));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
}

class RoutingModes : public ::testing::TestWithParam<RoutingPolicy> {};

TEST_P(RoutingModes, AllPoliciesCommitConcurrentLoad) {
  MarpConfig config;
  config.routing = GetParam();
  Stack stack(5, config);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(20 + node, node, "r" + std::to_string(node)));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, RoutingModes,
                         ::testing::Values(RoutingPolicy::CostAware,
                                           RoutingPolicy::Random,
                                           RoutingPolicy::ByServerId));

TEST(Marp, PaperLiteralTieBreakIsSafeButCanDeadlock) {
  // The literal tie condition S + (N − M·S) < N/2 declines to resolve head
  // splits like {2,2,1} (N = 5), so the published algorithm can deadlock
  // under contention. This test documents that: the run must stay SAFE
  // (no mutex violations, some progress, converged survivors) but is not
  // required to drain — that is what TieBreakMode::TotalOrder fixes.
  MarpConfig config;
  config.tie_break = TieBreakMode::PaperLiteral;
  Stack stack(5, config);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(30 + node, node, "t" + std::to_string(node)));
  }
  stack.simulator.run(60_s);
  EXPECT_GE(stack.trace.successful_writes(), 1u);  // first winner always exists
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);

  // Identical load under the TotalOrder extension drains completely.
  MarpConfig fixed;
  fixed.tie_break = TieBreakMode::TotalOrder;
  Stack stack2(5, fixed);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack2.protocol.submit(
        stack2.write(30 + node, node, "t" + std::to_string(node)));
  }
  stack2.simulator.run(60_s);
  EXPECT_EQ(stack2.trace.successful_writes(), 5u);
  EXPECT_EQ(stack2.protocol.stats().mutex_violations, 0u);
}

TEST(Marp, FreshestCopyWinsAcrossSessions) {
  // Writer A commits "first" via a quorum; writer B's later session must
  // observe a version above A's — even from a different origin.
  Stack stack(5);
  stack.protocol.submit(stack.write(1, 0, "first"));
  stack.simulator.run();
  stack.protocol.submit(stack.write(2, 4, "second"));
  stack.simulator.run();
  stack.expect_converged("item", "second");
  ASSERT_EQ(stack.protocol.commit_log().size(), 2u);
  EXPECT_LT(stack.protocol.commit_log()[0].entries.back().version,
            stack.protocol.commit_log()[1].entries.front().version);
}

TEST(Marp, MultiKeyBatchesKeepPerKeyConsistency) {
  MarpConfig config;
  config.batch_size = 2;
  Stack stack(5, config);
  replica::Request w1 = stack.write(1, 0, "apple", "fruit");
  replica::Request w2 = stack.write(2, 0, "carrot", "veg");
  stack.protocol.submit(w1);
  stack.protocol.submit(w2);
  stack.simulator.run();
  stack.expect_converged("fruit", "apple");
  stack.expect_converged("veg", "carrot");
}

TEST(Marp, UpdateAgentStateSurvivesSerializationMidFlight) {
  // Round-trip an UpdateAgent's full state through bytes and compare the
  // re-serialization — any divergence is a migration-corruption bug.
  UpdateAgent original(2, {{7, "key-a", "value-a"}, {8, "key-b", "value-b"}});
  serial::Writer w1;
  original.serialize(w1);

  UpdateAgent copy;
  serial::Reader r(w1.bytes());
  copy.deserialize(r);
  EXPECT_TRUE(r.at_end());

  serial::Writer w2;
  copy.serialize(w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
}

TEST(Marp, LoadedUpdateAgentsSurviveTheFrameCodec) {
  // Agents caught mid-tour after earlier commits carry a populated UAL and
  // per-group Locking Tables, which a fresh agent never has. Each must
  // re-encode to the identical migration frame after a trip through the
  // platform's frame codec.
  MarpConfig config;
  config.num_lock_groups = 4;
  Stack stack(7, config);
  std::size_t captured = 0;
  std::size_t largest_ual = 0;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    const auto origin = static_cast<net::NodeId>(i % 7);
    stack.protocol.submit(stack.write(i, origin, "v" + std::to_string(i),
                                      "key" + std::to_string(i % 11)));
    stack.simulator.run(stack.simulator.now() + 3_ms);
    for (net::NodeId node = 0; node < 7; ++node) {
      for (const agent::MobileAgent* resident :
           stack.platform.host(node).resident_agents()) {
        const auto* agent = dynamic_cast<const UpdateAgent*>(resident);
        if (agent == nullptr || agent->updated_agents().empty() ||
            agent->lock_tables().empty()) {
          continue;
        }
        const serial::Bytes frame = stack.platform.encode_frame(*agent);
        const std::unique_ptr<agent::MobileAgent> back =
            stack.platform.decode_frame(frame);
        const auto* copy = dynamic_cast<const UpdateAgent*>(back.get());
        ASSERT_NE(copy, nullptr);
        EXPECT_EQ(copy->updated_agents(), agent->updated_agents());
        EXPECT_EQ(stack.platform.encode_frame(*copy), frame);
        ++captured;
        largest_ual = std::max(largest_ual, agent->updated_agents().size());
      }
    }
  }
  stack.simulator.run();
  EXPECT_GE(captured, 20u);
  EXPECT_GE(largest_ual, 20u);
}

/// Whether `frame` decodes or is rejected with serial::DecodeError; any
/// other exception is a hole a damaged frame could reach (reported).
bool decodes_or_rejects(const agent::AgentPlatform& platform,
                        const serial::Bytes& frame, const std::string& what) {
  try {
    platform.decode_frame(frame);
  } catch (const serial::DecodeError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
    return false;
  }
  return true;
}

/// Records the agent frames the platform ships to remote nodes (the real
/// substrate's migrations) and drops every message.
class FrameRecorder final : public transport::Transport {
 public:
  bool send_message(const net::Message&) override { return true; }
  bool send_agent_frame(net::NodeId, const serial::Bytes& body,
                        std::uint64_t) override {
    frames.push_back(rpc::decode_transfer_body(body).frame);
    return true;
  }
  bool send_agent_ack(net::NodeId, std::uint64_t) override { return true; }
  bool reachable(net::NodeId) override { return true; }
  transport::TransportStats stats() const override { return {}; }

  std::vector<serial::Bytes> frames;
};

TEST(Marp, DamagedAgentFramesAreDecodeErrors) {
  // Update agents caught mid-tour with populated UALs and Locking Tables,
  // and read agents as node 0 ships them to remote nodes: part-way through
  // a read quorum, and — as transfers go unacked and revive — with more
  // and more servers declared unavailable. Every truncation of each frame
  // and a few hundred seeded single-byte flips must decode or throw
  // DecodeError, never anything else.
  MarpConfig config;
  config.num_lock_groups = 4;
  Stack stack(7, config);
  std::vector<serial::Bytes> update_frames;
  for (std::uint64_t i = 1; update_frames.size() < 12; ++i) {
    ASSERT_LE(i, 300u);
    const auto origin = static_cast<net::NodeId>(i % 7);
    stack.protocol.submit(stack.write(i, origin, "v" + std::to_string(i),
                                      "key" + std::to_string(i % 11)));
    stack.simulator.run(stack.simulator.now() + 3_ms);
    for (net::NodeId node = 0; node < 7; ++node) {
      for (const agent::MobileAgent* resident :
           stack.platform.host(node).resident_agents()) {
        const auto* agent = dynamic_cast<const UpdateAgent*>(resident);
        if (agent != nullptr && !agent->updated_agents().empty() &&
            !agent->lock_tables().empty() && update_frames.size() < 12) {
          update_frames.push_back(stack.platform.encode_frame(*agent));
        }
      }
    }
  }

  MarpConfig read_config;
  read_config.read_mode = ReadMode::QuorumAgent;
  Stack reads(7, read_config);
  FrameRecorder recorder;
  reads.network.attach_transport(&recorder, 0);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    reads.protocol.submit(reads.read(i, 0, "key" + std::to_string(i)));
  }
  reads.simulator.run();
  reads.network.attach_transport(nullptr, net::kInvalidNode);
  ASSERT_GE(recorder.frames.size(), 24u);
  std::vector<serial::Bytes> frames = update_frames;
  const std::size_t stride = recorder.frames.size() / 12;
  for (std::size_t k = 0; k < 12; ++k) frames.push_back(recorder.frames[k * stride]);
  ASSERT_TRUE(dynamic_cast<const ReadAgent*>(
                  stack.platform.decode_frame(frames.back()).get()) != nullptr);


  for (std::size_t f = 0; f < frames.size(); ++f) {
    const serial::Bytes& frame = frames[f];
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const serial::Bytes prefix(frame.begin(),
                                 frame.begin() + static_cast<std::ptrdiff_t>(cut));
      ASSERT_TRUE(decodes_or_rejects(stack.platform, prefix,
                                     "frame " + std::to_string(f) + " cut " +
                                         std::to_string(cut)));
    }
  }
  sim::Rng rng(0xF1A9);
  for (int flip = 0; flip < 400; ++flip) {
    const std::size_t f = rng.bounded(frames.size());
    serial::Bytes damaged = frames[f];
    const std::size_t at = rng.bounded(damaged.size());
    damaged[at] ^= static_cast<std::uint8_t>(1 + rng.bounded(255));
    ASSERT_TRUE(decodes_or_rejects(stack.platform, damaged,
                                   "frame " + std::to_string(f) + " flip at " +
                                       std::to_string(at)));
  }

  // A phase byte outside UpdateAgent::Phase, in an otherwise intact state.
  const UpdateAgent intact(2, {{7, "key-a", "value-a"}});
  serial::Writer state;
  intact.serialize(state);
  serial::Writer prefix;  // origin and pending writes precede the phase
  prefix.varint(2);
  prefix.varint(1);
  prefix.varint(7);
  prefix.str("key-a");
  prefix.str("value-a");
  serial::Bytes bad_phase = state.bytes();
  ASSERT_EQ(bad_phase[prefix.size()], 0u);  // Phase::Traveling
  bad_phase[prefix.size()] = 5;
  serial::Writer frame;
  frame.str(kUpdateAgentType);
  agent::AgentId{2, 5, 0}.serialize(frame);
  frame.raw(bad_phase);
  EXPECT_THROW(stack.platform.decode_frame(frame.bytes()), serial::DecodeError);
}

TEST(Marp, SingleServerDegenerateClusterWorks) {
  Stack stack(1);
  stack.protocol.submit(stack.write(1, 0, "solo"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  stack.expect_converged("item", "solo");
  ASSERT_EQ(stack.trace.outcomes().size(), 1u);
  EXPECT_EQ(stack.trace.outcomes()[0].servers_visited, 1u);
}

TEST(Marp, ThreeServerClusterMinimumQuorumIsTwo) {
  Stack stack(3);
  stack.protocol.submit(stack.write(1, 1, "n3"));
  stack.simulator.run();
  ASSERT_EQ(stack.trace.outcomes().size(), 1u);
  EXPECT_EQ(stack.trace.outcomes()[0].servers_visited, 2u);
  stack.expect_converged("item", "n3");
}

TEST(Marp, LockTimeIsContainedInTotalTime) {
  Stack stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(40 + node, node, "l" + std::to_string(node)));
  }
  stack.simulator.run();
  for (const auto& outcome : stack.trace.outcomes()) {
    EXPECT_LE(outcome.dispatched.as_micros(), outcome.lock_obtained.as_micros());
    EXPECT_LE(outcome.lock_obtained.as_micros(), outcome.completed.as_micros());
  }
  EXPECT_LE(stack.trace.average_lock_time_ms(), stack.trace.average_total_time_ms());
}

}  // namespace
}  // namespace marp::core
