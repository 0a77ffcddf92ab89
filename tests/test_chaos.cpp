// Chaos-hardening tests: the fault subsystem (scripted FaultPlans, the
// phase-probe injector) and the protocol hardening it exercises — idempotent
// COMMIT handling, commit retransmits across a partition, migration backoff
// over transiently lossy links, lock purging after agent kills.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp {
namespace {

using namespace marp::sim::literals;

struct MarpStack {
  explicit MarpStack(std::size_t n, core::MarpConfig config = {},
                     std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform, config) {
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

  void expect_converged(const std::string& value) {
    for (net::NodeId node = 0; node < network.size(); ++node) {
      const auto stored = protocol.server(node).store().read("item");
      ASSERT_TRUE(stored.has_value()) << "node " << node << " has no copy";
      EXPECT_EQ(stored->value, value) << "node " << node << " diverged";
    }
  }

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  core::MarpProtocol protocol;
  workload::TraceCollector trace;
};

// Satellite: partition-during-commit. The injector springs the cut at the
// UpdateQuorum phase event — the winner has its majority of ACKs, the
// Theorem-2 audit has run, and the COMMIT broadcast has not yet left the
// node. The isolated winner keeps retransmitting COMMIT (reliable_commit)
// until the heal lets it through; every replica must converge.
TEST(ChaosFaults, PartitionAtQuorumHealsToConvergence) {
  core::MarpConfig config;
  config.reliable_commit = true;
  MarpStack stack(5, config);

  fault::FaultPlan plan;
  fault::Action cut;
  cut.kind = fault::ActionKind::Partition;
  cut.on_phase = fault::PhaseTrigger{core::ProtocolPhase::UpdateQuorum, 1};
  cut.auto_group_size = 1;  // the winner alone, cut off from the majority
  cut.heal_after = 400_ms;
  plan.actions.push_back(cut);

  fault::FaultInjector injector(stack.network, stack.platform, stack.protocol,
                                plan);
  injector.arm();

  stack.submit_write(1, 0, "survives-the-cut");
  stack.simulator.run(30_s);

  EXPECT_EQ(injector.stats().phase_triggers_fired, 1u);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().heals, 1u);
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  // The COMMIT copies the partition swallowed had to be re-sent.
  EXPECT_GT(stack.protocol.stats().anomalies.commit_retransmits, 0u);
  stack.expect_converged("survives-the-cut");
}

// The abort mirror of the test above. Three of five servers are down, so
// the session visits the two live ones (queuing in both Locking Lists) and
// then aborts: no write quorum survives. The injector cuts the aborter off
// at the UpdateAbort phase event, before its RELEASE leaves, so the copy to
// the other live server is lost. The lingering agent must re-send RELEASE
// after the heal; without it the dead entry would head that server's
// Locking List for good.
TEST(ChaosFaults, PartitionAtAbortRetransmitsRelease) {
  core::MarpConfig config;
  config.reliable_commit = true;
  MarpStack stack(5, config);

  fault::FaultPlan plan;
  for (const net::NodeId node : {2u, 3u, 4u}) {
    fault::Action crash;
    crash.kind = fault::ActionKind::CrashServer;
    crash.node = node;
    plan.actions.push_back(crash);
  }
  fault::Action cut;
  cut.kind = fault::ActionKind::Partition;
  cut.on_phase = fault::PhaseTrigger{core::ProtocolPhase::UpdateAbort, 1};
  cut.auto_group_size = 1;  // the aborter alone
  cut.heal_after = 400_ms;  // well inside the linger's retransmit window
  plan.actions.push_back(cut);

  fault::FaultInjector injector(stack.network, stack.platform, stack.protocol,
                                plan);
  injector.arm();

  stack.submit_write(1, 0, "never-commits");
  stack.simulator.run(30_s);

  EXPECT_EQ(injector.stats().phase_triggers_fired, 1u);
  EXPECT_EQ(injector.stats().partitions, 1u);
  EXPECT_EQ(injector.stats().heals, 1u);
  EXPECT_EQ(stack.protocol.stats().updates_aborted, 1u);
  ASSERT_EQ(stack.trace.outcomes().size(), 1u);
  EXPECT_FALSE(stack.trace.outcomes()[0].success);
  // The RELEASE copies the partition swallowed had to be re-sent.
  EXPECT_GT(stack.protocol.stats().anomalies.release_retransmits, 0u);
  for (net::NodeId node = 0; node < stack.network.size(); ++node) {
    const core::MarpServer& server = stack.protocol.server(node);
    EXPECT_TRUE(server.locking_list(0).empty()) << "node " << node;
    EXPECT_FALSE(server.update_holder(0).has_value()) << "node " << node;
    EXPECT_TRUE(stack.platform.host(node).resident_agents().empty())
        << "node " << node;
  }
}

// Satellite: a duplicated COMMIT (re-delivered copy, retransmit overlap)
// re-applies under the Thomas write rule — same value, same version, no
// double bump — and is counted, not silently absorbed.
TEST(ChaosFaults, DuplicateCommitAppliesOnce) {
  MarpStack stack(3);
  core::MarpServer& server = stack.protocol.server(0);

  core::CommitPayload commit;
  commit.agent = agent::AgentId{1, 10, 1};
  commit.groups = {0};
  core::WriteOp op;
  op.key = "item";
  op.value = "exactly-once";
  op.version = replica::Version{1000, 1};
  commit.ops.push_back(op);

  server.handle_commit_local(commit);
  const auto first = server.store().read("item");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->value, "exactly-once");
  EXPECT_EQ(stack.protocol.stats().anomalies.duplicate_commits, 0u);

  server.handle_commit_local(commit);  // duplicate delivery
  server.handle_commit_local(commit);  // and another
  const auto after = server.store().read("item");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->value, "exactly-once");
  EXPECT_EQ(server.store().version_of("item"), op.version);  // no double bump
  EXPECT_EQ(stack.protocol.stats().anomalies.duplicate_commits, 2u);
}

// Satellite: a *reordered* COMMIT — an older commit arriving after a newer
// one has been applied — must not roll the copy backwards.
TEST(ChaosFaults, ReorderedStaleCommitCannotRollBack) {
  MarpStack stack(3);
  core::MarpServer& server = stack.protocol.server(0);

  core::CommitPayload newer;
  newer.agent = agent::AgentId{2, 20, 1};
  newer.groups = {0};
  newer.ops.push_back(core::WriteOp{"item", "new", replica::Version{2000, 2}});
  core::CommitPayload older;
  older.agent = agent::AgentId{1, 10, 1};
  older.groups = {0};
  older.ops.push_back(core::WriteOp{"item", "old", replica::Version{1000, 1}});

  server.handle_commit_local(newer);
  server.handle_commit_local(older);  // delayed in the network, arrives late

  const auto stored = server.store().read("item");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->value, "new");
  EXPECT_EQ(server.store().version_of("item"), (replica::Version{2000, 2}));
}

// reliable_commit under heavy drop faults: every copy of COMMIT/REPORT can
// be lost and the linger phase re-sends until each server acked. All
// replicas converge without any fail-stop having been declared.
TEST(ChaosFaults, DroppedCommitsAreRetransmittedUntilCovered) {
  core::MarpConfig config;
  config.reliable_commit = true;
  config.migration_retry_limit = 8;
  config.migration_retry_backoff = 20_ms;
  MarpStack stack(5, config, /*seed=*/7);

  net::LinkFaults faults;
  faults.drop = 0.35;
  stack.network.set_default_link_faults(faults);
  stack.simulator.schedule(2_s, [&stack] { stack.network.clear_link_faults(); });

  stack.submit_write(1, 0, "through-the-noise");
  stack.submit_write(2, 3, "through-the-noise");
  stack.simulator.run(60_s);

  EXPECT_EQ(stack.trace.successful_writes(), 2u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  EXPECT_GT(stack.network.stats().fault_drops, 0u);
  stack.expect_converged("through-the-noise");
}

// Migration backoff rides out a transiently lossy link instead of writing
// the replica off as unavailable (the fail-stop path): with spaced retries
// the tour completes once the fault window closes.
TEST(ChaosFaults, MigrationBackoffRidesOutLossyLinks) {
  core::MarpConfig config;
  config.reliable_commit = true;
  config.migration_retry_limit = 8;
  config.migration_retry_backoff = 30_ms;
  MarpStack stack(5, config, /*seed=*/3);

  net::LinkFaults faults;
  faults.drop = 0.9;  // migrations mostly fail while the window is open
  stack.network.set_default_link_faults(faults);
  stack.simulator.schedule(300_ms,
                           [&stack] { stack.network.clear_link_faults(); });

  stack.submit_write(1, 0, "patient");
  stack.simulator.run(60_s);

  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  EXPECT_GT(stack.platform.stats().migrations_failed, 0u);  // it did retry
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  stack.expect_converged("patient");
}

// KillAgents disposes in-flight UpdateAgents mid-tour; the §2 dead-agent
// notices purge their locking state everywhere, so the surviving writer
// neither deadlocks behind ghost entries nor violates mutual exclusion.
TEST(ChaosFaults, KilledAgentLocksArePurgedWithoutDeadlock) {
  MarpStack stack(5);

  fault::FaultPlan plan;
  fault::Action kill;
  kill.kind = fault::ActionKind::KillAgents;
  kill.at = 1_ms;  // inside the victim's first visit (2 ms service time)
  kill.node = 1;
  plan.actions.push_back(kill);

  fault::FaultInjector injector(stack.network, stack.platform, stack.protocol,
                                plan);
  injector.arm();

  stack.submit_write(1, 1, "doomed");
  stack.submit_write(2, 2, "survivor");
  stack.simulator.run(60_s);

  EXPECT_GE(injector.stats().agents_killed, 1u);
  EXPECT_GE(stack.trace.successful_writes(), 1u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  for (net::NodeId node = 0; node < 5; ++node) {
    EXPECT_EQ(stack.protocol.server(node).locking_list().size(), 0u)
        << "stale lock entries at node " << node;
  }
}

// A scripted crash at the quorum instant: the probe defers the kill to +0
// virtual time (the COMMIT broadcast is already in flight, exactly like a
// real crash straddling the decision); recovery sync brings the crashed
// winner back level.
TEST(ChaosFaults, CrashAtQuorumRecoversToConvergence) {
  core::MarpConfig config;
  config.reliable_commit = true;
  MarpStack stack(5, config);

  fault::FaultPlan plan;
  fault::Action crash;
  crash.kind = fault::ActionKind::CrashServer;
  crash.on_phase = fault::PhaseTrigger{core::ProtocolPhase::UpdateQuorum, 1};
  plan.actions.push_back(crash);  // node resolved to the winner at fire time
  fault::Action recover;
  recover.kind = fault::ActionKind::RecoverServer;
  recover.at = 2_s;
  plan.actions.push_back(recover);

  fault::FaultInjector injector(stack.network, stack.platform, stack.protocol,
                                plan);
  injector.arm();

  stack.submit_write(1, 0, "decided");
  stack.simulator.run(30_s);

  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().recoveries, 1u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  // The COMMIT left the winner before the deferred crash landed; with
  // recovery sync the crashed node pulls the state back on recovery.
  stack.expect_converged("decided");
}

// make_random_plan is a pure function of (seed, servers, duration): the
// same seed reproduces the same schedule bit-for-bit, and the seed space
// actually varies the scenarios.
TEST(ChaosFaults, RandomPlansAreDeterministicPerSeed) {
  const auto duration = 3_s;
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const fault::FaultPlan a = fault::make_random_plan(seed, 5, duration);
    const fault::FaultPlan b = fault::make_random_plan(seed, 5, duration);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
    EXPECT_EQ(a.lossy(), b.lossy()) << "seed " << seed;
    distinct.insert(a.describe());
  }
  EXPECT_GT(distinct.size(), 8u);  // not one degenerate schedule
}

}  // namespace
}  // namespace marp
