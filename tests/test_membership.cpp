// Dynamic membership: epoch-stamped views, rendezvous placement, the
// per-group mapped quorum geometry, two-phase join/leave over the live
// protocol, the (group, epoch)-scoped Theorem-2 monitor (the seeded
// MixedEpoch mutant must be caught), and the bugfix-sweep regressions on
// the read path and the workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/scenario.hpp"
#include "marp/protocol.hpp"
#include "marp/read_agent.hpp"
#include "marp/server.hpp"
#include "marp/wire.hpp"
#include "membership/mapped_quorum.hpp"
#include "membership/placement.hpp"
#include "membership/view.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "shard/router.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace marp {
namespace {

using namespace marp::sim::literals;

// ---------- placement ----------

TEST(MembershipPlacement, ViewShapeAndDeterminism) {
  const std::vector<net::NodeId> active{0, 1, 2, 3, 4, 5, 6, 7};
  const auto view = membership::make_view(1, active, 3, 4);
  EXPECT_EQ(view.epoch, 1u);
  EXPECT_TRUE(view.enabled());
  ASSERT_EQ(view.num_groups(), 4u);
  for (shard::GroupId g = 0; g < 4; ++g) {
    const auto& replicas = view.replicas_of(g);
    ASSERT_EQ(replicas.size(), 3u);
    auto sorted = replicas;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (const net::NodeId r : replicas) {
      EXPECT_TRUE(std::find(active.begin(), active.end(), r) != active.end());
      EXPECT_TRUE(view.hosts(r, g));
    }
  }
  // Placement is a pure function of (epoch, active, rf, groups).
  EXPECT_EQ(view, membership::make_view(1, active, 3, 4));
  // rf = 0 degenerates to full replication over the active set.
  const auto full = membership::make_view(1, active, 0, 4);
  for (shard::GroupId g = 0; g < 4; ++g) {
    EXPECT_EQ(full.replicas_of(g).size(), active.size());
  }
}

TEST(MembershipPlacement, ChurnMovesOnlyAffectedGroups) {
  constexpr std::size_t kGroups = 16;
  const auto before = membership::make_view(1, {0, 1, 2, 3}, 3, kGroups);

  // Rendezvous stability on leave: a group only changes replicas if the
  // leaver hosted it, and the change is exactly "leaver replaced".
  const auto after_leave = membership::make_view(2, {0, 2, 3}, 3, kGroups);
  for (shard::GroupId g = 0; g < kGroups; ++g) {
    EXPECT_FALSE(after_leave.hosts(1, g));
    if (before.replica_set(g) != after_leave.replica_set(g)) {
      EXPECT_TRUE(before.hosts(1, g)) << "group " << g << " moved spuriously";
    }
  }

  // Stability on join: a group only changes if the joiner won a slot in it.
  const auto after_join = membership::make_view(2, {0, 1, 2, 3, 4}, 3, kGroups);
  for (shard::GroupId g = 0; g < kGroups; ++g) {
    if (before.replica_set(g) != after_join.replica_set(g)) {
      EXPECT_TRUE(after_join.hosts(4, g)) << "group " << g << " moved spuriously";
    }
  }
}

TEST(MembershipView, SerializeRoundTripAndHosting) {
  const auto view = membership::make_view(7, {1, 4, 6, 9}, 2, 5);
  serial::Writer w;
  view.serialize(w);
  serial::Reader r(w.bytes());
  EXPECT_EQ(membership::MembershipView::deserialize(r), view);

  EXPECT_TRUE(view.is_member(4));
  EXPECT_FALSE(view.is_member(2));
  for (const net::NodeId node : {1, 4, 6, 9}) {
    for (const shard::GroupId g : view.groups_hosted(node)) {
      EXPECT_TRUE(view.hosts(node, g));
    }
  }
  EXPECT_TRUE(view.groups_hosted(2).empty());
}

// ---------- the mapped per-group geometry ----------

TEST(MappedQuorumGeometry, IntersectionOverArbitraryNodeIds) {
  const std::vector<net::NodeId> replicas{3, 9, 12, 17, 30};
  std::vector<quorum::QuorumSpec> specs(3);
  specs[0].geometry = quorum::Geometry::Majority;
  specs[1].geometry = quorum::Geometry::Tree;
  specs[2].geometry = quorum::Geometry::Grid;
  const auto intersects = [](const quorum::NodeSet& a, const quorum::NodeSet& b) {
    return std::find_first_of(a.begin(), a.end(), b.begin(), b.end()) != a.end();
  };
  for (const auto& spec : specs) {
    const membership::MappedQuorum mq(spec, replicas);
    const auto writes = mq.write_quorums();
    const auto reads = mq.read_quorums();
    ASSERT_FALSE(writes.empty());
    ASSERT_FALSE(reads.empty());
    for (const auto& q : writes) {
      for (const net::NodeId n : q) {
        EXPECT_TRUE(std::find(replicas.begin(), replicas.end(), n) !=
                    replicas.end());
      }
      EXPECT_TRUE(mq.write_covered(q));
    }
    // Theorem 2's substrate, inside the group: any two write quorums meet,
    // and every read quorum meets every write quorum.
    for (const auto& a : writes) {
      for (const auto& b : writes) EXPECT_TRUE(intersects(a, b));
      for (const auto& b : reads) EXPECT_TRUE(intersects(a, b));
    }
    const auto picked = mq.pick_write_quorum({}, 12);
    ASSERT_TRUE(picked.has_value());
    EXPECT_TRUE(mq.write_covered(*picked));
    if (const auto around = mq.pick_write_quorum(quorum::NodeSet{9}, 3)) {
      EXPECT_FALSE(quorum::contains(*around, 9));
      EXPECT_TRUE(mq.write_covered(*around));
    }
  }
}

// ---------- live partial-replication deployments ----------

// One key per lock group (FNV router), deterministic.
std::vector<std::string> keys_for_groups(std::size_t lock_groups) {
  const shard::ShardRouter router(lock_groups);
  std::vector<std::string> keys(lock_groups);
  std::size_t covered = 0;
  for (int i = 0; covered < lock_groups && i < 4096; ++i) {
    std::string key = "key-" + std::to_string(i);
    const shard::GroupId g = router.group_of(key);
    if (keys[g].empty()) {
      keys[g] = std::move(key);
      ++covered;
    }
  }
  return keys;
}

struct MemberStack {
  explicit MemberStack(std::size_t n, core::MarpConfig config, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform, std::move(config)) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  void submit_write(std::uint64_t id, net::NodeId origin,
                    const std::string& key, const std::string& value) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = key;
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  void submit_read(std::uint64_t id, net::NodeId origin, const std::string& key) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Read;
    request.key = key;
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  core::MarpProtocol protocol;
  workload::TraceCollector trace;
};

TEST(MembershipDeployment, PartialReplicationSkipsNonReplicas) {
  core::MarpConfig config;
  config.num_lock_groups = 4;
  config.membership.replication_factor = 3;
  MemberStack stack(8, config);
  const auto keys = keys_for_groups(4);
  for (shard::GroupId g = 0; g < 4; ++g) {
    stack.submit_write(g + 1, static_cast<net::NodeId>((2 * g) % 8), keys[g],
                       "g" + std::to_string(g));
  }
  stack.simulator.run(5_s);

  ASSERT_EQ(stack.trace.successful_writes(), 4u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  const auto& view = stack.protocol.current_view();
  EXPECT_EQ(view.epoch, 1u);

  // Commits land on exactly the group's 3 replicas; the other 5 servers
  // never see the key — the partial-replication point of the PR.
  std::size_t idle_servers = 0;
  for (net::NodeId node = 0; node < 8; ++node) {
    bool hosts_any = false;
    for (shard::GroupId g = 0; g < 4; ++g) {
      const auto value = stack.protocol.server(node).store().read(keys[g]);
      if (view.hosts(node, g)) {
        hosts_any = true;
        ASSERT_TRUE(value.has_value()) << "node " << node << " group " << g;
        EXPECT_EQ(value->value, "g" + std::to_string(g));
      } else {
        EXPECT_FALSE(value.has_value()) << "node " << node << " group " << g;
      }
    }
    if (!hosts_any) ++idle_servers;
  }
  // rf=3 × 4 groups over 8 servers leaves at least one server hosting
  // nothing at all under rendezvous placement.
  EXPECT_GE(idle_servers, 1u);

  // Tours stay inside the replica set: ≤ 3 visits, versus the 5-server
  // majority a full-replication tour over N=8 would need.
  for (const auto& outcome : stack.trace.outcomes()) {
    EXPECT_LE(outcome.servers_visited, 3u);
  }
}

TEST(MembershipDeployment, JoinGainsGroupsAndCatchesUp) {
  core::MarpConfig config;
  config.num_lock_groups = 8;
  config.membership.replication_factor = 3;
  config.membership.initial_members = 4;
  MemberStack stack(5, config);
  const auto keys = keys_for_groups(8);
  for (shard::GroupId g = 0; g < 8; ++g) {
    stack.submit_write(g + 1, static_cast<net::NodeId>(g % 4), keys[g],
                       "v" + std::to_string(g));
  }
  stack.simulator.run(5_s);
  ASSERT_EQ(stack.trace.successful_writes(), 8u);
  ASSERT_FALSE(stack.protocol.current_view().is_member(4));

  ASSERT_TRUE(stack.protocol.request_join(4));
  stack.simulator.run(15_s);

  const auto& view = stack.protocol.current_view();
  EXPECT_EQ(view.epoch, 2u);
  EXPECT_EQ(stack.protocol.stats().view_changes, 1u);
  EXPECT_TRUE(view.is_member(4));
  EXPECT_FALSE(stack.protocol.server(4).catching_up());

  // Anti-entropy catch-up: the joiner holds exactly the keys of the groups
  // rendezvous gave it — pre-join commits included — and nothing else.
  const auto gained = view.groups_hosted(4);
  ASSERT_FALSE(gained.empty());
  for (shard::GroupId g = 0; g < 8; ++g) {
    const auto value = stack.protocol.server(4).store().read(keys[g]);
    if (view.hosts(4, g)) {
      ASSERT_TRUE(value.has_value()) << "joiner missing group " << g;
      EXPECT_EQ(value->value, "v" + std::to_string(g));
    } else {
      EXPECT_FALSE(value.has_value()) << "joiner over-replicated group " << g;
    }
  }

  // A post-join write to a gained group replicates to the joiner.
  const shard::GroupId gained_group = gained.front();
  stack.submit_write(100, 0, keys[gained_group], "after-join");
  stack.simulator.run(20_s);
  ASSERT_EQ(stack.trace.successful_writes(), 9u);
  const auto value = stack.protocol.server(4).store().read(keys[gained_group]);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->value, "after-join");
}

TEST(MembershipDeployment, GainerRefusesGrantsUntilCaughtUp) {
  // Leaving node 1 hands group 0 to node 3 ({0,1,2} → {0,2,3}): the gainer
  // must fence update grants through both phases of the change — first
  // because the new view is only promised, then because catch-up is still
  // running — and serve them again only once anti-entropy completed.
  core::MarpConfig config;
  config.num_lock_groups = 1;
  config.membership.replication_factor = 3;
  MemberStack stack(4, config);
  stack.submit_write(1, 0, "item", "seed");
  stack.simulator.run(2_s);
  ASSERT_EQ(stack.trace.successful_writes(), 1u);
  ASSERT_FALSE(stack.protocol.current_view().hosts(3, 0));

  ASSERT_TRUE(stack.protocol.request_leave(1));
  core::UpdatePayload probe;
  probe.agent = agent::AgentId{9, 999, 0};
  probe.reply_to = 3;
  probe.attempt = 1;
  probe.groups = {0};
  probe.epoch = 2;
  bool pending_fence_seen = false;
  bool catch_up_fence_seen = false;
  std::uint64_t steps = 0;
  while (!stack.simulator.idle() && steps < 100000) {
    stack.simulator.run_events(1);
    ++steps;
    core::MarpServer& gainer = stack.protocol.server(3);
    if (!gainer.catching_up()) continue;
    const auto result = gainer.handle_update_local(probe);
    if (gainer.view().epoch == 1) {
      // New view promised but not installed: epoch-2 sessions fence out.
      EXPECT_EQ(result, core::MarpServer::GrantResult::EpochStale);
      pending_fence_seen = true;
    } else {
      // View installed, catch-up still running: still no grants.
      EXPECT_EQ(result, core::MarpServer::GrantResult::CatchingUp);
      catch_up_fence_seen = true;
    }
  }
  EXPECT_TRUE(pending_fence_seen);
  EXPECT_TRUE(catch_up_fence_seen);

  core::MarpServer& gainer = stack.protocol.server(3);
  EXPECT_FALSE(gainer.catching_up());
  EXPECT_EQ(gainer.view().epoch, 2u);
  // Catch-up done: the same session is now grantable.
  EXPECT_EQ(gainer.handle_update_local(probe),
            core::MarpServer::GrantResult::Granted);
  // ... and it arrived with the pre-change commit.
  const auto value = gainer.store().read("item");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->value, "seed");
}

TEST(MembershipDeployment, LeaveRetiresAndDrainsTheLeaver) {
  core::MarpConfig config;
  config.num_lock_groups = 1;
  config.membership.replication_factor = 3;
  MemberStack stack(4, config);
  stack.submit_write(1, 0, "item", "before");
  stack.simulator.run(2_s);
  ASSERT_EQ(stack.trace.successful_writes(), 1u);

  ASSERT_TRUE(stack.protocol.request_leave(1));
  stack.simulator.run(12_s);
  const auto& view = stack.protocol.current_view();
  EXPECT_EQ(view.epoch, 2u);
  EXPECT_EQ(stack.protocol.stats().view_changes, 1u);
  EXPECT_FALSE(view.is_member(1));
  EXPECT_TRUE(stack.protocol.server(1).retired());
  EXPECT_TRUE(stack.protocol.server(1).locking_list(0).empty());

  // Post-leave traffic commits on the new replica set and never reaches
  // the leaver: its copy stays frozen at the pre-leave version.
  stack.submit_write(2, 0, "item", "after-leave");
  stack.simulator.run(20_s);
  ASSERT_EQ(stack.trace.successful_writes(), 2u);
  for (net::NodeId node = 0; node < 4; ++node) {
    const auto value = stack.protocol.server(node).store().read("item");
    if (view.hosts(node, 0)) {
      ASSERT_TRUE(value.has_value());
      EXPECT_EQ(value->value, "after-leave") << "node " << node;
    }
  }
  const auto leaver_copy = stack.protocol.server(1).store().read("item");
  ASSERT_TRUE(leaver_copy.has_value());
  EXPECT_EQ(leaver_copy->value, "before");
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
}

// ---------- (group, epoch)-scoped Theorem-2 monitor ----------

TEST(MembershipMonitor, MixedEpochQuorumFlagged) {
  // Self-validation of the epoch-scoped mutual-exclusion audit: under the
  // MixedEpoch mutant all fences are off, so two sessions can assemble
  // disjoint grant sets that each cover a write quorum of a *different*
  // epoch's replica set ({0,1} ⊂ e1's {0,1,2}; {2,3} ⊂ e2's {0,2,3}).
  // No single static geometry covers both — only the per-view scan can
  // flag the conflict, and it must.
  core::MarpConfig config;
  config.num_lock_groups = 1;
  config.membership.replication_factor = 3;
  config.mutant = core::ProtocolMutant::MixedEpoch;
  MemberStack stack(4, config);
  stack.simulator.run(1_s);
  ASSERT_TRUE(stack.protocol.request_leave(1));
  stack.simulator.run(10_s);
  ASSERT_EQ(stack.protocol.current_view().epoch, 2u);

  const agent::AgentId session_x{1, 101, 0};
  const agent::AgentId session_y{2, 202, 0};
  core::UpdatePayload px;
  px.agent = session_x;
  px.reply_to = 0;
  px.attempt = 1;
  px.groups = {0};
  px.epoch = 1;
  core::UpdatePayload py = px;
  py.agent = session_y;
  py.epoch = 2;

  ASSERT_EQ(stack.protocol.server(2).handle_update_local(py),
            core::MarpServer::GrantResult::Granted);
  ASSERT_EQ(stack.protocol.server(3).handle_update_local(py),
            core::MarpServer::GrantResult::Granted);
  // Control: Y covers epoch 2's quorum but no competitor holds anything.
  stack.protocol.note_update_quorum(session_y, {0}, 2);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);

  // The mutant lets X take epoch-1 grants on {0,1} (1 is retired, 0 has
  // installed epoch 2 — every fence is skipped).
  ASSERT_EQ(stack.protocol.server(0).handle_update_local(px),
            core::MarpServer::GrantResult::Granted);
  ASSERT_EQ(stack.protocol.server(1).handle_update_local(px),
            core::MarpServer::GrantResult::Granted);
  stack.protocol.note_update_quorum(session_y, {0}, 2);
  EXPECT_GE(stack.protocol.stats().mutex_violations, 1u);
}

// ---------- model checking join/leave against the agent schedules ----------

check::ScenarioConfig grid_churn_scenario() {
  check::ScenarioConfig config;
  config.servers = 5;
  config.agents = 2;
  config.lock_groups = 1;
  config.quorum.geometry = quorum::Geometry::Grid;
  config.membership_rf = 4;
  config.initial_members = 4;
  config.join_node = 4;
  config.join_at = sim::SimTime::millis(3);
  config.leave_node = 1;
  config.leave_at = sim::SimTime::millis(12);
  return config;
}

TEST(MembershipCheck, GridJoinLeaveCanonicalRunClean) {
  check::CheckScenario scenario(grid_churn_scenario());
  const check::RunOutcome out = scenario.run(nullptr);
  EXPECT_FALSE(out.violation) << out.problem;
  EXPECT_EQ(out.outcomes, 2u);
  // Both scripted changes landed: epoch 1 → 3.
  EXPECT_EQ(scenario.protocol().stats().view_changes, 2u);
  EXPECT_EQ(scenario.protocol().current_view().epoch, 3u);
}

TEST(MembershipCheck, GridJoinLeaveBoundedExplorationClean) {
  // A bounded slice of the interleaving space with one join and one leave
  // racing two concurrent write sessions on a 2×2 grid: Theorems 1–3 and
  // the scoped convergence oracle must hold on every explored schedule.
  check::ExploreLimits limits;
  limits.max_schedules = 300;
  const check::ExploreReport report = explore(grid_churn_scenario(), limits);
  EXPECT_GT(report.schedules_explored, 1u);
  EXPECT_TRUE(report.violations.empty()) << report.violations.front().problem;
}

// ---------- bugfix-sweep regressions ----------

TEST(WorkloadRegression, WritesPerUpdateCountsLogicalArrivals) {
  // max_requests_per_server caps logical arrivals; each write arrival still
  // expands into writes_per_update requests. The old counter charged the
  // cap per expanded request, silently under-delivering the workload 3×.
  sim::Simulator simulator(7);
  workload::WorkloadConfig config;
  config.arrivals = workload::ArrivalProcess::Uniform;
  config.mean_interarrival_ms = 1.0;
  config.write_fraction = 1.0;
  config.writes_per_update = 3;
  config.max_requests_per_server = 5;
  config.duration = sim::SimTime::seconds(10);
  std::uint64_t submitted = 0;
  workload::RequestGenerator generator(simulator, 2, config,
                                       [&](const replica::Request&) { ++submitted; });
  generator.start();
  simulator.run();
  EXPECT_EQ(generator.generated(), 30u);  // 2 servers × 5 arrivals × 3 writes
  EXPECT_EQ(generator.generated_writes(), 30u);
  EXPECT_EQ(submitted, 30u);
}

TEST(ReadPathRegression, UnknownCostNodesTourLast) {
  // Nodes beyond the routing-cost table have unknown cost. The old code
  // priced them at 0, making never-measured nodes the *preferred* next hop;
  // they must be priced at the worst known link instead.
  const std::vector<std::int64_t> costs{0, 7, 3};  // table ends at node 2
  EXPECT_EQ(core::pick_cheapest_node({1, 2, 5}, {}, 0, costs), 2u);
  // Unknown (= 7) ties the worst known link: lower id wins.
  EXPECT_EQ(core::pick_cheapest_node({5, 1}, {}, 0, costs), 1u);
  // All candidates unknown: deterministic lower-id pick, never a crash.
  EXPECT_EQ(core::pick_cheapest_node({6, 4}, {}, 0, costs), 4u);
  // Exclusions and self still apply.
  EXPECT_EQ(core::pick_cheapest_node({0, 2}, {}, 0, costs), 2u);
  EXPECT_EQ(core::pick_cheapest_node({2}, {2}, 0, costs), net::kInvalidNode);
}

TEST(ReadPathRegression, AllLeaseHoldersDownFailsTheRead) {
  // With every read-lease holder crashed there is no read quorum at all.
  // The agent must report a *failed* read to its origin (and count the
  // anomaly) instead of touring forever or aborting the process.
  core::MarpConfig config;
  config.quorum.geometry = quorum::Geometry::ReadLease;
  config.read_mode = core::ReadMode::QuorumAgent;
  MemberStack stack(4, config);

  std::vector<net::NodeId> holders;
  for (const auto& lease : stack.protocol.quorum_system().read_quorums()) {
    ASSERT_EQ(lease.size(), 1u);
    holders.push_back(lease.front());
  }
  ASSERT_FALSE(holders.empty());
  net::NodeId origin = net::kInvalidNode;
  for (net::NodeId node = 0; node < 4; ++node) {
    if (std::find(holders.begin(), holders.end(), node) == holders.end()) {
      origin = node;
      break;
    }
  }
  ASSERT_NE(origin, net::kInvalidNode);
  for (const net::NodeId holder : holders) {
    stack.network.set_node_up(holder, false);
  }

  stack.submit_read(1, origin, "item");
  stack.simulator.run(5_s);
  ASSERT_EQ(stack.trace.outcomes().size(), 1u);
  EXPECT_FALSE(stack.trace.outcomes()[0].success);
  EXPECT_GE(stack.protocol.stats().anomalies.failed_read_quorums, 1u);
}

}  // namespace
}  // namespace marp
