// Unit tests for MarpServer's local agent interface (Algorithm 2's
// server-side data structures): visit semantics, gossip exchange, cheap
// refresh, batching timers, and runs over star/ring topologies.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
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
        protocol(network, platform, std::move(config)) {}

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  MarpProtocol protocol;
};

agent::AgentId aid(std::uint32_t n) { return agent::AgentId{n, n * 100, 0}; }

// A key the router sends to lock group `g`.
std::string key_in_group(const shard::ShardRouter& router, shard::GroupId g) {
  for (int i = 0;; ++i) {
    std::string key = "key-" + std::to_string(i);
    if (router.group_of(key) == g) return key;
  }
}

TEST(MarpServerVisit, AppendsAndSnapshotsInArrivalOrder) {
  Stack stack(3);
  MarpServer& server = stack.protocol.server(0);
  GroupLockTable first;
  GroupLockTable second;
  server.visit(aid(1), {"item"}, first);
  server.visit(aid(2), {"item"}, second);
  EXPECT_EQ(first.at(0).at(0).agents, (std::vector<agent::AgentId>{aid(1)}));
  EXPECT_EQ(second.at(0).at(0).agents,
            (std::vector<agent::AgentId>{aid(1), aid(2)}));
  // Re-visit keeps the queue position.
  server.visit(aid(1), {"item"}, first);
  EXPECT_EQ(first.at(0).at(0).agents,
            (std::vector<agent::AgentId>{aid(1), aid(2)}));
}

TEST(MarpServerVisit, ReturnsRoutingCostsAndData) {
  Stack stack(4);
  MarpServer& server = stack.protocol.server(1);
  server.store().force("item", "local-copy", {5, 1});
  GroupLockTable tables;
  const auto result = server.visit(aid(1), {"item", "absent"}, tables);
  ASSERT_EQ(result.routing_costs.size(), 4u);
  EXPECT_EQ(result.routing_costs[1], 0);
  EXPECT_EQ(result.routing_costs[0], 2000);  // 2 ms mesh
  ASSERT_TRUE(result.data.contains("item"));
  EXPECT_EQ(result.data.at("item").value, "local-copy");
  EXPECT_FALSE(result.data.contains("absent"));  // never written
}

TEST(MarpServerVisit, GossipIsStoredAndReturnedFresher) {
  Stack stack(3);
  MarpServer& server = stack.protocol.server(0);

  // Visitor 1 leaves a group-0 snapshot of server 2 in the cache, and the
  // cache keeps this server's own fresh snapshot from the same visit.
  GroupLockTable carried;
  carried[0][2] = LockSnapshot{{aid(9)}, 50};
  server.visit(aid(1), {}, carried);
  EXPECT_EQ(server.gossip_cache().at(0).at(0), carried.at(0).at(0));

  // Visitor 2 receives it back.
  GroupLockTable second;
  server.visit(aid(2), {}, second);
  ASSERT_TRUE(second.contains(0));
  ASSERT_TRUE(second.at(0).contains(2));
  EXPECT_EQ(second.at(0).at(2).agents.front(), aid(9));

  // A staler carried snapshot does not overwrite the cache; its carrier
  // takes the cache's fresher one instead.
  GroupLockTable stale;
  stale[0][2] = LockSnapshot{{aid(8)}, 10};
  server.visit(aid(3), {}, stale);
  EXPECT_EQ(server.gossip_cache().at(0).at(2).agents.front(), aid(9));
  EXPECT_EQ(stale.at(0).at(2).agents.front(), aid(9));
  // A fresher one does, and its carrier keeps it.
  GroupLockTable fresher;
  fresher[0][2] = LockSnapshot{{aid(7)}, 90};
  server.visit(aid(4), {}, fresher);
  EXPECT_EQ(server.gossip_cache().at(0).at(2).agents.front(), aid(7));
  EXPECT_EQ(fresher.at(0).at(2).agents.front(), aid(7));
}

TEST(MarpServerVisit, GossipDisabledReturnsNothing) {
  MarpConfig config;
  config.gossip = false;
  Stack stack(3, config);
  MarpServer& server = stack.protocol.server(0);
  GroupLockTable carried;
  carried[0][2] = LockSnapshot{{aid(9)}, 50};
  server.visit(aid(1), {}, carried);
  // The carrier gains this server's snapshot and nothing else...
  EXPECT_EQ(carried.at(0).size(), 2u);
  EXPECT_EQ(carried.at(0).at(2).agents.front(), aid(9));
  EXPECT_TRUE(server.gossip_cache().empty());
  // ...and leaves nothing behind for the next visitor.
  GroupLockTable second;
  server.visit(aid(2), {}, second);
  EXPECT_EQ(second.at(0).size(), 1u);
  EXPECT_TRUE(second.at(0).contains(0));
}

TEST(MarpServerVisit, ForeignGroupGossipIsIgnored) {
  MarpConfig config;
  config.num_lock_groups = 2;
  Stack stack(3, config);
  MarpServer& server = stack.protocol.server(0);
  const std::string key0 = key_in_group(server.router(), 0);
  const std::string key1 = key_in_group(server.router(), 1);

  // A visitor whose keys route to group 0 carries a group-1 table.
  GroupLockTable carried;
  carried[1][2] = LockSnapshot{{aid(9)}, 50};
  server.visit(aid(1), {key0}, carried);
  EXPECT_FALSE(server.gossip_cache().contains(1));

  // A later group-1 visitor must not receive it.
  GroupLockTable later;
  server.visit(aid(2), {key1}, later);
  ASSERT_TRUE(later.contains(1));
  EXPECT_FALSE(later.at(1).contains(2));
  EXPECT_EQ(later.at(1).size(), 1u);  // only this server's own snapshot
}

TEST(MarpServerVisit, RefreshIsAppendingButLight) {
  Stack stack(3);
  MarpServer& server = stack.protocol.server(0);
  const auto refresh = server.refresh(aid(5));
  EXPECT_EQ(refresh.locking_lists.at(0).agents,
            (std::vector<agent::AgentId>{aid(5)}));
  EXPECT_TRUE(refresh.updated_list.empty());
  // Refresh did not pollute the gossip cache: a visit brings back nothing
  // but this server's own snapshot.
  EXPECT_TRUE(server.gossip_cache().empty());
  GroupLockTable tables;
  server.visit(aid(6), {}, tables);
  EXPECT_EQ(tables.at(0).size(), 1u);
}

TEST(MarpServerVisit, VisitOnFailedServerIsAContractViolation) {
  Stack stack(3);
  stack.protocol.server(1).fail();
  GroupLockTable tables;
  EXPECT_THROW(stack.protocol.server(1).visit(aid(1), {}, tables), ContractViolation);
}

// ---- The in-place gossip exchange against the three steps it replaced ----

// std::map Locking Tables, and the steps a visit ran before the exchange:
// the carried tables merged into the cache, a copy of the cache's hosted
// groups handed out before this server's fresh snapshots went in, and the
// agent's merge of that copy after recording those fresh snapshots.
using RefTable = std::map<net::NodeId, LockSnapshot>;
using RefGroups = std::map<shard::GroupId, RefTable>;

RefGroups ref_of(const GroupLockTable& tables) {
  RefGroups ref;
  for (const auto& [group, table] : tables) {
    ref[group] = RefTable(table.begin(), table.end());
  }
  return ref;
}

void ref_merge(RefTable& table, const RefTable& incoming) {
  for (const auto& [node, snapshot] : incoming) {
    if (!snapshot.known()) continue;
    auto& slot = table[node];
    if (snapshot.observed_us > slot.observed_us) slot = snapshot;
  }
}

void ref_merge_groups(RefGroups& tables, const RefGroups& incoming) {
  for (const auto& [group, table] : incoming) ref_merge(tables[group], table);
}

TEST(GossipExchange, MatchesTheThreeStepMerge) {
  constexpr std::size_t kServers = 4;
  constexpr std::size_t kGroups = 3;
  const std::vector<agent::AgentId> pool = {aid(1), aid(2), aid(3)};
  sim::Rng rng(2024);
  std::size_t hosted_visits = 0;
  std::size_t unhosted_visits = 0;
  for (int trial = 0; trial < 150; ++trial) {
    // Full replication, or every group on two of the four servers, so some
    // routed groups are not hosted where the visitor lands.
    MarpConfig config;
    config.num_lock_groups = kGroups;
    if (rng.bounded(2) == 0) config.membership.replication_factor = 2;
    Stack stack(kServers, config, 1 + static_cast<std::uint64_t>(trial));
    const shard::ShardRouter& router = stack.protocol.server(0).router();

    const std::uint64_t visits = 1 + rng.bounded(5);
    for (std::uint32_t v = 0; v < visits; ++v) {
      stack.simulator.run(stack.simulator.now() +
                          sim::SimTime::micros(static_cast<std::int64_t>(rng.bounded(3))));
      const std::int64_t now_us = stack.simulator.now().as_micros();
      const auto here = static_cast<net::NodeId>(rng.bounded(kServers));
      MarpServer& server = stack.protocol.server(here);

      std::vector<std::string> keys;
      for (shard::GroupId g = 0; g < kGroups; ++g) {
        if (rng.bounded(2) == 0) keys.push_back(key_in_group(router, g));
      }
      std::vector<shard::GroupId> routed = router.groups_of(keys);
      if (routed.empty()) routed.push_back(0);

      // The visitor's tables: some routed groups, each over a uniformly
      // random node subset, with stamps from unknown to ahead of this
      // server's clock, so ties at equal stamps with different lists,
      // unknown entries, disjoint node sets and empty sides all occur.
      GroupLockTable carried;
      for (const shard::GroupId g : routed) {
        if (rng.bounded(4) == 0) continue;
        LockTable& table = carried[g];
        const std::uint64_t nodes = rng.bounded(std::uint64_t{1} << kServers);
        for (net::NodeId node = 0; node < kServers; ++node) {
          if ((nodes >> node & 1) == 0) continue;
          std::vector<agent::AgentId> queue = pool;
          rng.shuffle(queue);
          queue.resize(rng.bounded(queue.size() + 1));
          const std::int64_t stamp =
              -1 + static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(now_us) + 5));
          table[node] = LockSnapshot{std::move(queue), stamp};
        }
      }

      RefGroups ref_cache = ref_of(server.gossip_cache());
      RefGroups ref_tables = ref_of(carried);
      server.visit(aid(10 + v), keys, carried);

      std::vector<shard::GroupId> hosted;
      for (const shard::GroupId g : routed) {
        if (server.electorate(g).hosts(here)) hosted.push_back(g);
      }
      hosted_visits += hosted.empty() ? 0 : 1;
      unhosted_visits += hosted.size() < routed.size() ? 1 : 0;
      ref_merge_groups(ref_cache, ref_tables);
      RefGroups handed_out;
      for (const shard::GroupId g : hosted) {
        if (const auto it = ref_cache.find(g); it != ref_cache.end()) {
          handed_out.emplace(g, it->second);
        }
      }
      for (const shard::GroupId g : hosted) {
        const LockSnapshot fresh{server.locking_list(g).snapshot(), now_us};
        ref_cache[g][here] = fresh;
        ref_tables[g][here] = fresh;
      }
      ref_merge_groups(ref_tables, handed_out);

      ASSERT_EQ(ref_of(carried), ref_tables) << "trial " << trial << " visit " << v;
      ASSERT_EQ(ref_of(server.gossip_cache()), ref_cache)
          << "trial " << trial << " visit " << v;
    }
  }
  EXPECT_GT(hosted_visits, 100u);
  EXPECT_GT(unhosted_visits, 50u);
}

TEST(MarpServerBatching, PendingCountAndTimerFlush) {
  MarpConfig config;
  config.batch_size = 3;
  config.batch_period = 10_ms;
  Stack stack(3, config);
  workload::TraceCollector trace;
  stack.protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });

  replica::Request request;
  request.id = 1;
  request.kind = replica::RequestKind::Write;
  request.key = "item";
  request.value = "v";
  request.origin = 0;
  request.submitted = stack.simulator.now();
  stack.protocol.submit(request);
  EXPECT_EQ(stack.protocol.server(0).pending_requests(), 1u);
  EXPECT_EQ(stack.platform.live_agents(), 0u);  // batch not full: no agent yet

  stack.simulator.run(5_ms);
  EXPECT_EQ(stack.protocol.server(0).pending_requests(), 1u);
  stack.simulator.run(60_s);  // period fires at 10 ms, then the write runs
  EXPECT_EQ(stack.protocol.server(0).pending_requests(), 0u);
  EXPECT_EQ(trace.successful_writes(), 1u);
}

// ---------- star / ring topology end-to-end ----------

template <typename MakeTopology>
void run_on_topology(MakeTopology&& make) {
  sim::Simulator simulator(17);
  net::Topology topology = make();
  net::Network network(simulator, topology,
                       std::make_unique<net::LanLatency>(topology.delays, 200.0,
                                                         12.5));
  agent::AgentPlatform platform(network);
  MarpProtocol protocol(network, platform);
  workload::TraceCollector trace;
  protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });
  for (net::NodeId node = 0; node < topology.size(); ++node) {
    replica::Request request;
    request.id = 1 + node;
    request.kind = replica::RequestKind::Write;
    request.key = "item";
    request.value = "t" + std::to_string(node);
    request.origin = node;
    request.submitted = simulator.now();
    protocol.submit(request);
  }
  simulator.run(60_s);
  EXPECT_EQ(trace.successful_writes(), topology.size());
  EXPECT_EQ(protocol.stats().mutex_violations, 0u);
  const auto reference = protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  for (net::NodeId node = 1; node < topology.size(); ++node) {
    const auto value = protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, reference->value);
  }
}

TEST(MarpTopologies, StarConverges) {
  run_on_topology([] { return net::make_star(5, 3_ms); });
}

TEST(MarpTopologies, RingConverges) {
  run_on_topology([] { return net::make_ring(6, 2_ms); });
}

TEST(MarpTopologies, RandomAsymmetricConverges) {
  run_on_topology([] {
    sim::Rng rng(23);
    return net::make_random(5, 1_ms, 20_ms, rng);
  });
}

}  // namespace
}  // namespace marp::core
