// Replica substrate tests: the versioned store's Thomas write rule, the
// Locking/Updated lists of §3.2, and the server base (fail-stop semantics,
// routing tables).
#include <gtest/gtest.h>

#include <memory>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "replica/locking.hpp"
#include "replica/server.hpp"
#include "replica/versioned_store.hpp"
#include "sim/simulator.hpp"

namespace marp::replica {
namespace {

using namespace marp::sim::literals;

TEST(Version, Ordering) {
  EXPECT_LT(Version::none(), (Version{0, 0}));
  EXPECT_LT((Version{5, 1}), (Version{6, 0}));  // time dominates
  EXPECT_LT((Version{5, 1}), (Version{5, 2}));  // writer breaks ties
  EXPECT_EQ((Version{5, 1}), (Version{5, 1}));
}

TEST(Version, SerializationRoundTrip) {
  const Version v{-1, 0};
  serial::Writer w;
  v.serialize(w);
  Version{123456, 7}.serialize(w);
  serial::Reader r(w.bytes());
  EXPECT_EQ(Version::deserialize(r), v);
  EXPECT_EQ(Version::deserialize(r), (Version{123456, 7}));
}

TEST(VersionedStore, ThomasWriteRuleAcceptsOnlyNewer) {
  VersionedStore store;
  EXPECT_TRUE(store.apply("k", "v1", {10, 0}));
  EXPECT_FALSE(store.apply("k", "stale", {5, 0}));    // older: rejected
  EXPECT_FALSE(store.apply("k", "same", {10, 0}));    // equal: rejected
  EXPECT_TRUE(store.apply("k", "v2", {10, 1}));       // writer tiebreak
  EXPECT_EQ(store.read("k")->value, "v2");
  EXPECT_EQ(store.version_of("k"), (Version{10, 1}));
}

TEST(VersionedStore, ReadMissingKey) {
  VersionedStore store;
  EXPECT_FALSE(store.read("absent").has_value());
  EXPECT_EQ(store.version_of("absent"), Version::none());
}

TEST(VersionedStore, HistoryRecordsAppliesInOrder) {
  VersionedStore store;
  store.apply("a", "1", {1, 0});
  store.apply("b", "2", {2, 0});
  store.apply("a", "old", {0, 0});  // rejected: not in history
  store.apply("a", "3", {3, 0});
  ASSERT_EQ(store.history().size(), 3u);
  EXPECT_EQ(store.history()[0].key, "a");
  EXPECT_EQ(store.history()[1].key, "b");
  EXPECT_EQ(store.history()[2].version, (Version{3, 0}));
}

TEST(VersionedStore, ForceOverwritesUnconditionally) {
  VersionedStore store;
  store.apply("k", "new", {100, 0});
  store.force("k", "rollback", {1, 0});
  EXPECT_EQ(store.read("k")->value, "rollback");
  EXPECT_EQ(store.version_of("k"), (Version{1, 0}));
}

TEST(VersionedStore, KeysSortedAndComplete) {
  VersionedStore store;
  store.apply("b", "x", {1, 0});
  store.apply("a", "y", {2, 0});
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(LockingList, AppendIsIdempotentAndOrdered) {
  LockingList ll;
  const agent::AgentId a{0, 1, 0}, b{1, 2, 0}, c{2, 3, 0};
  EXPECT_TRUE(ll.append(a, 1_ms));
  EXPECT_TRUE(ll.append(b, 2_ms));
  EXPECT_FALSE(ll.append(a, 3_ms));  // re-visit keeps the queue position
  EXPECT_TRUE(ll.append(c, 4_ms));
  EXPECT_EQ(ll.size(), 3u);
  EXPECT_EQ(*ll.head(), a);
  EXPECT_EQ(*ll.position(b), 1u);
  EXPECT_EQ(*ll.position(c), 2u);
  EXPECT_FALSE(ll.position({9, 9, 9}).has_value());
}

TEST(LockingList, RemoveAdvancesHead) {
  LockingList ll;
  const agent::AgentId a{0, 1, 0}, b{1, 2, 0};
  ll.append(a, 1_ms);
  ll.append(b, 2_ms);
  EXPECT_TRUE(ll.remove(a));
  EXPECT_FALSE(ll.remove(a));
  EXPECT_EQ(*ll.head(), b);
  EXPECT_TRUE(ll.remove(b));
  EXPECT_FALSE(ll.head().has_value());
  EXPECT_TRUE(ll.empty());
}

TEST(LockingList, SnapshotAndSerializationPreserveOrder) {
  LockingList ll;
  const agent::AgentId a{0, 5, 0}, b{1, 4, 0};  // b has smaller id but arrives later
  ll.append(a, 1_ms);
  ll.append(b, 2_ms);
  EXPECT_EQ(ll.snapshot(), (std::vector<agent::AgentId>{a, b}));

  serial::Writer w;
  ll.serialize(w);
  serial::Reader r(w.bytes());
  const LockingList copy = LockingList::deserialize(r);
  EXPECT_EQ(copy.snapshot(), ll.snapshot());
}

TEST(UpdatedList, DeduplicatesAndBounds) {
  UpdatedList ul(3);
  const agent::AgentId a{0, 1, 0}, b{0, 2, 0}, c{0, 3, 0}, d{0, 4, 0};
  ul.add(a);
  ul.add(a);
  EXPECT_EQ(ul.size(), 1u);
  ul.add(b);
  ul.add(c);
  ul.add(d);  // evicts the oldest (a)
  EXPECT_EQ(ul.size(), 3u);
  EXPECT_FALSE(ul.contains(a));
  EXPECT_TRUE(ul.contains(d));
}

TEST(UpdatedList, EvictsInCompletionOrderNotIdOrder) {
  UpdatedList ul(3);
  const agent::AgentId a{0, 1, 0}, b{0, 2, 0}, c{0, 3, 0}, d{0, 4, 0}, e{0, 5, 0};
  ul.add(c);
  ul.add(a);
  ul.add(d);  // completed c, a, d; the view is ascending all the same
  EXPECT_EQ(std::vector<agent::AgentId>(ul.ascending().begin(), ul.ascending().end()),
            (std::vector<agent::AgentId>{a, c, d}));
  ul.add(b);  // evicts c, the oldest completed — not a, the smallest id
  EXPECT_FALSE(ul.contains(c));
  EXPECT_TRUE(ul.contains(a));
  EXPECT_EQ(std::vector<agent::AgentId>(ul.ascending().begin(), ul.ascending().end()),
            (std::vector<agent::AgentId>{a, b, d}));
  ul.add(a);  // already recorded: keeps its completion slot
  ul.add(e);  // so a is the next evicted
  EXPECT_FALSE(ul.contains(a));
  EXPECT_EQ(std::vector<agent::AgentId>(ul.ascending().begin(), ul.ascending().end()),
            (std::vector<agent::AgentId>{b, d, e}));
  EXPECT_EQ(ul.size(), 3u);
}

TEST(UpdatedList, MergeIsUnion) {
  UpdatedList ul;
  const agent::AgentId a{0, 1, 0}, b{0, 2, 0};
  ul.add(a);
  ul.merge({a, b});
  EXPECT_EQ(ul.size(), 2u);
  EXPECT_TRUE(ul.contains(b));
}

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : simulator_(3),
        network_(simulator_, net::make_ring(4, 2_ms),
                 std::make_unique<net::ConstantLatency>(1_ms)) {}

  sim::Simulator simulator_;
  net::Network network_;
};

class PlainServer : public ServerBase {
 public:
  using ServerBase::ServerBase;
};

TEST_F(ServerFixture, FailStopsNetworkReachability) {
  PlainServer server(network_, 1);
  EXPECT_TRUE(server.up());
  EXPECT_TRUE(network_.node_up(1));
  server.fail();
  EXPECT_FALSE(server.up());
  EXPECT_FALSE(network_.node_up(1));
  server.fail();  // idempotent
  server.recover();
  EXPECT_TRUE(server.up());
  EXPECT_TRUE(network_.node_up(1));
}

TEST_F(ServerFixture, RoutingCostsMatchTopology) {
  PlainServer server(network_, 0);
  const auto costs = server.routing_costs();
  ASSERT_EQ(costs.size(), 4u);
  EXPECT_EQ(costs[0], 0);
  EXPECT_EQ(costs[1], 2000);
  EXPECT_EQ(costs[2], 4000);
  EXPECT_EQ(costs[3], 2000);  // ring: shorter direction
}

TEST_F(ServerFixture, OutcomeHandlerReceivesReports) {
  class Reporter : public ServerBase {
   public:
    using ServerBase::ServerBase;
    void emit() {
      Outcome outcome;
      outcome.request_id = 42;
      outcome.success = true;
      report(outcome);
    }
  };
  Reporter server(network_, 2);
  std::uint64_t seen = 0;
  server.set_outcome_handler([&](const Outcome& o) { seen = o.request_id; });
  server.emit();
  EXPECT_EQ(seen, 42u);
}

}  // namespace
}  // namespace marp::replica
