// Tests for Algorithm 1's priority calculation — the pure functions behind
// Theorems 1 and 2 — including a randomized agreement property: every agent
// applying `decide` to the same information must name the same winner.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "marp/priority.hpp"
#include "sim/random.hpp"

namespace marp::core {
namespace {

agent::AgentId aid(std::uint32_t n) { return agent::AgentId{n, n * 100, 0}; }

LockSnapshot snap(std::vector<agent::AgentId> agents, std::int64_t at = 1) {
  return LockSnapshot{std::move(agents), at};
}

TEST(FilteredHead, SkipsFinishedAgents) {
  const DoneSet done{aid(1)};
  EXPECT_EQ(*filtered_head({aid(1), aid(2), aid(3)}, done), aid(2));
  EXPECT_EQ(*filtered_head({aid(2), aid(1)}, done), aid(2));
  EXPECT_FALSE(filtered_head({aid(1)}, done).has_value());
  EXPECT_FALSE(filtered_head({}, {}).has_value());
}

std::vector<agent::AgentId> ids_of(const DoneSet& done) {
  return {done.begin(), done.end()};
}

serial::Bytes encode_run(const std::vector<agent::AgentId>& run) {
  serial::Writer w;
  w.varint(run.size());
  for (const agent::AgentId& id : run) id.serialize(w);
  return w.take();
}

TEST(DoneSet, DecodesAnyRunToTheSetInsertBuilds) {
  // The UAL's bytes may be outside input: an unsorted, repeated run must
  // decode to the set that inserting those ids builds, and re-encode
  // ascending and unique.
  const std::vector<agent::AgentId> run{aid(3), aid(1), aid(3), aid(2), aid(1)};
  const serial::Bytes bytes = encode_run(run);
  serial::Reader r(bytes);
  const DoneSet decoded = DoneSet::deserialize(r);
  EXPECT_TRUE(r.at_end());
  DoneSet inserted;
  for (const agent::AgentId& id : run) inserted.insert(id);
  EXPECT_EQ(decoded, inserted);
  EXPECT_EQ(ids_of(decoded), (std::vector<agent::AgentId>{aid(1), aid(2), aid(3)}));
  serial::Writer again;
  decoded.serialize(again);
  EXPECT_EQ(again.bytes(), encode_run({aid(1), aid(2), aid(3)}));
}

TEST(DoneSet, OversizedCountIsADecodeError) {
  serial::Writer w;
  w.varint(std::uint64_t{1} << 40);
  aid(1).serialize(w);
  aid(2).serialize(w);
  serial::Reader r(w.bytes());
  EXPECT_THROW(DoneSet::deserialize(r), serial::DecodeError);
}

TEST(DoneSet, BehavesAsAStdSet) {
  // insert / erase / merge / contains against std::set on random ids.
  sim::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    DoneSet a, b;
    std::set<agent::AgentId> ref_a, ref_b;
    for (int i = 0; i < 30; ++i) {
      const agent::AgentId id = aid(static_cast<std::uint32_t>(rng.bounded(40)));
      if (rng.bounded(2) == 0) {
        EXPECT_EQ(a.insert(id), ref_a.insert(id).second);
      } else {
        EXPECT_EQ(b.insert(id), ref_b.insert(id).second);
      }
      if (rng.bounded(5) == 0) {
        EXPECT_EQ(a.erase(id), ref_a.erase(id) == 1);
      }
    }
    a.merge(b);
    ref_a.insert(ref_b.begin(), ref_b.end());
    EXPECT_EQ(ids_of(a), (std::vector<agent::AgentId>(ref_a.begin(), ref_a.end())));
    for (std::uint32_t n = 0; n < 40; ++n) {
      EXPECT_EQ(a.contains(aid(n)), ref_a.contains(aid(n)));
    }
  }
}

TEST(TopCounts, CountsHeadsAcrossServers) {
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(2), aid(1)});
  table[3] = LockSnapshot{};  // unknown server contributes nothing
  const auto counts = top_counts(table, {});
  EXPECT_EQ(counts.at(aid(1)), 2u);
  EXPECT_EQ(counts.at(aid(2)), 1u);
}

TEST(Decide, MajorityWinsWithPartialInformation) {
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(1), aid(2)});
  // 3 of 5 heads known and all belong to agent 1 → majority of N=5.
  const Decision mine = decide(table, {}, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(mine.kind, Decision::Kind::Win);
  const Decision theirs = decide(table, {}, aid(2), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(theirs.kind, Decision::Kind::Lose);
  EXPECT_EQ(*theirs.winner, aid(1));
}

TEST(Decide, UnknownWithoutFullInformationAndNoMajority) {
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(2)});
  const Decision d = decide(table, {}, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d.kind, Decision::Kind::Unknown);
}

TEST(Decide, TotalOrderBreaksDeadlockedHeads) {
  // The {2,2,1} split that deadlocks the paper's literal rule (N = 5).
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(2)});
  table[3] = snap({aid(2)});
  table[4] = snap({aid(3)});
  const Decision d = decide(table, {}, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d.kind, Decision::Kind::Win);  // aid(1) < aid(2): smallest id wins
  const Decision d2 = decide(table, {}, aid(2), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d2.kind, Decision::Kind::Lose);
  EXPECT_EQ(*d2.winner, aid(1));

  // The literal rule declines: S=2, M=2 → 2 + (5−4) = 3, and 2·3 < 5 fails.
  const Decision literal = decide(table, {}, aid(1), 5, TieBreakMode::PaperLiteral);
  EXPECT_EQ(literal.kind, Decision::Kind::Unknown);
}

TEST(Decide, PaperLiteralFiresWhenConditionHolds) {
  // N = 7, M = 3 agents each topping S = 2 servers, 1 leftover head:
  // S + (N − M·S) = 2 + 1 = 3 and 2·3 < 7 → tie-break by id applies.
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(2)});
  table[3] = snap({aid(2)});
  table[4] = snap({aid(3)});
  table[5] = snap({aid(3)});
  table[6] = snap({aid(4)});
  const Decision d = decide(table, {}, aid(1), 7, TieBreakMode::PaperLiteral);
  EXPECT_EQ(d.kind, Decision::Kind::Win);
  EXPECT_EQ(*d.winner, aid(1));
}

TEST(PaperTieCondition, MatchesFormula) {
  // S + (N − M·S) < N/2, with exact halves.
  EXPECT_TRUE(paper_tie_condition(2, 3, 7));   // 2+1=3 < 3.5
  EXPECT_FALSE(paper_tie_condition(2, 2, 5));  // 2+1=3 !< 2.5
  EXPECT_FALSE(paper_tie_condition(1, 2, 5));  // 1+3=4 !< 2.5
  EXPECT_TRUE(paper_tie_condition(3, 3, 9));   // 3+0=3 < 4.5
}

TEST(Decide, DoneAgentsAreInvisible) {
  LockTable table;
  table[0] = snap({aid(9), aid(1)});
  table[1] = snap({aid(9), aid(1)});
  table[2] = snap({aid(1)});
  const DoneSet done{aid(9)};
  const Decision d = decide(table, done, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d.kind, Decision::Kind::Win);  // 9 committed → 1 heads 3 of 5
}

TEST(MergeLockTables, KeepsFresherSnapshots) {
  LockTable mine;
  mine[0] = snap({aid(1)}, 100);
  mine[1] = snap({aid(2)}, 50);
  LockTable theirs;
  theirs[0] = snap({aid(3)}, 60);   // staler: ignored
  theirs[1] = snap({aid(4)}, 70);   // fresher: adopted
  theirs[2] = snap({aid(5)}, 10);   // new server: adopted
  merge_lock_tables(mine, theirs);
  EXPECT_EQ(mine[0].agents.front(), aid(1));
  EXPECT_EQ(mine[1].agents.front(), aid(4));
  EXPECT_EQ(mine[2].agents.front(), aid(5));
}

TEST(ExchangeLockTables, EqualsTwoOneWayMerges) {
  sim::Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    LockTable a;
    LockTable b;
    for (LockTable* table : {&a, &b}) {
      for (net::NodeId node = 0; node < 8; ++node) {
        if (rng.bounded(3) == 0) continue;
        std::vector<agent::AgentId> queue = {aid(1), aid(2), aid(3)};
        rng.shuffle(queue);
        queue.resize(rng.bounded(queue.size() + 1));
        (*table)[node] = snap(std::move(queue), -1 + static_cast<std::int64_t>(rng.bounded(5)));
      }
    }
    LockTable want_a = a;
    merge_lock_tables(want_a, b);
    LockTable want_b = b;
    merge_lock_tables(want_b, a);
    exchange_lock_tables(a, b);
    EXPECT_EQ(a, want_a);
    EXPECT_EQ(b, want_b);
  }
}

TEST(LockTableSerialization, RoundTrips) {
  LockTable table;
  table[0] = snap({aid(1), aid(2)}, 111);
  table[3] = snap({}, 222);
  serial::Writer w;
  serialize_lock_table(w, table);
  serial::Reader r(w.bytes());
  const LockTable copy = deserialize_lock_table(r);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.at(0).agents, table.at(0).agents);
  EXPECT_EQ(copy.at(0).observed_us, 111);
  EXPECT_TRUE(copy.at(3).agents.empty());
  EXPECT_EQ(copy.at(3).observed_us, 222);
}

TEST(LockTableSerialization, HugeCountIsADecodeError) {
  serial::Writer w;
  w.varint(std::uint64_t{1} << 40);
  w.varint(0);
  serial::Reader r(w.bytes());
  EXPECT_THROW(deserialize_lock_table(r), serial::DecodeError);
  serial::Reader groups(w.bytes());
  EXPECT_THROW(deserialize_group_lock_table(groups), serial::DecodeError);
}

TEST(LockTableSerialization, RepeatedNodeKeepsItsFirstSnapshot) {
  serial::Writer w;
  w.varint(2);
  w.varint(3);
  snap({aid(1)}, 10).serialize(w);
  w.varint(3);
  snap({aid(2)}, 20).serialize(w);
  serial::Reader r(w.bytes());
  const LockTable table = deserialize_lock_table(r);
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.at(3), snap({aid(1)}, 10));
}

TEST(LockTableSerialization, OutOfOrderRunDecodesSortedAndReencodesAscending) {
  serial::Writer w;
  w.varint(3);
  for (const net::NodeId node : {5u, 1u, 3u}) {
    w.varint(node);
    snap({aid(node)}, node).serialize(w);
  }
  serial::Reader r(w.bytes());
  const LockTable table = deserialize_lock_table(r);
  std::vector<net::NodeId> order;
  for (const auto& [node, snapshot] : table) {
    order.push_back(node);
    EXPECT_EQ(snapshot, snap({aid(node)}, node));
  }
  EXPECT_EQ(order, (std::vector<net::NodeId>{1, 3, 5}));

  LockTable ascending;
  for (const net::NodeId node : {1u, 3u, 5u}) ascending[node] = snap({aid(node)}, node);
  serial::Writer again;
  serialize_lock_table(again, table);
  serial::Writer expected;
  serialize_lock_table(expected, ascending);
  EXPECT_EQ(again.bytes(), expected.bytes());
}

TEST(LockTable, BehavesLikeTheMapItReplaced) {
  sim::Rng rng(17);
  LockTable table;
  std::map<net::NodeId, LockSnapshot> ref;
  for (int step = 0; step < 2000; ++step) {
    const auto node = static_cast<net::NodeId>(rng.bounded(24));
    const LockSnapshot value = snap({aid(static_cast<std::uint32_t>(step))}, step);
    switch (rng.bounded(4)) {
      case 0:
        table[node] = value;
        ref[node] = value;
        break;
      case 1:
        EXPECT_EQ(table.emplace(node, value), ref.emplace(node, value).second);
        break;
      case 2:
        EXPECT_EQ(table[node], ref[node]);  // inserts an unknown snapshot
        break;
      default:
        ASSERT_EQ(table.contains(node), ref.contains(node));
        if (ref.contains(node)) {
          EXPECT_EQ(table.at(node), ref.at(node));
          EXPECT_EQ(table.find(node)->second, ref.at(node));
        } else {
          EXPECT_EQ(table.find(node), table.end());
          EXPECT_THROW(table.at(node), std::out_of_range);
        }
        break;
    }
    const std::map<net::NodeId, LockSnapshot> as_map(table.begin(), table.end());
    ASSERT_EQ(as_map, ref);
  }
}

// ---- §3.3 extension: predicting the full lock order ----

TEST(PredictedOrder, SimulatesSuccessiveWinners) {
  // Queues: s0 [1,2], s1 [1,3], s2 [2,1], s3 [2,3], s4 [3,1].
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(1), aid(3)});
  table[2] = snap({aid(2), aid(1)});
  table[3] = snap({aid(2), aid(3)});
  table[4] = snap({aid(3), aid(1)});
  // Heads {1:2, 2:2, 3:1}: tie-break gives 1; with 1 done, heads become
  // {2:3, 3:2} → 2 wins by majority; then 3 remains.
  const auto order = predicted_order(table, {}, 5);
  EXPECT_EQ(order, (std::vector<agent::AgentId>{aid(1), aid(2), aid(3)}));
}

TEST(PredictedOrder, LimitAndDoneFiltering) {
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(1), aid(2)});
  table[2] = snap({aid(1), aid(2)});
  const auto top1 = predicted_order(table, {}, 3, {}, 1);
  EXPECT_EQ(top1, (std::vector<agent::AgentId>{aid(1)}));
  // With agent 1 already done, agent 2 is next.
  const auto after = predicted_order(table, {aid(1)}, 3);
  EXPECT_EQ(after, (std::vector<agent::AgentId>{aid(2)}));
}

TEST(PredictedOrder, StopsWhenHeadsUnknown) {
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(2)});  // only 2 of 5 heads known: no tie-break
  const auto order = predicted_order(table, {}, 5);
  EXPECT_TRUE(order.empty());
}

TEST(PredictedOrder, RespectsVoteWeights) {
  LockTable table;
  table[0] = snap({aid(2), aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(1)});
  // Unweighted: agent 1 heads 2 of 3 → majority → first.
  EXPECT_EQ(predicted_order(table, {}, 3).front(), aid(1));
  // Node 0 carries 5 of 7 votes: agent 2's single heavy head wins.
  EXPECT_EQ(predicted_order(table, {}, 3, {5, 1, 1}).front(), aid(2));
}

class PredictedOrderAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredictedOrderAgreement, RankingIsCompleteAndConsistentWithDecide) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.bounded(5);
    const std::size_t agents = 2 + rng.bounded(5);
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(1 + rng.bounded(queue.size()));
      table[s] = snap(std::move(queue), trial);
    }
    std::set<agent::AgentId> queued;
    for (const auto& [node, snapshot] : table) {
      for (const auto& id : snapshot.agents) queued.insert(id);
    }

    const auto order = predicted_order(table, {}, n);
    ASSERT_FALSE(order.empty());  // rank 1 always exists with full heads
    // Every rank k must be exactly decide()'s winner once ranks 1..k−1 are
    // treated as done — the prediction is a faithful simulation of the
    // successive-winner process.
    DoneSet done;
    std::set<agent::AgentId> ranked;
    for (const agent::AgentId& predicted : order) {
      EXPECT_TRUE(queued.contains(predicted));
      EXPECT_TRUE(ranked.insert(predicted).second);  // no duplicates
      const Decision expected =
          decide(table, done, predicted, n, TieBreakMode::TotalOrder);
      ASSERT_EQ(expected.kind, Decision::Kind::Win)
          << "prediction disagrees with decide() at rank " << ranked.size();
      done.insert(predicted);
    }
    // The prediction stops exactly where decide() becomes undecidable for
    // everyone remaining (no majority and some head unknown).
    if (ranked.size() < queued.size()) {
      for (const agent::AgentId& remaining : queued) {
        if (ranked.contains(remaining)) continue;
        const Decision stuck =
            decide(table, done, remaining, n, TieBreakMode::TotalOrder);
        EXPECT_NE(stuck.kind, Decision::Kind::Win);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictedOrderAgreement,
                         ::testing::Values(7, 77, 777));

// ---- Theorem 1/2 property: agreement under a shared view ----

class DecideAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecideAgreement, AllAgentsNameTheSameWinner) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 3 + rng.bounded(6);        // 3..8 servers
    const std::size_t agents = 1 + rng.bounded(6);   // 1..6 agents
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));

    // Random full-information lock table: every server has a queue that is a
    // random permutation of a random non-empty subset of the agents.
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(1 + rng.bounded(queue.size()));
      table[s] = snap(std::move(queue), trial);
    }

    std::set<agent::AgentId> winners;
    std::size_t win_count = 0;
    for (const auto& self : ids) {
      const Decision d = decide(table, {}, self, n, TieBreakMode::TotalOrder);
      // Full information + TotalOrder: never Unknown.
      EXPECT_NE(d.kind, Decision::Kind::Unknown);
      ASSERT_TRUE(d.winner.has_value());
      winners.insert(*d.winner);
      if (d.kind == Decision::Kind::Win) {
        ++win_count;
        EXPECT_EQ(*d.winner, self);
      }
    }
    // Theorem 1/2: everyone agrees, and at most one self-declared winner.
    EXPECT_EQ(winners.size(), 1u);
    EXPECT_LE(win_count, 1u);
    // The agreed winner must actually be one of the competing agents.
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), *winners.begin()) != ids.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecideAgreement,
                         ::testing::Values(1, 17, 23, 901, 4242));

// ---- Independent oracle: the TotalOrder rule, restated from scratch ----
//
// decide() is checked against a second implementation of the same spec:
// majority of filtered heads wins outright; otherwise, with every head
// known, the smallest AgentId among the maximally-counted heads wins. Any
// divergence between the two is a bug in one of them.

std::optional<agent::AgentId> oracle_winner(const LockTable& table,
                                            const DoneSet& done,
                                            std::size_t n) {
  std::map<agent::AgentId, std::uint32_t> counts;
  std::size_t heads_known = 0;
  for (const auto& [node, snapshot] : table) {
    if (!snapshot.known()) continue;
    if (const auto head = filtered_head(snapshot.agents, done)) {
      ++counts[*head];
      ++heads_known;
    }
  }
  for (const auto& [id, count] : counts) {
    if (2 * count > n) return id;  // strict majority of all N lists
  }
  if (heads_known < n) return std::nullopt;  // some head unknown: no tie path
  std::uint32_t best = 0;
  for (const auto& [id, count] : counts) best = std::max(best, count);
  std::optional<agent::AgentId> winner;
  for (const auto& [id, count] : counts) {
    if (count == best && (!winner || id < *winner)) winner = id;
  }
  return winner;
}

class DecideOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecideOracle, MatchesIndependentRestatementOfTheRule) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 3 + rng.bounded(6);
    const std::size_t agents = 1 + rng.bounded(6);
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));
    // Random partial-information table: some servers unknown, some done.
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      if (rng.bounded(5) == 0) continue;  // never observed
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(rng.bounded(queue.size() + 1));
      table[s] = snap(std::move(queue), trial);
    }
    DoneSet done;
    for (const auto& id : ids) {
      if (rng.bounded(4) == 0) done.insert(id);
    }

    const auto expected = oracle_winner(table, done, n);
    for (const auto& self : ids) {
      const Decision d = decide(table, done, self, n, TieBreakMode::TotalOrder);
      if (!expected) {
        EXPECT_EQ(d.kind, Decision::Kind::Unknown);
      } else if (self == *expected) {
        EXPECT_EQ(d.kind, Decision::Kind::Win);
        EXPECT_EQ(*d.winner, *expected);
      } else {
        EXPECT_EQ(d.kind, Decision::Kind::Lose);
        EXPECT_EQ(*d.winner, *expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecideOracle, ::testing::Values(3, 31, 313));

// ---- Permutation invariance: relabeling servers cannot move the lock ----

TEST(Decide, ServerRelabelingDoesNotChangeTheWinner) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.bounded(5);
    std::vector<agent::AgentId> ids = {aid(1), aid(2), aid(3), aid(4)};
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(1 + rng.bounded(queue.size()));
      table[s] = snap(std::move(queue), trial);
    }
    // With uniform votes the rule only sees the multiset of queues, so any
    // permutation of node ids must produce the identical decision.
    std::vector<net::NodeId> relabel(n);
    for (net::NodeId s = 0; s < n; ++s) relabel[s] = s;
    rng.shuffle(relabel);
    LockTable permuted;
    for (const auto& [node, snapshot] : table) permuted[relabel[node]] = snapshot;

    for (const auto& self : ids) {
      const Decision a = decide(table, {}, self, n, TieBreakMode::TotalOrder);
      const Decision b = decide(permuted, {}, self, n, TieBreakMode::TotalOrder);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.winner, b.winner);
    }
  }
}

// ---- Seeded mutants: pin the exact faults the model checker must catch ----

TEST(ProtocolMutants, MajorityOffByOneAcceptsAHalfQuorum) {
  // N=3 with a single known head: the real rule has no majority (1 of 3)
  // and no full information, but the off-by-one mutant treats exactly-half
  // (2·1 ≥ 3−1) as a win. This premature Win is what lets two agents
  // update concurrently — the violation model_check --mutant majority
  // must surface on every interleaving where the second head is late.
  LockTable table;
  table[0] = snap({aid(1)});
  const Decision real = decide(table, {}, aid(1), 3, TieBreakMode::TotalOrder);
  EXPECT_EQ(real.kind, Decision::Kind::Unknown);
  const Decision mutant = decide(table, {}, aid(1), 3, TieBreakMode::TotalOrder,
                                 {}, ProtocolMutant::MajorityOffByOne);
  EXPECT_EQ(mutant.kind, Decision::Kind::Win);
}

TEST(ProtocolMutants, TieBreakLargestIdInvertsTheTieRule) {
  // Three servers, three distinct heads: a pure tie. The real rule elects
  // the smallest id; the mutant elects the largest — so two mutant agents
  // each believe a different winner, breaking Theorem 1 agreement.
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(2), aid(3)});
  table[2] = snap({aid(3), aid(1)});
  const Decision real = decide(table, {}, aid(1), 3, TieBreakMode::TotalOrder);
  EXPECT_EQ(real.kind, Decision::Kind::Win);
  EXPECT_EQ(*real.winner, aid(1));
  const Decision mutant = decide(table, {}, aid(3), 3, TieBreakMode::TotalOrder,
                                 {}, ProtocolMutant::TieBreakLargestId);
  EXPECT_EQ(mutant.kind, Decision::Kind::Win);
  EXPECT_EQ(*mutant.winner, aid(3));
}

}  // namespace
}  // namespace marp::core
