#include "marp/priority.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace marp::core {

void LockSnapshot::serialize(serial::Writer& w) const {
  w.seq(agents, [](serial::Writer& ww, const agent::AgentId& id) { id.serialize(ww); });
  w.svarint(observed_us);
}

LockSnapshot LockSnapshot::deserialize(serial::Reader& r) {
  LockSnapshot s;
  s.agents = r.seq<agent::AgentId>(
      [](serial::Reader& rr) { return agent::AgentId::deserialize(rr); });
  s.observed_us = r.svarint();
  return s;
}

std::optional<agent::AgentId> filtered_head(
    const std::vector<agent::AgentId>& snapshot, const DoneSet& done) {
  for (const agent::AgentId& id : snapshot) {
    if (!done.contains(id)) return id;
  }
  return std::nullopt;
}

std::uint32_t vote_of(const VoteWeights& votes, net::NodeId node) {
  if (votes.empty()) return 1;
  MARP_REQUIRE(node < votes.size());
  return votes[node];
}

std::uint32_t total_votes(const VoteWeights& votes, std::size_t n_servers) {
  if (votes.empty()) return static_cast<std::uint32_t>(n_servers);
  MARP_REQUIRE(votes.size() == n_servers);
  std::uint32_t total = 0;
  for (std::uint32_t v : votes) total += v;
  return total;
}

std::map<agent::AgentId, std::uint32_t> top_counts(const LockTable& table,
                                                   const DoneSet& done,
                                                   const VoteWeights& votes) {
  std::map<agent::AgentId, std::uint32_t> counts;
  for (const auto& [node, snapshot] : table) {
    if (!snapshot.known()) continue;
    if (auto head = filtered_head(snapshot.agents, done)) {
      counts[*head] += vote_of(votes, node);
    }
  }
  return counts;
}

bool paper_tie_condition(std::uint32_t s, std::uint32_t m, std::size_t n) {
  // S + (N − M·S) < N/2, evaluated without integer truncation.
  const std::int64_t lhs =
      static_cast<std::int64_t>(s) +
      (static_cast<std::int64_t>(n) - static_cast<std::int64_t>(m) * s);
  return 2 * lhs < static_cast<std::int64_t>(n);
}

namespace {

// The SplitQuorum halves: ids below ⌈n/2⌉ and the rest.
quorum::NodeSet split_half(std::size_t n, bool upper) {
  const std::size_t cut = (n + 1) / 2;
  quorum::NodeSet half;
  for (std::size_t v = upper ? cut : 0; v < (upper ? n : cut); ++v) {
    half.push_back(static_cast<net::NodeId>(v));
  }
  return half;
}

// Geometry decision rule: coverage win, else optimistic tie-break once the
// known-head set spans a write quorum (see the decide() contract).
Decision decide_geometry(const LockTable& table, const DoneSet& done,
                         const agent::AgentId& self, TieBreakMode /*mode*/,
                         ProtocolMutant mutant,
                         const quorum::QuorumSystem& qs) {
  std::map<agent::AgentId, quorum::NodeSet> head_sets;
  quorum::NodeSet known;
  for (const auto& [node, snapshot] : table) {
    if (!snapshot.known()) continue;
    if (auto head = filtered_head(snapshot.agents, done)) {
      head_sets[*head].push_back(node);
      known.push_back(node);
    }
  }
  // LockTable iterates nodes ascending, so every NodeSet is already sorted.
  for (const auto& [id, nodes] : head_sets) {
    if (mutant_write_covered(qs, nodes, mutant)) {
      return {id == self ? Decision::Kind::Win : Decision::Kind::Lose, id};
    }
  }
  if (head_sets.empty() || !mutant_write_covered(qs, known, mutant)) return {};

  std::size_t max_count = 0;
  for (const auto& [id, nodes] : head_sets) {
    max_count = std::max(max_count, nodes.size());
  }
  std::vector<agent::AgentId> tied;
  for (const auto& [id, nodes] : head_sets) {
    if (nodes.size() == max_count) tied.push_back(id);
  }
  const agent::AgentId by_id = mutant == ProtocolMutant::TieBreakLargestId
                                   ? tied.back()
                                   : tied.front();
  return {by_id == self ? Decision::Kind::Win : Decision::Kind::Lose, by_id};
}

}  // namespace

bool mutant_write_covered(const quorum::QuorumSystem& qs,
                          const quorum::NodeSet& nodes, ProtocolMutant mutant) {
  if (mutant != ProtocolMutant::SplitQuorum) return qs.write_covered(nodes);
  for (const bool upper : {false, true}) {
    const quorum::NodeSet half = split_half(qs.size(), upper);
    if (std::includes(nodes.begin(), nodes.end(), half.begin(), half.end())) {
      return true;
    }
  }
  return false;
}

std::optional<quorum::NodeSet> mutant_pick_write_quorum(
    const quorum::QuorumSystem& qs, const quorum::NodeSet& excluded,
    net::NodeId prefer, ProtocolMutant mutant) {
  if (mutant != ProtocolMutant::SplitQuorum) {
    return qs.pick_write_quorum(excluded, prefer);
  }
  const std::size_t cut = (qs.size() + 1) / 2;
  const bool upper = prefer != net::kInvalidNode &&
                     static_cast<std::size_t>(prefer) < qs.size() &&
                     static_cast<std::size_t>(prefer) >= cut;
  quorum::NodeSet half = split_half(qs.size(), upper);
  std::erase_if(half, [&](net::NodeId v) { return quorum::contains(excluded, v); });
  if (half.empty()) return std::nullopt;
  return half;
}

Decision decide(const LockTable& table, const DoneSet& done,
                const agent::AgentId& self, std::size_t n_servers,
                TieBreakMode mode, const VoteWeights& votes,
                ProtocolMutant mutant, const quorum::QuorumSystem* quorum) {
  MARP_REQUIRE(n_servers >= 1);
  if (quorum != nullptr && quorum->geometry() != quorum::Geometry::Majority) {
    return decide_geometry(table, done, self, mode, mutant, *quorum);
  }
  const auto counts = top_counts(table, done, votes);
  const std::uint32_t all_votes = total_votes(votes, n_servers);

  // Majority rule: heading lists worth more than half the votes wins.
  // The MajorityOffByOne mutant lowers the bar to ⌈(V−1)/2⌉ — with three
  // one-vote servers a single list head "wins" (checker must catch this).
  for (const auto& [id, count] : counts) {
    const bool wins = mutant == ProtocolMutant::MajorityOffByOne
                          ? 2 * count >= all_votes - 1
                          : 2 * count > all_votes;
    if (wins) {
      return {id == self ? Decision::Kind::Win : Decision::Kind::Lose, id};
    }
  }

  // Tie handling needs the head of every list to be known and non-empty.
  std::size_t known_heads = 0;
  for (const auto& [node, snapshot] : table) {
    if (snapshot.known() && filtered_head(snapshot.agents, done)) ++known_heads;
  }
  if (known_heads < n_servers || counts.empty()) return {};

  std::uint32_t max_count = 0;
  for (const auto& [id, count] : counts) max_count = std::max(max_count, count);
  std::vector<agent::AgentId> tied;
  for (const auto& [id, count] : counts) {
    if (count == max_count) tied.push_back(id);
  }
  // std::map iterates ids in ascending order, so tied is sorted; the winner
  // by identifier is the front (Theorem 2's deterministic rule). The
  // TieBreakLargestId mutant takes the back instead.
  const agent::AgentId by_id = mutant == ProtocolMutant::TieBreakLargestId
                                   ? tied.back()
                                   : tied.front();

  switch (mode) {
    case TieBreakMode::PaperLiteral:
      // With weights, S and N are measured in votes rather than servers.
      if (!paper_tie_condition(max_count, static_cast<std::uint32_t>(tied.size()),
                               all_votes)) {
        return {};  // paper says "further processing is possible" — keep going
      }
      break;
    case TieBreakMode::TotalOrder:
      break;  // always resolvable with full information
  }
  return {by_id == self ? Decision::Kind::Win : Decision::Kind::Lose, by_id};
}

std::vector<agent::AgentId> predicted_order(const LockTable& table,
                                            const DoneSet& done,
                                            std::size_t n_servers,
                                            const VoteWeights& votes,
                                            std::size_t limit) {
  std::vector<agent::AgentId> order;
  DoneSet simulated = done;
  while (limit == 0 || order.size() < limit) {
    // The next TotalOrder winner, with everyone ranked so far treated as
    // committed (their queue entries logically removed). The prediction
    // stops where decide() has no winner for anyone.
    const Decision next = decide(table, simulated, agent::AgentId{}, n_servers,
                                 TieBreakMode::TotalOrder, votes);
    if (!next.winner) break;
    order.push_back(*next.winner);
    simulated.insert(*next.winner);
  }
  return order;
}

void merge_lock_tables(LockTable& table, const LockTable& incoming) {
  for (const auto& [node, snapshot] : incoming) {
    if (!snapshot.known()) continue;
    auto& slot = table[node];
    if (snapshot.observed_us > slot.observed_us) slot = snapshot;
  }
}

void merge_group_lock_tables(GroupLockTable& table, const GroupLockTable& incoming) {
  for (const auto& [group, tables] : incoming) {
    merge_lock_tables(table[group], tables);
  }
}

void serialize_lock_table(serial::Writer& w, const LockTable& table) {
  w.varint(table.size());
  for (const auto& [node, snapshot] : table) {
    w.varint(node);
    snapshot.serialize(w);
  }
}

LockTable deserialize_lock_table(serial::Reader& r) {
  LockTable table;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto node = static_cast<net::NodeId>(r.varint());
    table.emplace(node, LockSnapshot::deserialize(r));
  }
  return table;
}

void serialize_group_lock_table(serial::Writer& w, const GroupLockTable& table) {
  w.varint(table.size());
  for (const auto& [group, tables] : table) {
    w.varint(group);
    serialize_lock_table(w, tables);
  }
}

GroupLockTable deserialize_group_lock_table(serial::Reader& r) {
  GroupLockTable table;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto group = static_cast<shard::GroupId>(r.varint());
    table.emplace(group, deserialize_lock_table(r));
  }
  return table;
}

}  // namespace marp::core
