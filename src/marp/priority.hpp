// Pure priority-calculation functions for Algorithm 1.
//
// "The calculation of priority is done in a fully distributed manner by
// individual mobile agents" (§3.3): every agent applies these same functions
// to its Locking Table, so agreement (Theorem 1/2) reduces to the functions
// being deterministic — which also makes them directly property-testable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "agent/agent_id.hpp"
#include "agent/id_set.hpp"
#include "marp/config.hpp"
#include "net/message.hpp"
#include "quorum/quorum.hpp"
#include "serial/byte_buffer.hpp"
#include "shard/router.hpp"
#include "sim/time.hpp"

namespace marp::core {

/// One server's locking-list snapshot as known to an agent, stamped with
/// when it was observed (gossip carries older stamps than personal visits).
struct LockSnapshot {
  std::vector<agent::AgentId> agents;
  std::int64_t observed_us = -1;  ///< -1 = never observed

  bool known() const noexcept { return observed_us >= 0; }
  /// Whether this snapshot is known and strictly fresher than `other` — the
  /// one condition under which a table adopts it over its own.
  bool fresher_than(const LockSnapshot& other) const noexcept {
    return known() && observed_us > other.observed_us;
  }

  friend bool operator==(const LockSnapshot&, const LockSnapshot&) = default;

  void serialize(serial::Writer& w) const;
  static LockSnapshot deserialize(serial::Reader& r);
};

/// The agent's Locking Table (LT, §3.2): per-server snapshots, held as one
/// vector of (node, snapshot) entries sorted by node, each node once. With
/// lock groups, each group has its own independent LT (see GroupLockTable).
///
/// Every hop reads a table off the wire, exchanges it with the visited
/// server's gossip cache and hands it to decide(); a table holds one entry
/// per server the agent has heard of, so at N = 64 it is walked far more
/// often than it grows. Like a std::map it iterates nodes in ascending
/// order and offers `operator[]`, `find`, `contains`, `at`, `emplace` and
/// `[node, snapshot]` range-for; a lookup is a binary search and a walk one
/// pass over contiguous entries.
class LockTable {
 public:
  using value_type = std::pair<net::NodeId, LockSnapshot>;
  using const_iterator = std::vector<value_type>::const_iterator;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }

  const_iterator find(net::NodeId node) const {
    const std::size_t i = position(node);
    return i < size() && entries_[i].first == node ? begin() + i : end();
  }
  bool contains(net::NodeId node) const { return find(node) != end(); }
  /// The snapshot of `node`; throws std::out_of_range when absent.
  const LockSnapshot& at(net::NodeId node) const { return entries_[checked(node)].second; }
  LockSnapshot& at(net::NodeId node) { return entries_[checked(node)].second; }
  /// The snapshot of `node`, inserting an unknown one when absent.
  LockSnapshot& operator[](net::NodeId node);
  /// Insert `snapshot` for `node` unless the node is present; false if it was.
  bool emplace(net::NodeId node, LockSnapshot snapshot);

  friend bool operator==(const LockTable&, const LockTable&) = default;

  friend void merge_lock_tables(LockTable& table, const LockTable& incoming);
  friend void exchange_lock_tables(LockTable& a, LockTable& b);
  friend LockTable deserialize_lock_table(serial::Reader& r);

 private:
  /// Index of the first entry whose node is not below `node`.
  std::size_t position(net::NodeId node) const;
  /// Index of `node`'s entry; throws std::out_of_range when absent.
  std::size_t checked(net::NodeId node) const;
  /// Copy in every known entry of `other` whose node this table lacks, in
  /// one merge pass that allocates once (and not at all when none is new).
  void adopt_missing(const LockTable& other);

  std::vector<value_type> entries_;
};

/// Per-group locking tables — the sharded generalisation of the LT. An
/// agent only carries entries for the groups its write-set touches (one
/// table per lock group of its write-set, usually one), so the migrating
/// state stays proportional to the write-set, not the shard count.
using GroupLockTable = std::map<shard::GroupId, LockTable>;

/// Set of agents known to have finished (the agent's UAL, §3.2), ascending.
using DoneSet = agent::AgentIdSet;

/// Effective head of a snapshot once finished agents are filtered out.
/// Entries ahead of a live agent can only disappear by finishing, so the
/// filtered head of a (possibly stale) snapshot is never *behind* the true
/// head — the staleness-safety property the update rule relies on.
std::optional<agent::AgentId> filtered_head(const std::vector<agent::AgentId>& snapshot,
                                            const DoneSet& done);

/// Per-server vote weights. Empty means one vote per server — the paper's
/// simplification ("a quorum … is simply any majority of its copies",
/// §3.1); non-empty generalizes MARP to Gifford-style weighted voting.
using VoteWeights = std::vector<std::uint32_t>;

std::uint32_t vote_of(const VoteWeights& votes, net::NodeId node);
std::uint32_t total_votes(const VoteWeights& votes, std::size_t n_servers);

/// Head counts across all known servers ("Top-Count" of Algorithm 1),
/// weighted by each server's votes.
std::map<agent::AgentId, std::uint32_t> top_counts(const LockTable& table,
                                                   const DoneSet& done,
                                                   const VoteWeights& votes = {});

struct Decision {
  enum class Kind : std::uint8_t {
    Win,     ///< self holds the highest priority — proceed to update
    Lose,    ///< another specific agent wins — wait for its commit
    Unknown  ///< not enough information / nobody decided yet
  };
  Kind kind = Kind::Unknown;
  std::optional<agent::AgentId> winner;  ///< set for Win and Lose
};

/// Decide the highest-priority agent from `table` as seen by `self`.
///
/// Majority geometry (`quorum` null or majority — the seed rule):
/// * Any agent heading lists worth more than half the total votes wins
///   outright (majority; with default weights, > N/2 lists).
/// * Otherwise, once the filtered head of *every* one of the `n_servers`
///   lists is known, the tie rule of `mode` applies (see TieBreakMode).
///
/// Non-majority geometry: an agent wins once the servers it heads contain a
/// write quorum of the geometry; the tie rule applies once the set of
/// servers with known heads contains a write quorum (the agent has full
/// information over at least one quorum). Views are partial by design —
/// each agent tours only its candidate quorum — so two agents CAN both
/// compute "Win" from different views; the claim is optimistic and the
/// exclusive per-server update grants (which only hand a group's grant to
/// one agent, all-or-nothing in ascending order) arbitrate. Theorem 2
/// safety then rests on quorum intersection, checked by the monitor's
/// intersection rule rather than by same-decision agreement. PaperLiteral's
/// tie *condition* is majority arithmetic and does not transfer; under a
/// geometry both modes resolve by (max heads, smallest id).
///
/// `mutant` deliberately corrupts the rule for model-checker
/// self-validation (see ProtocolMutant); oracles always pass None.
Decision decide(const LockTable& table, const DoneSet& done,
                const agent::AgentId& self, std::size_t n_servers,
                TieBreakMode mode, const VoteWeights& votes = {},
                ProtocolMutant mutant = ProtocolMutant::None,
                const quorum::QuorumSystem* quorum = nullptr);

/// Write-coverage test seen through `mutant`'s eyes: the SplitQuorum mutant
/// REPLACES the geometry's rule with "contains one of the two static cluster
/// halves" (halves split at ⌈n/2⌉). Replacement — not widening — so a
/// mutated agent can never satisfy the true rule first and slip past the
/// intersection monitor. Every other mutant passes through unchanged.
bool mutant_write_covered(const quorum::QuorumSystem& qs,
                          const quorum::NodeSet& nodes, ProtocolMutant mutant);

/// Candidate-quorum pick seen through `mutant`'s eyes: under SplitQuorum an
/// agent tours the static half containing `prefer` (minus exclusions)
/// instead of a real quorum; the two halves do not intersect.
std::optional<quorum::NodeSet> mutant_pick_write_quorum(
    const quorum::QuorumSystem& qs, const quorum::NodeSet& excluded,
    net::NodeId prefer, ProtocolMutant mutant);

/// The paper's literal tie condition: M agents top S servers each, and
/// S + (N − M·S) < N/2. Exposed for direct unit testing.
bool paper_tie_condition(std::uint32_t s, std::uint32_t m, std::size_t n);

/// §3.3's full extension: "mobile agents can determine not only the first
/// mobile agent who will obtain the lock next, but also the second agent,
/// the third agent, etc." Simulates successive winners on the given view:
/// rank k+1 is the TotalOrder winner once ranks 1..k are treated as done.
/// Every agent applying this to the same information computes the same
/// ranking (tested), which is what makes the prediction usable for
/// scheduling. Returns at most `limit` ranks (0 = all live agents).
std::vector<agent::AgentId> predicted_order(const LockTable& table,
                                            const DoneSet& done,
                                            std::size_t n_servers,
                                            const VoteWeights& votes = {},
                                            std::size_t limit = 0);

/// Merge `incoming` into `table`: per server, `table` takes the incoming
/// snapshot where it is fresher (LockSnapshot::fresher_than; an absent
/// server counts as never observed).
void merge_lock_tables(LockTable& table, const LockTable& incoming);

/// The two-way gossip exchange of one group's tables (§3.3): per server,
/// each table takes the other's snapshot where that one is fresher; on a
/// tie each keeps its own. Equal to merging `b` into a copy of `a` and `a`
/// into `b`, without the copy.
void exchange_lock_tables(LockTable& a, LockTable& b);

/// Wire form: a varint count, then per entry the node and its snapshot,
/// nodes ascending.
void serialize_lock_table(serial::Writer& w, const LockTable& table);
/// Decodes any run as emplacing its entries one by one would: an
/// out-of-order run comes back sorted, and of a repeated node the first
/// snapshot is kept. A count larger than the bytes left could hold throws
/// serial::DecodeError before anything is allocated.
LockTable deserialize_lock_table(serial::Reader& r);

void serialize_group_lock_table(serial::Writer& w, const GroupLockTable& table);
GroupLockTable deserialize_group_lock_table(serial::Reader& r);

}  // namespace marp::core
