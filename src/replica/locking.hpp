// Locking List (LL) and Updated List (UL) — the per-server data structures
// of §3.2.
//
// The LL is an arrival-ordered queue of agents requesting the update lock at
// this server; an agent wins the global lock when it heads the LLs of a
// majority of servers. The UL records agents that have already completed
// their updates; agents merge ULs into their Updated Agents List as gossip.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "agent/agent_id.hpp"
#include "agent/id_set.hpp"
#include "sim/time.hpp"

namespace marp::replica {

class LockingList {
 public:
  struct Entry {
    agent::AgentId agent;
    sim::SimTime enqueued;
  };

  /// Append a lock request; returns false (no-op) if already present.
  bool append(const agent::AgentId& agent, sim::SimTime now);

  /// Remove an agent's entry wherever it is; true if something was removed.
  bool remove(const agent::AgentId& agent);

  /// Agent currently at the head (holds this server's local rank 1).
  std::optional<agent::AgentId> head() const;

  /// 0-based position of an agent, or nullopt.
  std::optional<std::size_t> position(const agent::AgentId& agent) const;

  bool contains(const agent::AgentId& agent) const { return position(agent).has_value(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Queue order snapshot — what a visiting agent copies into its LT.
  std::vector<agent::AgentId> snapshot() const;

  void serialize(serial::Writer& w) const;
  static LockingList deserialize(serial::Reader& r);

 private:
  std::deque<Entry> entries_;
};

class UpdatedList {
 public:
  /// Record a completed update; keeps at most `capacity` recent entries.
  explicit UpdatedList(std::size_t capacity = 256) : capacity_(capacity) {}

  /// At capacity the entry that completed longest ago is evicted —
  /// completion order, not id order.
  void add(const agent::AgentId& agent);
  bool contains(const agent::AgentId& agent) const { return ascending_.contains(agent); }
  std::size_t size() const noexcept { return completed_.size(); }

  /// Merge another list's contents into this one (gossip).
  void merge(const std::vector<agent::AgentId>& other);

  /// The entries ascending by id — what a visiting agent merges into its UAL.
  const agent::AgentIdSet& ascending() const noexcept { return ascending_; }

 private:
  std::deque<agent::AgentId> completed_;  ///< completion order, for eviction
  agent::AgentIdSet ascending_;           ///< the same ids, ascending
  std::size_t capacity_;
};

}  // namespace marp::replica
