// Tour — the travel state both MARP agent kinds carry (§3.2): the
// Un-visited Servers List (USL), the servers visited and those declared
// unavailable this round (§2), the routing costs of the last server stood
// at, and the failed dispatches to the current target. It owns the tour's
// wire form and the cost-aware hop rule, so neither agent knows either.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "quorum/quorum.hpp"
#include "serial/byte_buffer.hpp"

namespace marp::core {

/// Cheapest candidate by the routing-cost table, excluding `here` and the
/// `unavailable` nodes; ties break to the lower id. Nodes beyond the table
/// have *unknown* cost (e.g. the cluster grew since the costs were
/// recorded) and are priced at the worst known link, so they are toured
/// only once every priced option is exhausted. kInvalidNode when empty.
net::NodeId pick_cheapest_node(const std::vector<net::NodeId>& candidates,
                               const std::vector<net::NodeId>& unavailable,
                               net::NodeId here,
                               const std::vector<std::int64_t>& costs);

class Tour {
 public:
  /// Tour `members`, none of them visited yet.
  void begin(const quorum::NodeSet& members) { usl_ = members; }
  /// Start over: no visit counts, and the USL is `members` minus the
  /// unavailable servers.
  void restart(const quorum::NodeSet& members);
  /// USL := the part of `members` not visited yet (a re-selected quorum).
  void retarget(const quorum::NodeSet& members);
  void forget_visits() { visited_.clear(); }

  /// The agent stands at `here`: off the USL, counted as visited once.
  void visit(net::NodeId here);
  /// Adopt the routing table of the server the agent stands at.
  void price(std::vector<std::int64_t> costs) { costs_ = std::move(costs); }
  /// Declare `node` unavailable for the round; the USL is left alone.
  void exclude(net::NodeId node);
  /// Declare `node` unavailable and take it off the USL.
  void drop(net::NodeId node);

  bool is_unavailable(net::NodeId node) const;
  quorum::NodeSet down() const { return quorum::make_node_set(unavailable_); }
  const std::vector<net::NodeId>& visited() const noexcept { return visited_; }
  std::uint32_t servers_visited() const noexcept {
    return static_cast<std::uint32_t>(visited_.size());
  }

  /// The USL without `here` and the unavailable servers, in USL order.
  std::vector<net::NodeId> candidates(net::NodeId here) const;
  /// The cheapest next hop from `here`, or kInvalidNode.
  net::NodeId next_hop(net::NodeId here) const {
    return pick_cheapest_node(usl_, unavailable_, here, costs_);
  }

  /// Count a failed dispatch; returns the count since the last reset.
  std::uint32_t failed_dispatch() noexcept { return ++migration_retries_; }
  void reset_retries() noexcept { migration_retries_ = 0; }

  void serialize(serial::Writer& w) const;
  static Tour deserialize(serial::Reader& r);

 private:
  std::vector<net::NodeId> usl_;
  std::vector<net::NodeId> visited_;
  std::vector<net::NodeId> unavailable_;
  std::vector<std::int64_t> costs_;
  std::uint32_t migration_retries_ = 0;
};

}  // namespace marp::core
