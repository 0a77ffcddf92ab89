// MembershipView — the epoch-stamped unit of dynamic membership.
//
// A view names the active server set at one epoch and materializes, per
// lock group, the ordered replica list the placement policy computed for
// it (see membership/placement.hpp). Everything the protocol needs is
// derived from the view a session was born under:
//
// * UpdateAgents/ReadAgents tour only `replicas_of(g)` for the groups in
//   their write/read set, instead of the whole cluster;
// * quorum geometries are instantiated *inside* each group's replica list
//   (membership/mapped_quorum.hpp), so intersection holds per (group,
//   epoch) — the Sutra & Shapiro partial-replication construction;
// * any server advertising a newer epoch forces the visiting agent to
//   abort-and-re-tour under the new view, so no session ever assembles a
//   quorum that mixes two views.
//
// Epoch 0 is the static deployment's degenerate view, in which every
// server replicates every group (membership/electorate.hpp builds it).
// Views from make_view() start at epoch 1.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "quorum/quorum.hpp"
#include "serial/byte_buffer.hpp"
#include "shard/router.hpp"

namespace marp::membership {

struct MembershipView {
  /// Monotonic reconfiguration counter; 0 = the static deployment.
  std::uint64_t epoch = 0;
  /// Active servers of this epoch, sorted ascending.
  std::vector<net::NodeId> active;
  /// Copies requested per lock group (clamped to |active| at placement).
  std::uint32_t replication_factor = 0;
  /// Position-ordered replicas per lock group, materialized by the
  /// placement policy: `group_replicas[g][p]` is the node at quorum-
  /// geometry position p of group g (position 0 = the primary).
  std::vector<std::vector<net::NodeId>> group_replicas;

  bool enabled() const noexcept { return epoch != 0; }
  std::size_t num_groups() const noexcept { return group_replicas.size(); }

  bool is_member(net::NodeId node) const;
  /// Replicas of group `g`, position order. `g` must be < num_groups().
  const std::vector<net::NodeId>& replicas_of(shard::GroupId g) const;
  /// Same set, sorted ascending (the NodeSet the quorum layer expects).
  quorum::NodeSet replica_set(shard::GroupId g) const;
  bool hosts(net::NodeId node, shard::GroupId g) const;
  /// Groups whose replica list contains `node`, ascending.
  std::vector<shard::GroupId> groups_hosted(net::NodeId node) const;
  /// Whether `node` hosts some group here that it does not host in `before`
  /// (it must catch up on that group's data before serving grants).
  bool gains(net::NodeId node, const MembershipView& before) const;

  void serialize(serial::Writer& w) const;
  static MembershipView deserialize(serial::Reader& r);

  bool operator==(const MembershipView& other) const {
    return epoch == other.epoch && active == other.active &&
           replication_factor == other.replication_factor &&
           group_replicas == other.group_replicas;
  }
};

}  // namespace marp::membership
