#include "membership/view.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace marp::membership {

bool MembershipView::is_member(net::NodeId node) const {
  return std::binary_search(active.begin(), active.end(), node);
}

const std::vector<net::NodeId>& MembershipView::replicas_of(shard::GroupId g) const {
  MARP_REQUIRE(g < group_replicas.size());
  return group_replicas[g];
}

quorum::NodeSet MembershipView::replica_set(shard::GroupId g) const {
  return quorum::make_node_set(replicas_of(g));
}

bool MembershipView::hosts(net::NodeId node, shard::GroupId g) const {
  const auto& replicas = replicas_of(g);
  return std::find(replicas.begin(), replicas.end(), node) != replicas.end();
}

std::vector<shard::GroupId> MembershipView::groups_hosted(net::NodeId node) const {
  std::vector<shard::GroupId> groups;
  for (shard::GroupId g = 0; g < group_replicas.size(); ++g) {
    if (hosts(node, g)) groups.push_back(g);
  }
  return groups;
}

bool MembershipView::gains(net::NodeId node, const MembershipView& before) const {
  for (shard::GroupId g = 0; g < group_replicas.size(); ++g) {
    if (hosts(node, g) && !before.hosts(node, g)) return true;
  }
  return false;
}

void MembershipView::serialize(serial::Writer& w) const {
  w.varint(epoch);
  w.varint(active.size());
  for (const net::NodeId node : active) w.varint(node);
  w.varint(replication_factor);
  w.varint(group_replicas.size());
  for (const auto& replicas : group_replicas) {
    w.varint(replicas.size());
    for (const net::NodeId node : replicas) w.varint(node);
  }
}

MembershipView MembershipView::deserialize(serial::Reader& r) {
  MembershipView view;
  view.epoch = r.varint();
  const std::uint64_t n_active = r.length_prefix();
  view.active.reserve(n_active);
  for (std::uint64_t i = 0; i < n_active; ++i) {
    view.active.push_back(static_cast<net::NodeId>(r.varint()));
  }
  view.replication_factor = static_cast<std::uint32_t>(r.varint());
  const std::uint64_t n_groups = r.length_prefix();
  view.group_replicas.reserve(n_groups);
  for (std::uint64_t g = 0; g < n_groups; ++g) {
    const std::uint64_t n_replicas = r.length_prefix();
    std::vector<net::NodeId> replicas;
    replicas.reserve(n_replicas);
    for (std::uint64_t i = 0; i < n_replicas; ++i) {
      replicas.push_back(static_cast<net::NodeId>(r.varint()));
    }
    view.group_replicas.push_back(std::move(replicas));
  }
  return view;
}

}  // namespace marp::membership
