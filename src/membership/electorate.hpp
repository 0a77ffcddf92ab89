// Electorate — who votes on one lock group at one epoch.
//
// Every decision a MARP session takes asks the electorate of the lock group
// concerned, under the view installed at the server it is visiting: whom
// the update tour and the first UPDATE reach, decide()'s N and geometry,
// ACK coverage, whether a quorum survives the unreachable servers, the read
// tour, the Theorem-2 probes, and who owes a copy at quiescence (the table
// in docs/PROTOCOL.md §3⅞·1).
//
// A static deployment is the degenerate epoch-0 view: every group's
// electorate is all N servers, in id order, under the cluster's own
// geometry object (weighted votes included). Under partial replication a
// group's electorate is its placement-chosen replicas under the configured
// geometry mapped onto them — full replication is just the rf = N case.
//
// Where the two tour differently, the difference is a property fixed when
// the electorate is built:
// * tours_quorum — the update tour visits one candidate write quorum,
//   re-picked around unavailable servers, instead of every replica; ACK
//   retries start at an eighth of the interval and skip unavailable
//   servers. Only the static tree, grid and read-lease geometries.
// * counts_votes — reads tour every replica cheapest-first counting votes,
//   and full tours make the model checker's ground-truth agreement check
//   sound. Only the paper's own electorate, the static majority.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "membership/view.hpp"
#include "quorum/quorum.hpp"

namespace marp::membership {

class Electorate {
 public:
  Electorate(std::uint64_t epoch, quorum::NodeSet replicas,
             std::shared_ptr<const quorum::QuorumSystem> quorum,
             bool tours_quorum, bool counts_votes);

  std::uint64_t epoch() const noexcept { return epoch_; }
  /// The group's replicas, ascending.
  const quorum::NodeSet& replicas() const noexcept { return replicas_; }
  bool hosts(net::NodeId node) const { return quorum::contains(replicas_, node); }
  /// The geometry over the replicas. Its size() is decide()'s N.
  const quorum::QuorumSystem& quorum() const noexcept { return *quorum_; }
  bool tours_quorum() const noexcept { return tours_quorum_; }
  bool counts_votes() const noexcept { return counts_votes_; }

 private:
  std::uint64_t epoch_;
  quorum::NodeSet replicas_;
  std::shared_ptr<const quorum::QuorumSystem> quorum_;
  bool tours_quorum_;
  bool counts_votes_;
};

/// A view as a server installs it: the view and the electorate of each of
/// its lock groups. Immutable and shared — every server of a static
/// deployment points at one instance, and a server activating a view
/// change builds one for it.
struct InstalledView {
  MembershipView view;
  std::vector<Electorate> electorates;  ///< index = lock group

  const Electorate& electorate(shard::GroupId g) const;
};

/// The static deployment: epoch 0, `num_groups` groups, every one hosted by
/// all `cluster.size()` servers under `cluster` itself.
std::shared_ptr<const InstalledView> install_static(
    std::shared_ptr<const quorum::QuorumSystem> cluster, std::size_t num_groups);

/// A membership view: each group's electorate is its replicas under `inner`
/// mapped onto them in placement order.
std::shared_ptr<const InstalledView> install_view(MembershipView view,
                                                  const quorum::QuorumSpec& inner);

}  // namespace marp::membership
