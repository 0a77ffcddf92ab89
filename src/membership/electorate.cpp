#include "membership/electorate.hpp"

#include <numeric>

#include "membership/mapped_quorum.hpp"
#include "util/assert.hpp"

namespace marp::membership {

Electorate::Electorate(std::uint64_t epoch, quorum::NodeSet replicas,
                       std::shared_ptr<const quorum::QuorumSystem> quorum,
                       bool tours_quorum, bool counts_votes)
    : epoch_(epoch),
      replicas_(std::move(replicas)),
      quorum_(std::move(quorum)),
      tours_quorum_(tours_quorum),
      counts_votes_(counts_votes) {
  MARP_REQUIRE(quorum_ != nullptr && quorum_->size() == replicas_.size());
}

const Electorate& InstalledView::electorate(shard::GroupId g) const {
  MARP_REQUIRE(g < electorates.size());
  return electorates[g];
}

std::shared_ptr<const InstalledView> install_static(
    std::shared_ptr<const quorum::QuorumSystem> cluster, std::size_t num_groups) {
  auto installed = std::make_shared<InstalledView>();
  quorum::NodeSet all(cluster->size());
  std::iota(all.begin(), all.end(), net::NodeId{0});
  installed->view.active = all;
  installed->view.group_replicas.assign(num_groups, all);
  const bool majority = cluster->geometry() == quorum::Geometry::Majority;
  installed->electorates.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    installed->electorates.emplace_back(0, all, cluster, !majority, majority);
  }
  return installed;
}

std::shared_ptr<const InstalledView> install_view(MembershipView view,
                                                  const quorum::QuorumSpec& inner) {
  auto installed = std::make_shared<InstalledView>();
  installed->electorates.reserve(view.num_groups());
  for (shard::GroupId g = 0; g < view.num_groups(); ++g) {
    installed->electorates.emplace_back(
        view.epoch, view.replica_set(g),
        std::make_shared<MappedQuorum>(inner, view.replicas_of(g)),
        /*tours_quorum=*/false, /*counts_votes=*/false);
  }
  installed->view = std::move(view);
  return installed;
}

}  // namespace marp::membership
