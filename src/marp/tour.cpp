#include "marp/tour.hpp"

#include <algorithm>

#include "marp/wire.hpp"

namespace marp::core {

namespace {

bool listed(const std::vector<net::NodeId>& nodes, net::NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

}  // namespace

net::NodeId pick_cheapest_node(const std::vector<net::NodeId>& candidates,
                               const std::vector<net::NodeId>& unavailable,
                               net::NodeId here,
                               const std::vector<std::int64_t>& costs) {
  net::NodeId best = net::kInvalidNode;
  std::int64_t best_cost = 0;
  // A node beyond the routing table has *unknown* cost. Treating it as 0
  // would make unknown nodes the preferred destination; assume the worst
  // known link instead, so they are only toured once priced options run out.
  std::int64_t unknown_cost = 0;
  for (const std::int64_t cost : costs) {
    unknown_cost = std::max(unknown_cost, cost);
  }
  for (const net::NodeId node : candidates) {
    if (node == here || listed(unavailable, node)) continue;
    const std::int64_t cost = node < costs.size() ? costs[node] : unknown_cost;
    if (best == net::kInvalidNode || cost < best_cost ||
        (cost == best_cost && node < best)) {
      best = node;
      best_cost = cost;
    }
  }
  return best;
}

void Tour::restart(const quorum::NodeSet& members) {
  visited_.clear();
  usl_.clear();
  for (const net::NodeId node : members) {
    if (!is_unavailable(node)) usl_.push_back(node);
  }
}

void Tour::retarget(const quorum::NodeSet& members) {
  usl_.clear();
  for (const net::NodeId node : members) {
    if (!listed(visited_, node)) usl_.push_back(node);
  }
}

void Tour::visit(net::NodeId here) {
  if (!listed(visited_, here)) visited_.push_back(here);
  usl_.erase(std::remove(usl_.begin(), usl_.end(), here), usl_.end());
}

void Tour::exclude(net::NodeId node) {
  if (!is_unavailable(node)) unavailable_.push_back(node);
}

void Tour::drop(net::NodeId node) {
  exclude(node);
  usl_.erase(std::remove(usl_.begin(), usl_.end(), node), usl_.end());
}

bool Tour::is_unavailable(net::NodeId node) const { return listed(unavailable_, node); }

std::vector<net::NodeId> Tour::candidates(net::NodeId here) const {
  std::vector<net::NodeId> out;
  for (const net::NodeId node : usl_) {
    if (node != here && !is_unavailable(node)) out.push_back(node);
  }
  return out;
}

void Tour::serialize(serial::Writer& w) const {
  wire_detail::write_ids(w, usl_);
  wire_detail::write_ids(w, visited_);
  wire_detail::write_ids(w, unavailable_);
  w.seq(costs_, [](serial::Writer& ww, std::int64_t cost) { ww.svarint(cost); });
  w.varint(migration_retries_);
}

Tour Tour::deserialize(serial::Reader& r) {
  Tour tour;
  tour.usl_ = wire_detail::read_ids<net::NodeId>(r);
  tour.visited_ = wire_detail::read_ids<net::NodeId>(r);
  tour.unavailable_ = wire_detail::read_ids<net::NodeId>(r);
  tour.costs_ = r.seq<std::int64_t>([](serial::Reader& rr) { return rr.svarint(); });
  tour.migration_retries_ = static_cast<std::uint32_t>(r.varint());
  return tour;
}

}  // namespace marp::core
