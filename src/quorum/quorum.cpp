#include "quorum/quorum.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/assert.hpp"

namespace marp::quorum {
namespace {

// Enumeration is the test harness's ground truth; past this the 2^n / cross
// product walks stop being cheap, and nothing on the protocol path needs them.
constexpr std::size_t kMaxEnumerableServers = 20;

bool is_valid(net::NodeId node, std::size_t n) {
  return node != net::kInvalidNode && static_cast<std::size_t>(node) < n;
}

// Deterministic tie-break for candidate quorums: prefer-containing first,
// then smallest, then lexicographically smallest.
bool better_pick(const NodeSet& a, const NodeSet& b, net::NodeId prefer) {
  const bool ap = contains(a, prefer);
  const bool bp = contains(b, prefer);
  if (ap != bp) return ap;
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

std::vector<NodeSet> deduped(std::set<NodeSet> sets) {
  return std::vector<NodeSet>(sets.begin(), sets.end());
}

}  // namespace

bool contains(const NodeSet& sorted, net::NodeId node) {
  return std::binary_search(sorted.begin(), sorted.end(), node);
}

void insert(NodeSet& sorted, net::NodeId node) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), node);
  if (it == sorted.end() || *it != node) sorted.insert(it, node);
}

NodeSet make_node_set(std::vector<net::NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// ---------------------------------------------------------------------------
// MajorityQuorum

MajorityQuorum::MajorityQuorum(std::size_t n, std::vector<std::uint32_t> votes,
                               std::uint32_t read_quorum_votes)
    : QuorumSystem(n), votes_(std::move(votes)) {
  MARP_REQUIRE(n >= 1);
  if (votes_.empty()) votes_.assign(n, 1);
  MARP_REQUIRE(votes_.size() == n);
  for (std::uint32_t v : votes_) total_ += v;
  MARP_REQUIRE(total_ >= 1);
  // Seed rule for the read side (read_agent.cpp): an explicit threshold, or
  // the minimal r with r + w > V where w = ⌊V/2⌋ + 1.
  read_threshold_ =
      read_quorum_votes != 0 ? read_quorum_votes : total_ - total_ / 2;
}

std::uint32_t MajorityQuorum::votes_of(const NodeSet& nodes) const {
  std::uint32_t sum = 0;
  for (net::NodeId v : nodes) {
    if (is_valid(v, n_)) sum += votes_[v];
  }
  return sum;
}

bool MajorityQuorum::write_covered(const NodeSet& nodes) const {
  // Kept in the seed's exact form (2·held > total) rather than a derived
  // threshold, so the majority geometry is arithmetically the seed path.
  return 2 * votes_of(nodes) > total_;
}

bool MajorityQuorum::read_covered(const NodeSet& nodes) const {
  return votes_of(nodes) >= read_threshold_;
}

std::optional<NodeSet> MajorityQuorum::pick_threshold(
    const NodeSet& excluded, net::NodeId prefer,
    std::uint32_t threshold) const {
  NodeSet picked;
  std::uint32_t held = 0;
  if (is_valid(prefer, n_) && !contains(excluded, prefer)) {
    picked.push_back(prefer);
    held += votes_[prefer];
  }
  // `picked` holds prefer out of order, so membership can't be a binary
  // search; prefer is the only id the ascending walk could re-add.
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(n_) && held < threshold;
       ++v) {
    if (votes_[v] == 0 || contains(excluded, v) || v == prefer) continue;
    picked.push_back(v);
    held += votes_[v];
  }
  if (held < threshold) return std::nullopt;
  return make_node_set(std::move(picked));
}

std::optional<NodeSet> MajorityQuorum::pick_write_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  return pick_threshold(excluded, prefer, total_ / 2 + 1);
}

std::optional<NodeSet> MajorityQuorum::pick_read_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  return pick_threshold(excluded, prefer, read_threshold_);
}

std::vector<NodeSet> MajorityQuorum::enumerate_minimal(bool read) const {
  MARP_REQUIRE(n_ <= kMaxEnumerableServers);
  const std::uint32_t threshold = read ? read_threshold_ : total_ / 2 + 1;
  std::vector<NodeSet> out;
  for (std::uint32_t mask = 1; mask < (1u << n_); ++mask) {
    std::uint32_t held = 0;
    NodeSet members;
    for (net::NodeId v = 0; v < static_cast<net::NodeId>(n_); ++v) {
      if (mask & (1u << v)) {
        held += votes_[v];
        members.push_back(v);
      }
    }
    if (held < threshold) continue;
    bool minimal = true;
    for (net::NodeId v : members) {
      if (held - votes_[v] >= threshold) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(std::move(members));
  }
  return out;
}

std::vector<NodeSet> MajorityQuorum::write_quorums() const {
  return enumerate_minimal(/*read=*/false);
}

std::vector<NodeSet> MajorityQuorum::read_quorums() const {
  return enumerate_minimal(/*read=*/true);
}

std::size_t MajorityQuorum::min_write_size() const {
  // Greedy on descending vote weight: fewest servers reaching the threshold.
  std::vector<std::uint32_t> sorted = votes_;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::uint32_t threshold = total_ / 2 + 1;
  std::uint32_t held = 0;
  std::size_t used = 0;
  for (std::uint32_t v : sorted) {
    if (held >= threshold) break;
    held += v;
    ++used;
  }
  return used;
}

// ---------------------------------------------------------------------------
// TreeQuorum

TreeQuorum::TreeQuorum(std::size_t n, std::uint32_t degree)
    : QuorumSystem(n), degree_(degree) {
  MARP_REQUIRE(n >= 1);
  MARP_REQUIRE(degree >= 2);
}

std::vector<net::NodeId> TreeQuorum::children(net::NodeId v) const {
  std::vector<net::NodeId> out;
  for (std::uint32_t i = 1; i <= degree_; ++i) {
    const std::uint64_t c = static_cast<std::uint64_t>(v) * degree_ + i;
    if (c < n_) out.push_back(static_cast<net::NodeId>(c));
  }
  return out;
}

bool TreeQuorum::write_covered(const NodeSet& nodes) const {
  // covered(v): leaf → v held; otherwise (v held and SOME child subtree
  // covered) or ALL child subtrees covered.
  auto covered = [&](auto&& self, net::NodeId v) -> bool {
    const auto kids = children(v);
    if (kids.empty()) return contains(nodes, v);
    bool any = false, all = true;
    for (net::NodeId c : kids) {
      const bool got = self(self, c);
      any = any || got;
      all = all && got;
    }
    if (all) return true;
    return contains(nodes, v) && any;
  };
  return covered(covered, 0);
}

std::optional<NodeSet> TreeQuorum::pick_write_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  // Recursive best-candidate search. Both quorum forms are tried at each
  // node and scored by (contains prefer, size, lexicographic); because a
  // prefer-containing quorum of a subtree always restricts to a
  // prefer-containing quorum of the child subtree holding prefer, the
  // best-first scoring propagates prefer upward whenever any surviving
  // quorum contains it.
  auto pick = [&](auto&& self, net::NodeId v) -> std::optional<NodeSet> {
    const bool v_up = !contains(excluded, v);
    const auto kids = children(v);
    if (kids.empty()) {
      if (!v_up) return std::nullopt;
      return NodeSet{v};
    }
    std::optional<NodeSet> root_form;  // {v} ∪ quorum(one child)
    std::optional<NodeSet> all_form;   // ∪ quorum(every child)
    bool all_ok = true;
    NodeSet all_union;
    for (net::NodeId c : kids) {
      auto sub = self(self, c);
      if (!sub) {
        all_ok = false;
        continue;
      }
      if (v_up) {
        NodeSet cand = *sub;
        cand.push_back(v);
        cand = make_node_set(std::move(cand));
        if (!root_form || better_pick(cand, *root_form, prefer)) {
          root_form = std::move(cand);
        }
      }
      if (all_ok) {
        all_union.insert(all_union.end(), sub->begin(), sub->end());
      }
    }
    if (all_ok) all_form = make_node_set(std::move(all_union));
    if (root_form && all_form) {
      return better_pick(*root_form, *all_form, prefer) ? root_form : all_form;
    }
    return root_form ? root_form : all_form;
  };
  return pick(pick, 0);
}

std::vector<NodeSet> TreeQuorum::write_quorums() const {
  MARP_REQUIRE(n_ <= kMaxEnumerableServers);
  auto enumerate = [&](auto&& self, net::NodeId v) -> std::vector<NodeSet> {
    const auto kids = children(v);
    if (kids.empty()) return {NodeSet{v}};
    std::set<NodeSet> out;
    std::vector<std::vector<NodeSet>> per_child;
    for (net::NodeId c : kids) {
      per_child.push_back(self(self, c));
      for (const NodeSet& q : per_child.back()) {
        NodeSet with_root = q;
        with_root.push_back(v);
        out.insert(make_node_set(std::move(with_root)));
      }
    }
    // Cross product: one quorum from every child subtree.
    std::vector<NodeSet> partial{NodeSet{}};
    for (const auto& options : per_child) {
      std::vector<NodeSet> next;
      for (const NodeSet& base : partial) {
        for (const NodeSet& q : options) {
          NodeSet merged = base;
          merged.insert(merged.end(), q.begin(), q.end());
          next.push_back(make_node_set(std::move(merged)));
        }
      }
      partial = std::move(next);
    }
    for (NodeSet& q : partial) out.insert(std::move(q));
    return std::vector<NodeSet>(out.begin(), out.end());
  };
  return enumerate(enumerate, 0);
}

std::size_t TreeQuorum::min_write_size() const {
  auto min_size = [&](auto&& self, net::NodeId v) -> std::size_t {
    const auto kids = children(v);
    if (kids.empty()) return 1;
    std::size_t best_child = n_;
    std::size_t all_sum = 0;
    for (net::NodeId c : kids) {
      const std::size_t s = self(self, c);
      best_child = std::min(best_child, s);
      all_sum += s;
    }
    return std::min(1 + best_child, all_sum);
  };
  return min_size(min_size, 0);
}

// ---------------------------------------------------------------------------
// GridQuorum

GridQuorum::GridQuorum(std::size_t n, std::size_t cols) : QuorumSystem(n) {
  MARP_REQUIRE(n >= 1);
  if (cols == 0) {
    cols = 1;
    while (cols * cols < n) ++cols;  // near-square: ⌈√n⌉
  }
  cols_ = std::min(cols, n);
  rows_ = (n + cols_ - 1) / cols_;
}

NodeSet GridQuorum::column(std::size_t j) const {
  NodeSet out;
  for (std::size_t v = j; v < n_; v += cols_) {
    out.push_back(static_cast<net::NodeId>(v));
  }
  return out;
}

bool GridQuorum::read_covered(const NodeSet& nodes) const {
  // One held node per column.
  std::vector<bool> hit(cols_, false);
  for (net::NodeId v : nodes) {
    if (is_valid(v, n_)) hit[column_of(v)] = true;
  }
  return std::all_of(hit.begin(), hit.end(), [](bool b) { return b; });
}

bool GridQuorum::write_covered(const NodeSet& nodes) const {
  if (!read_covered(nodes)) return false;
  // ... plus one column held in full.
  for (std::size_t j = 0; j < cols_; ++j) {
    const NodeSet col = column(j);
    if (std::includes(nodes.begin(), nodes.end(), col.begin(), col.end())) {
      return true;
    }
  }
  return false;
}

std::optional<NodeSet> GridQuorum::pick_write_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  const std::size_t prefer_col =
      is_valid(prefer, n_) ? column_of(prefer) : cols_;
  // Full column: smallest fully-available one (prefer's column wins ties so
  // the origin ends up in the quorum via either route).
  std::size_t full = cols_;
  std::size_t full_size = n_ + 1;
  for (std::size_t j = 0; j < cols_; ++j) {
    const NodeSet col = column(j);
    const bool available = std::none_of(
        col.begin(), col.end(),
        [&](net::NodeId v) { return contains(excluded, v); });
    if (!available) continue;
    const bool better =
        col.size() < full_size || (col.size() == full_size && j == prefer_col);
    if (full == cols_ || better) {
      full = j;
      full_size = col.size();
    }
  }
  if (full == cols_) return std::nullopt;
  NodeSet picked = column(full);
  for (std::size_t j = 0; j < cols_; ++j) {
    if (j == full) continue;
    net::NodeId rep = net::kInvalidNode;
    if (j == prefer_col && !contains(excluded, prefer)) {
      rep = prefer;
    } else {
      for (net::NodeId v : column(j)) {
        if (!contains(excluded, v)) {
          rep = v;
          break;
        }
      }
    }
    if (rep == net::kInvalidNode) return std::nullopt;
    picked.push_back(rep);
  }
  return make_node_set(std::move(picked));
}

std::optional<NodeSet> GridQuorum::pick_read_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  const std::size_t prefer_col =
      is_valid(prefer, n_) ? column_of(prefer) : cols_;
  NodeSet picked;
  for (std::size_t j = 0; j < cols_; ++j) {
    net::NodeId rep = net::kInvalidNode;
    if (j == prefer_col && !contains(excluded, prefer)) {
      rep = prefer;
    } else {
      for (net::NodeId v : column(j)) {
        if (!contains(excluded, v)) {
          rep = v;
          break;
        }
      }
    }
    if (rep == net::kInvalidNode) return std::nullopt;
    picked.push_back(rep);
  }
  return make_node_set(std::move(picked));
}

std::vector<NodeSet> GridQuorum::read_quorums() const {
  MARP_REQUIRE(n_ <= kMaxEnumerableServers);
  std::vector<NodeSet> partial{NodeSet{}};
  for (std::size_t j = 0; j < cols_; ++j) {
    std::vector<NodeSet> next;
    for (const NodeSet& base : partial) {
      for (net::NodeId v : column(j)) {
        NodeSet merged = base;
        merged.push_back(v);
        next.push_back(make_node_set(std::move(merged)));
      }
    }
    partial = std::move(next);
  }
  std::set<NodeSet> out(partial.begin(), partial.end());
  return deduped(std::move(out));
}

std::vector<NodeSet> GridQuorum::write_quorums() const {
  MARP_REQUIRE(n_ <= kMaxEnumerableServers);
  std::set<NodeSet> out;
  for (std::size_t full = 0; full < cols_; ++full) {
    std::vector<NodeSet> partial{column(full)};
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j == full) continue;
      std::vector<NodeSet> next;
      for (const NodeSet& base : partial) {
        for (net::NodeId v : column(j)) {
          NodeSet merged = base;
          merged.push_back(v);
          next.push_back(make_node_set(std::move(merged)));
        }
      }
      partial = std::move(next);
    }
    for (NodeSet& q : partial) out.insert(std::move(q));
  }
  return deduped(std::move(out));
}

std::size_t GridQuorum::min_write_size() const {
  std::size_t shortest = n_;
  for (std::size_t j = 0; j < cols_; ++j) {
    shortest = std::min(shortest, column(j).size());
  }
  return shortest + cols_ - 1;
}

// ---------------------------------------------------------------------------
// ReadLeaseQuorum

ReadLeaseQuorum::ReadLeaseQuorum(std::unique_ptr<QuorumSystem> inner)
    : QuorumSystem(inner->size()), inner_(std::move(inner)) {
  // The lease-holder set is pinned to the inner geometry's canonical read
  // quorum; every node knows it without coordination, which is what lets a
  // read stop after one visit.
  auto leases = inner_->pick_read_quorum();
  MARP_REQUIRE(leases.has_value());
  leases_ = std::move(*leases);
}

bool ReadLeaseQuorum::read_covered(const NodeSet& nodes) const {
  return std::any_of(leases_.begin(), leases_.end(),
                     [&](net::NodeId l) { return contains(nodes, l); });
}

bool ReadLeaseQuorum::write_covered(const NodeSet& nodes) const {
  // A write revokes every lease, so write–read intersection holds even
  // though a read is a single node.
  return inner_->write_covered(nodes) &&
         std::includes(nodes.begin(), nodes.end(), leases_.begin(),
                       leases_.end());
}

std::optional<NodeSet> ReadLeaseQuorum::pick_write_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  for (net::NodeId l : leases_) {
    if (contains(excluded, l)) return std::nullopt;
  }
  auto base = inner_->pick_write_quorum(excluded, prefer);
  if (!base) return std::nullopt;
  NodeSet merged = std::move(*base);
  merged.insert(merged.end(), leases_.begin(), leases_.end());
  return make_node_set(std::move(merged));
}

std::optional<NodeSet> ReadLeaseQuorum::pick_read_quorum(
    const NodeSet& excluded, net::NodeId prefer) const {
  if (contains(leases_, prefer) && !contains(excluded, prefer)) {
    return NodeSet{prefer};
  }
  for (net::NodeId l : leases_) {
    if (!contains(excluded, l)) return NodeSet{l};
  }
  return std::nullopt;
}

std::vector<NodeSet> ReadLeaseQuorum::read_quorums() const {
  std::vector<NodeSet> out;
  for (net::NodeId l : leases_) out.push_back(NodeSet{l});
  return out;
}

std::vector<NodeSet> ReadLeaseQuorum::write_quorums() const {
  std::set<NodeSet> out;
  for (const NodeSet& q : inner_->write_quorums()) {
    NodeSet merged = q;
    merged.insert(merged.end(), leases_.begin(), leases_.end());
    out.insert(make_node_set(std::move(merged)));
  }
  return deduped(std::move(out));
}

std::size_t ReadLeaseQuorum::min_write_size() const {
  if (n_ <= kMaxEnumerableServers) {
    std::size_t best = n_;
    for (const NodeSet& q : write_quorums()) best = std::min(best, q.size());
    return best;
  }
  // Too large to enumerate exactly: the canonical pick is an upper bound.
  auto q = pick_write_quorum({}, net::kInvalidNode);
  return q ? q->size() : n_;
}

// ---------------------------------------------------------------------------

std::unique_ptr<QuorumSystem> make_quorum_system(
    const QuorumSpec& spec, std::size_t n_servers,
    const std::vector<std::uint32_t>& votes, std::uint32_t read_quorum_votes) {
  switch (spec.geometry) {
    case Geometry::Majority:
      return std::make_unique<MajorityQuorum>(n_servers, votes,
                                              read_quorum_votes);
    case Geometry::Tree:
      MARP_REQUIRE_MSG(votes.empty(),
                       "weighted voting applies to the majority geometry only");
      return std::make_unique<TreeQuorum>(n_servers, spec.tree_degree);
    case Geometry::Grid:
      MARP_REQUIRE_MSG(votes.empty(),
                       "weighted voting applies to the majority geometry only");
      return std::make_unique<GridQuorum>(n_servers, spec.grid_cols);
    case Geometry::ReadLease: {
      MARP_REQUIRE_MSG(votes.empty(),
                       "weighted voting applies to the majority geometry only");
      MARP_REQUIRE_MSG(spec.lease_inner != Geometry::ReadLease,
                       "read-lease wrapper cannot nest itself");
      QuorumSpec inner = spec;
      inner.geometry = spec.lease_inner;
      return std::make_unique<ReadLeaseQuorum>(
          make_quorum_system(inner, n_servers));
    }
  }
  MARP_REQUIRE_MSG(false, "unknown quorum geometry");
  return nullptr;
}

}  // namespace marp::quorum
