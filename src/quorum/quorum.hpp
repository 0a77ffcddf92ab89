// Pluggable quorum geometries for MARP's write and read quorums.
//
// The paper instantiates "a quorum" as any majority of the copies (§3.1);
// everything the protocol needs from that choice is one property — every
// write quorum intersects every write quorum and every read quorum — plus a
// way to *pick* a concrete quorum to tour. This interface captures exactly
// that, so the agent/priority/monitor layers can run unchanged over:
//
// * MajorityQuorum — the seed behaviour, including the weighted-voting
//   generalization (Gifford '79): covered when the votes held exceed half.
// * TreeQuorum — recursive quorums over a heap-shaped d-ary tree
//   (Agrawal & El Abbadi '90 for d = 2): a quorum of a subtree is either
//   the root plus a quorum of ONE child subtree, or quorums of ALL child
//   subtrees. Best-case size O(log N). (For d > 2, substituting "a majority
//   of children" for "all children" breaks intersection — two quorums can
//   recurse into disjoint child sets — so the all-children rule is used at
//   every degree; it coincides with the classic protocol at d = 2.)
// * GridQuorum — rows x cols layout: a write quorum is one full column
//   plus one node from every other column (size rows + cols − 1, O(√N));
//   a read quorum is one node from every column. Any two write quorums
//   intersect inside the full column one of them holds, and every read
//   quorum hits every full column.
// * ReadLeaseQuorum — read-dominant wrapper (Kumar & Agarwal style): a
//   fixed lease-holder set L (the inner geometry's first read quorum)
//   serves reads from any SINGLE member; writes must cover an inner write
//   quorum AND all of L (revoking every lease), so write–read intersection
//   is by construction.
//
// Correctness is not taken on faith: tests/test_quorum.cpp enumerates every
// quorum of every geometry at N ≤ 16 and checks the intersection property
// pairwise, and cross-validates covered() against the enumeration.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "quorum/spec.hpp"

namespace marp::quorum {

/// A set of server ids, sorted ascending and duplicate-free.
using NodeSet = std::vector<net::NodeId>;

/// Sorted-set membership test.
bool contains(const NodeSet& sorted, net::NodeId node);

/// Add `node` to a NodeSet, keeping it sorted and duplicate-free.
void insert(NodeSet& sorted, net::NodeId node);

/// Normalize an arbitrary id list into a NodeSet.
NodeSet make_node_set(std::vector<net::NodeId> nodes);

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  virtual Geometry geometry() const noexcept = 0;
  std::size_t size() const noexcept { return n_; }

  /// True when `nodes` contains (a superset of) some write quorum.
  virtual bool write_covered(const NodeSet& nodes) const = 0;
  /// True when `nodes` contains some read quorum.
  virtual bool read_covered(const NodeSet& nodes) const = 0;

  /// A concrete write quorum avoiding every node in `excluded`, or nullopt
  /// when none survives the exclusions. Deterministic in its inputs (agents
  /// recompute their candidate quorum instead of serializing it). When a
  /// quorum containing `prefer` exists under the exclusions, the result
  /// contains `prefer`.
  virtual std::optional<NodeSet> pick_write_quorum(
      const NodeSet& excluded = {},
      net::NodeId prefer = net::kInvalidNode) const = 0;
  virtual std::optional<NodeSet> pick_read_quorum(
      const NodeSet& excluded = {},
      net::NodeId prefer = net::kInvalidNode) const = 0;

  /// Exhaustive quorum enumeration — the test harness's ground truth for
  /// the intersection property. Exponential for Majority; intended for
  /// N ≤ 16 (guarded), never called on the protocol path.
  virtual std::vector<NodeSet> write_quorums() const = 0;
  virtual std::vector<NodeSet> read_quorums() const = 0;

  /// Cardinality of the smallest write quorum (the bench's tour-size bound).
  virtual std::size_t min_write_size() const = 0;

 protected:
  explicit QuorumSystem(std::size_t n) : n_(n) {}
  std::size_t n_;
};

/// The seed rule: covered when the held votes exceed half the total. Empty
/// `votes` means one vote per server. `read_quorum_votes` = 0 derives the
/// minimal read threshold r = V − ⌊V/2⌋ (so r + w > V).
class MajorityQuorum final : public QuorumSystem {
 public:
  MajorityQuorum(std::size_t n, std::vector<std::uint32_t> votes = {},
                 std::uint32_t read_quorum_votes = 0);

  Geometry geometry() const noexcept override { return Geometry::Majority; }
  bool write_covered(const NodeSet& nodes) const override;
  bool read_covered(const NodeSet& nodes) const override;
  std::optional<NodeSet> pick_write_quorum(const NodeSet& excluded,
                                           net::NodeId prefer) const override;
  std::optional<NodeSet> pick_read_quorum(const NodeSet& excluded,
                                          net::NodeId prefer) const override;
  std::vector<NodeSet> write_quorums() const override;
  std::vector<NodeSet> read_quorums() const override;
  std::size_t min_write_size() const override;

 private:
  std::uint32_t votes_of(const NodeSet& nodes) const;
  std::optional<NodeSet> pick_threshold(const NodeSet& excluded,
                                        net::NodeId prefer,
                                        std::uint32_t threshold) const;
  std::vector<NodeSet> enumerate_minimal(bool read) const;

  std::vector<std::uint32_t> votes_;
  std::uint32_t total_ = 0;
  std::uint32_t read_threshold_ = 0;
};

/// Heap-shaped d-ary tree over ids 0..n−1 (children of i: d·i+1 .. d·i+d).
/// Read quorums equal write quorums (they self-intersect).
class TreeQuorum final : public QuorumSystem {
 public:
  TreeQuorum(std::size_t n, std::uint32_t degree = 2);

  Geometry geometry() const noexcept override { return Geometry::Tree; }
  bool write_covered(const NodeSet& nodes) const override;
  bool read_covered(const NodeSet& nodes) const override { return write_covered(nodes); }
  std::optional<NodeSet> pick_write_quorum(const NodeSet& excluded,
                                           net::NodeId prefer) const override;
  std::optional<NodeSet> pick_read_quorum(const NodeSet& excluded,
                                          net::NodeId prefer) const override {
    return pick_write_quorum(excluded, prefer);
  }
  std::vector<NodeSet> write_quorums() const override;
  std::vector<NodeSet> read_quorums() const override { return write_quorums(); }
  std::size_t min_write_size() const override;

  std::uint32_t degree() const noexcept { return degree_; }

 private:
  std::vector<net::NodeId> children(net::NodeId v) const;

  std::uint32_t degree_;
};

/// Row-major rows x cols layout (last row possibly partial; every column is
/// non-empty because cols ≤ n).
class GridQuorum final : public QuorumSystem {
 public:
  GridQuorum(std::size_t n, std::size_t cols = 0);  ///< 0 = near-square ⌈√n⌉

  Geometry geometry() const noexcept override { return Geometry::Grid; }
  bool write_covered(const NodeSet& nodes) const override;
  bool read_covered(const NodeSet& nodes) const override;
  std::optional<NodeSet> pick_write_quorum(const NodeSet& excluded,
                                           net::NodeId prefer) const override;
  std::optional<NodeSet> pick_read_quorum(const NodeSet& excluded,
                                          net::NodeId prefer) const override;
  std::vector<NodeSet> write_quorums() const override;
  std::vector<NodeSet> read_quorums() const override;
  std::size_t min_write_size() const override;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

 private:
  std::size_t column_of(net::NodeId v) const { return v % cols_; }
  NodeSet column(std::size_t j) const;

  std::size_t rows_ = 1;
  std::size_t cols_ = 1;
};

/// Read-dominant wrapper: lease holders L = the inner geometry's first read
/// quorum. Reads touch any single member of L; writes cover an inner write
/// quorum plus all of L. Trades write availability (all lease holders must
/// be up) for one-node reads.
class ReadLeaseQuorum final : public QuorumSystem {
 public:
  explicit ReadLeaseQuorum(std::unique_ptr<QuorumSystem> inner);

  Geometry geometry() const noexcept override { return Geometry::ReadLease; }
  bool write_covered(const NodeSet& nodes) const override;
  bool read_covered(const NodeSet& nodes) const override;
  std::optional<NodeSet> pick_write_quorum(const NodeSet& excluded,
                                           net::NodeId prefer) const override;
  std::optional<NodeSet> pick_read_quorum(const NodeSet& excluded,
                                          net::NodeId prefer) const override;
  std::vector<NodeSet> write_quorums() const override;
  std::vector<NodeSet> read_quorums() const override;
  std::size_t min_write_size() const override;

  const NodeSet& lease_holders() const noexcept { return leases_; }
  const QuorumSystem& inner() const noexcept { return *inner_; }

 private:
  std::unique_ptr<QuorumSystem> inner_;
  NodeSet leases_;
};

/// Build the geometry `spec` names for an `n_servers` cluster. `votes` and
/// `read_quorum_votes` apply to the Majority geometry only (weighted voting
/// has no analogue in the structural geometries; non-empty votes with a
/// non-majority geometry is a configuration error).
std::unique_ptr<QuorumSystem> make_quorum_system(
    const QuorumSpec& spec, std::size_t n_servers,
    const std::vector<std::uint32_t>& votes = {},
    std::uint32_t read_quorum_votes = 0);

}  // namespace marp::quorum
