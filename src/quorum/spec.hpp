// Quorum-geometry selection, kept dependency-free so MarpConfig can embed
// it without pulling the quorum machinery into every config include.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace marp::quorum {

/// Which quorum construction the protocol uses for write (and read) quorums.
///
/// The paper's MARP uses plain majorities ("a quorum ... is simply any
/// majority of its copies", §3.1). The alternatives shrink quorums —
/// O(log N) for tree paths, O(√N) for grid column covers — at the price of
/// less symmetric fault tolerance; correctness for every geometry reduces to
/// the same property: each write quorum intersects every write and read
/// quorum (see src/quorum/quorum.hpp and tests/test_quorum.cpp).
enum class Geometry : std::uint8_t {
  Majority,  ///< > half the votes (supports weighted voting) — the seed path
  Tree,      ///< recursive tree quorums over a heap-shaped d-ary tree
  Grid,      ///< one full column plus a node from every other column
  ReadLease  ///< read-dominant wrapper: single-node reads, widened writes
};

struct QuorumSpec {
  Geometry geometry = Geometry::Majority;

  /// Tree geometry: children per node (heap layout — children of i are
  /// d*i+1 .. d*i+d). Degree 2 is the classic binary tree protocol.
  std::uint32_t tree_degree = 2;

  /// Grid geometry: column count; 0 derives a near-square ⌈√N⌉ layout.
  /// Rows follow as ⌈N/cols⌉ (row-major, last row possibly partial).
  std::size_t grid_cols = 0;

  /// ReadLease wrapper: the geometry supplying the inner write quorums and
  /// the lease-holder set (must not itself be ReadLease).
  Geometry lease_inner = Geometry::Grid;
};

/// Command-line and report names.
inline constexpr std::array<std::pair<Geometry, std::string_view>, 4> kGeometryNames{{
    {Geometry::Majority, "majority"},
    {Geometry::Tree, "tree"},
    {Geometry::Grid, "grid"},
    {Geometry::ReadLease, "read-lease"},
}};

constexpr std::string_view geometry_name(Geometry g) {
  for (const auto& [geometry, name] : kGeometryNames) {
    if (geometry == g) return name;
  }
  return "?";
}

}  // namespace marp::quorum
