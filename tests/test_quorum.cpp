// The quorum-geometry test harness (src/quorum/).
//
// The protocol's safety rests on exactly one structural property of the
// geometry: every write quorum intersects every write quorum and every read
// quorum. Nothing here takes that on faith — for every geometry at every
// N ≤ 16 (grids in every r×c layout, trees at degree 2 and 3, the
// read-lease wrapper over both base geometries) the harness enumerates the
// complete quorum lists and checks the property pairwise, cross-validates
// covered() against the enumeration over all 2^N node subsets, exercises
// the pick functions' exclusion/preference contract, and compares minimal
// quorum sizes against the majority baseline ⌈(N+1)/2⌉.
//
// The second half guards the protocol integration: every geometry survives
// end-to-end runs including crash-driven quorum re-selection, the geometry
// decision rule behaves as documented, and the model checker both exhausts
// small geometry spaces violation-free and catches the seeded SplitQuorum
// mutant. The exact-count pins of every session mode live in
// test_golden.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "check/explorer.hpp"
#include "fault/plan.hpp"
#include "marp/priority.hpp"
#include "quorum/quorum.hpp"
#include "runner/experiment.hpp"

namespace marp::quorum {
namespace {

bool intersects(const NodeSet& a, const NodeSet& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) ++i;
    else ++j;
  }
  return false;
}

bool is_subset(const NodeSet& sub, const NodeSet& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

std::string describe(const QuorumSystem& qs) {
  std::ostringstream os;
  os << geometry_name(qs.geometry()) << " n=" << qs.size();
  if (const auto* tree = dynamic_cast<const TreeQuorum*>(&qs)) {
    os << " d=" << tree->degree();
  }
  if (const auto* grid = dynamic_cast<const GridQuorum*>(&qs)) {
    os << " " << grid->rows() << "x" << grid->cols();
  }
  if (const auto* lease = dynamic_cast<const ReadLeaseQuorum*>(&qs)) {
    os << " over " << geometry_name(lease->inner().geometry());
  }
  return os.str();
}

/// Every geometry variant under test for an n-server cluster: uniform and
/// weighted majority, trees of degree 2 and 3, grids in EVERY r×c layout,
/// and the read-lease wrapper over both structural geometries.
std::vector<std::unique_ptr<QuorumSystem>> all_geometries(std::size_t n) {
  std::vector<std::unique_ptr<QuorumSystem>> systems;
  systems.push_back(std::make_unique<MajorityQuorum>(n));
  std::vector<std::uint32_t> votes(n);
  for (std::size_t i = 0; i < n; ++i) votes[i] = 1 + i % 3;
  systems.push_back(std::make_unique<MajorityQuorum>(n, votes));
  systems.push_back(std::make_unique<TreeQuorum>(n, 2));
  systems.push_back(std::make_unique<TreeQuorum>(n, 3));
  for (std::size_t cols = 1; cols <= n; ++cols) {
    systems.push_back(std::make_unique<GridQuorum>(n, cols));
  }
  systems.push_back(
      std::make_unique<ReadLeaseQuorum>(std::make_unique<GridQuorum>(n)));
  systems.push_back(
      std::make_unique<ReadLeaseQuorum>(std::make_unique<TreeQuorum>(n, 2)));
  return systems;
}

// ---------- the intersection property, exhaustively ----------

TEST(QuorumIntersection, EveryGeometryEveryNUpTo16) {
  for (std::size_t n = 1; n <= 16; ++n) {
    for (const auto& qs : all_geometries(n)) {
      const std::vector<NodeSet> writes = qs->write_quorums();
      const std::vector<NodeSet> reads = qs->read_quorums();
      ASSERT_FALSE(writes.empty()) << describe(*qs);
      ASSERT_FALSE(reads.empty()) << describe(*qs);

      // Sanity: every enumerated quorum is a valid, covered node set.
      for (const NodeSet& w : writes) {
        ASSERT_FALSE(w.empty()) << describe(*qs);
        ASSERT_TRUE(std::is_sorted(w.begin(), w.end())) << describe(*qs);
        ASSERT_LT(w.back(), n) << describe(*qs);
        ASSERT_TRUE(qs->write_covered(w)) << describe(*qs);
      }
      for (const NodeSet& r : reads) {
        ASSERT_TRUE(qs->read_covered(r)) << describe(*qs);
      }

      // Majority quorum lists grow combinatorially with n; above the direct
      // pairwise budget the property follows by pigeonhole from the vote
      // threshold instead: any two sets each holding > half the votes share
      // a node, and any write+read pair holds w + r > V votes.
      if (writes.size() * writes.size() > 4'000'000) {
        ASSERT_EQ(qs->geometry(), Geometry::Majority) << describe(*qs);
        continue;
      }
      for (std::size_t i = 0; i < writes.size(); ++i) {
        for (std::size_t j = i; j < writes.size(); ++j) {
          ASSERT_TRUE(intersects(writes[i], writes[j]))
              << describe(*qs) << ": write quorums disjoint";
        }
        for (const NodeSet& r : reads) {
          ASSERT_TRUE(intersects(writes[i], r))
              << describe(*qs) << ": write and read quorums disjoint";
        }
      }
    }
  }
}

TEST(QuorumIntersection, CoveredMatchesEnumerationOverAllSubsets) {
  // covered(S) must be exactly "S contains some enumerated quorum", for
  // every subset S of every geometry up to n = 10 (2^10 subsets each).
  for (std::size_t n = 1; n <= 10; ++n) {
    for (const auto& qs : all_geometries(n)) {
      const std::vector<NodeSet> writes = qs->write_quorums();
      const std::vector<NodeSet> reads = qs->read_quorums();
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        NodeSet subset;
        for (std::size_t v = 0; v < n; ++v) {
          if (mask & (1u << v)) subset.push_back(static_cast<net::NodeId>(v));
        }
        const bool write_enum = std::any_of(
            writes.begin(), writes.end(),
            [&](const NodeSet& q) { return is_subset(q, subset); });
        const bool read_enum = std::any_of(
            reads.begin(), reads.end(),
            [&](const NodeSet& q) { return is_subset(q, subset); });
        ASSERT_EQ(qs->write_covered(subset), write_enum)
            << describe(*qs) << " mask=" << mask;
        ASSERT_EQ(qs->read_covered(subset), read_enum)
            << describe(*qs) << " mask=" << mask;
      }
    }
  }
}

TEST(QuorumPick, HonorsExclusionsPreferenceAndFeasibility) {
  for (std::size_t n = 1; n <= 12; ++n) {
    for (const auto& qs : all_geometries(n)) {
      const std::vector<NodeSet> writes = qs->write_quorums();
      // Exclusion sets: empty, each singleton, each adjacent pair.
      std::vector<NodeSet> exclusions{{}};
      for (std::size_t v = 0; v < n; ++v) {
        exclusions.push_back({static_cast<net::NodeId>(v)});
        if (v + 1 < n) {
          exclusions.push_back({static_cast<net::NodeId>(v),
                                static_cast<net::NodeId>(v + 1)});
        }
      }
      for (const NodeSet& excluded : exclusions) {
        const bool feasible = std::any_of(
            writes.begin(), writes.end(),
            [&](const NodeSet& q) { return !intersects(q, excluded); });
        const auto picked = qs->pick_write_quorum(excluded, net::kInvalidNode);
        ASSERT_EQ(picked.has_value(), feasible) << describe(*qs);
        if (picked) {
          ASSERT_TRUE(qs->write_covered(*picked)) << describe(*qs);
          ASSERT_FALSE(intersects(*picked, excluded)) << describe(*qs);
        }
        const auto read_picked =
            qs->pick_read_quorum(excluded, net::kInvalidNode);
        if (read_picked) {
          ASSERT_TRUE(qs->read_covered(*read_picked)) << describe(*qs);
          ASSERT_FALSE(intersects(*read_picked, excluded)) << describe(*qs);
        }

        // Preference contract: when some surviving quorum contains the
        // preferred node, the pick must include it.
        for (std::size_t p = 0; p < n; ++p) {
          const net::NodeId prefer = static_cast<net::NodeId>(p);
          if (quorum::contains(excluded, prefer)) continue;
          const bool attainable = std::any_of(
              writes.begin(), writes.end(), [&](const NodeSet& q) {
                return quorum::contains(q, prefer) && !intersects(q, excluded);
              });
          const auto preferred = qs->pick_write_quorum(excluded, prefer);
          ASSERT_EQ(preferred.has_value(), feasible) << describe(*qs);
          if (preferred && attainable) {
            ASSERT_TRUE(quorum::contains(*preferred, prefer))
                << describe(*qs) << " prefer=" << p;
          }
        }
      }
    }
  }
}

TEST(QuorumPick, DeterministicAcrossCalls) {
  for (std::size_t n : {5, 9, 16}) {
    for (const auto& qs : all_geometries(n)) {
      const auto a = qs->pick_write_quorum({1}, 0);
      const auto b = qs->pick_write_quorum({1}, 0);
      ASSERT_EQ(a.has_value(), b.has_value()) << describe(*qs);
      if (a) ASSERT_EQ(*a, *b) << describe(*qs);
    }
  }
}

// ---------- minimality against the majority baseline ----------

TEST(QuorumMinimality, StructuralGeometriesBeatMajorityAt16) {
  // The point of the exercise: at N = 16 the majority quorum is 9 strong,
  // a 4x4 grid touring 7 and a binary tree touring 5 — strictly below
  // ⌈(N+1)/2⌉, with the intersection property intact (proved above).
  const std::size_t n = 16;
  const std::size_t majority = (n + 2) / 2;  // ⌈(N+1)/2⌉
  EXPECT_EQ(MajorityQuorum(n).min_write_size(), majority);
  EXPECT_LT(GridQuorum(n).min_write_size(), majority);
  EXPECT_LT(TreeQuorum(n, 2).min_write_size(), majority);
  EXPECT_LT(TreeQuorum(n, 3).min_write_size(), majority);
  EXPECT_EQ(GridQuorum(n).min_write_size(), 7u);  // 4 (column) + 3 (reps)
  // Root-form descent bottoming out through node 7's single child 15 (the
  // all-children form there is just {15}): {0,1,3,15}.
  EXPECT_EQ(TreeQuorum(n, 2).min_write_size(), 4u);

  // And min_write_size is honest: it equals the smallest enumerated quorum.
  for (std::size_t m = 1; m <= 16; ++m) {
    for (const auto& qs : all_geometries(m)) {
      const auto writes = qs->write_quorums();
      std::size_t smallest = m + 1;
      for (const NodeSet& w : writes) smallest = std::min(smallest, w.size());
      ASSERT_EQ(qs->min_write_size(), smallest) << describe(*qs);
    }
  }
}

TEST(QuorumMinimality, ReadLeaseReadsAreSingletons) {
  for (std::size_t n : {4, 9, 16}) {
    const ReadLeaseQuorum lease(std::make_unique<GridQuorum>(n));
    for (const NodeSet& r : lease.read_quorums()) {
      EXPECT_EQ(r.size(), 1u);
      EXPECT_TRUE(quorum::contains(lease.lease_holders(), r.front()));
    }
    // A write must revoke every lease: each write quorum spans the holders.
    for (const NodeSet& w : lease.write_quorums()) {
      EXPECT_TRUE(is_subset(lease.lease_holders(), w));
    }
  }
}

// ---------- construction and configuration ----------

TEST(QuorumSpecTest, FactoryBuildsTheNamedGeometry) {
  QuorumSpec spec;
  EXPECT_EQ(make_quorum_system(spec, 5)->geometry(), Geometry::Majority);
  spec.geometry = Geometry::Tree;
  spec.tree_degree = 3;
  const auto tree = make_quorum_system(spec, 13);
  ASSERT_EQ(tree->geometry(), Geometry::Tree);
  EXPECT_EQ(dynamic_cast<const TreeQuorum&>(*tree).degree(), 3u);
  spec.geometry = Geometry::Grid;
  spec.grid_cols = 3;
  const auto grid = make_quorum_system(spec, 12);
  ASSERT_EQ(grid->geometry(), Geometry::Grid);
  EXPECT_EQ(dynamic_cast<const GridQuorum&>(*grid).cols(), 3u);
  EXPECT_EQ(dynamic_cast<const GridQuorum&>(*grid).rows(), 4u);
  spec.geometry = Geometry::ReadLease;
  spec.lease_inner = Geometry::Tree;
  const auto lease = make_quorum_system(spec, 9);
  ASSERT_EQ(lease->geometry(), Geometry::ReadLease);
  EXPECT_EQ(dynamic_cast<const ReadLeaseQuorum&>(*lease).inner().geometry(),
            Geometry::Tree);
}

TEST(QuorumSpecTest, DefaultGridIsNearSquare) {
  EXPECT_EQ(GridQuorum(16).cols(), 4u);
  EXPECT_EQ(GridQuorum(9).cols(), 3u);
  EXPECT_EQ(GridQuorum(10).cols(), 4u);  // ⌈√10⌉
  EXPECT_EQ(GridQuorum(1).cols(), 1u);
}

TEST(QuorumSpecTest, WeightedMajorityMatchesSeedArithmetic) {
  // votes {3,1,1,1,1}: node 0 plus any other node clears 2·votes > 7.
  const MajorityQuorum qs(5, {3, 1, 1, 1, 1});
  EXPECT_TRUE(qs.write_covered({0, 1}));
  EXPECT_FALSE(qs.write_covered({1, 2, 3}));    // 3 of 7 votes
  EXPECT_TRUE(qs.write_covered({1, 2, 3, 4}));  // 4 of 7 votes
  EXPECT_EQ(qs.min_write_size(), 2u);
}

// ---------- the geometry decision rule ----------

namespace core_test {

using core::Decision;
using core::DoneSet;
using core::LockSnapshot;
using core::LockTable;
using core::ProtocolMutant;
using core::TieBreakMode;

agent::AgentId aid(std::uint32_t n) { return agent::AgentId{n, n * 100, 0}; }

TEST(DecideGeometry, CoverageWinsAndPartialViewsStayUnknown) {
  const GridQuorum grid(4, 2);  // columns {0,2} and {1,3}
  const agent::AgentId a1 = aid(1), a2 = aid(2);
  LockTable table;
  table[0] = LockSnapshot{{a1}, 1};
  table[1] = LockSnapshot{{a1}, 1};
  table[2] = LockSnapshot{{a1}, 1};
  // a1 heads {0,1,2}: column {0,2} complete plus node 1 — a write quorum.
  EXPECT_EQ(core::decide(table, {}, a1, 4, TieBreakMode::TotalOrder, {},
                         ProtocolMutant::None, &grid)
                .kind,
            Decision::Kind::Win);
  const Decision lose = core::decide(table, {}, a2, 4,
                                     TieBreakMode::TotalOrder, {},
                                     ProtocolMutant::None, &grid);
  EXPECT_EQ(lose.kind, Decision::Kind::Lose);
  ASSERT_TRUE(lose.winner.has_value());
  EXPECT_EQ(*lose.winner, a1);

  // Heads on {0,1} only: no full column, and the known set {0,1} is not
  // write-covered either — undecidable, keep touring.
  LockTable partial;
  partial[0] = LockSnapshot{{a1}, 1};
  partial[1] = LockSnapshot{{a1}, 1};
  EXPECT_EQ(core::decide(partial, {}, a1, 4, TieBreakMode::TotalOrder, {},
                         ProtocolMutant::None, &grid)
                .kind,
            Decision::Kind::Unknown);
}

TEST(DecideGeometry, TieBreaksOnceKnownSetIsCovered) {
  const GridQuorum grid(4, 2);
  const agent::AgentId a1 = aid(1), a2 = aid(2);
  // Split heads over a covered known set {0,1,2}: nobody holds a quorum,
  // but every quorum intersects the known set, so the optimistic tie-break
  // may fire: a1 and a2 tie at max head-count and the smaller id wins.
  LockTable table;
  table[0] = LockSnapshot{{a1, a2}, 1};
  table[1] = LockSnapshot{{a2, a1}, 1};
  table[2] = LockSnapshot{{a1, a2}, 1};
  const Decision d = core::decide(table, {}, a1, 4, TieBreakMode::TotalOrder, {},
                                  ProtocolMutant::None, &grid);
  EXPECT_EQ(d.kind, Decision::Kind::Win);
  EXPECT_EQ(core::decide(table, {}, a2, 4, TieBreakMode::TotalOrder, {},
                         ProtocolMutant::None, &grid)
                .kind,
            Decision::Kind::Lose);
}

TEST(SplitQuorumMutant, FakesCoverageWithDisjointHalves) {
  const GridQuorum grid(4, 2);
  // The mutant accepts either static half — {0,1} or {2,3} — although
  // neither contains a full grid column, and the two halves are disjoint:
  // exactly the intersection violation the monitor must catch.
  EXPECT_TRUE(core::mutant_write_covered(grid, {0, 1},
                                         ProtocolMutant::SplitQuorum));
  EXPECT_TRUE(core::mutant_write_covered(grid, {2, 3},
                                         ProtocolMutant::SplitQuorum));
  EXPECT_FALSE(grid.write_covered({0, 1}));
  EXPECT_FALSE(grid.write_covered({2, 3}));
  EXPECT_FALSE(intersects({0, 1}, {2, 3}));
  // And the mutant picks the half around the preferred node.
  const auto lower =
      core::mutant_pick_write_quorum(grid, {}, 0, ProtocolMutant::SplitQuorum);
  const auto upper =
      core::mutant_pick_write_quorum(grid, {}, 3, ProtocolMutant::SplitQuorum);
  ASSERT_TRUE(lower && upper);
  EXPECT_EQ(*lower, (NodeSet{0, 1}));
  EXPECT_EQ(*upper, (NodeSet{2, 3}));
  // Unmutated dispatch is untouched.
  EXPECT_TRUE(core::mutant_write_covered(grid, {0, 1, 2},
                                         ProtocolMutant::None));
}

}  // namespace core_test

// ---------- end-to-end geometry runs ----------

runner::ExperimentConfig geometry_run_config(Geometry geometry,
                                             std::size_t servers,
                                             std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.servers = servers;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = seed;
  config.marp.quorum.geometry = geometry;
  config.workload.mean_interarrival_ms = 60.0;
  config.workload.write_fraction = 0.7;
  config.workload.duration = sim::SimTime::seconds(2);
  config.marp.read_mode = core::ReadMode::QuorumAgent;
  return config;
}

TEST(GeometryEndToEnd, EveryGeometryCommitsConsistently) {
  for (const Geometry geometry :
       {Geometry::Majority, Geometry::Tree, Geometry::Grid,
        Geometry::ReadLease}) {
    const runner::RunResult result =
        runner::run_experiment(geometry_run_config(geometry, 9, 11));
    EXPECT_TRUE(result.consistent)
        << geometry_name(geometry) << ": "
        << (result.consistency_problems.empty()
                ? ""
                : result.consistency_problems[0]);
    EXPECT_EQ(result.mutex_violations, 0u) << geometry_name(geometry);
    EXPECT_GT(result.successful_writes, 0u) << geometry_name(geometry);
    EXPECT_GT(result.reads, 0u) << geometry_name(geometry);
  }
}

TEST(GeometryEndToEnd, CrashTriggersQuorumReselection) {
  for (const Geometry geometry : {Geometry::Tree, Geometry::Grid}) {
    runner::ExperimentConfig config = geometry_run_config(geometry, 9, 5);
    config.workload.write_fraction = 1.0;
    config.marp.migration_retry_limit = 1;
    runner::FailureEvent crash;
    crash.node = 1;  // inner tree node / grid column member
    crash.at = sim::SimTime::seconds(0.5);
    crash.fail = true;
    config.failures.push_back(crash);
    const runner::RunResult result = runner::run_experiment(config);
    EXPECT_TRUE(result.consistent)
        << geometry_name(geometry) << ": "
        << (result.consistency_problems.empty()
                ? ""
                : result.consistency_problems[0]);
    EXPECT_EQ(result.mutex_violations, 0u) << geometry_name(geometry);
    EXPECT_GT(result.successful_writes, 0u) << geometry_name(geometry);
    EXPECT_GT(result.marp_stats.quorum_reselections, 0u)
        << geometry_name(geometry)
        << ": no fallback re-selection fired around the crash";
  }
}

// Regression for the ACK version floor (found by the 500-seed geometry
// chaos sweeps): a small tree/grid quorum can overlap a concurrent session
// at a *single* server, and when that server's NACKs are all dropped the
// stale attempt eventually assembles its ACKs after the other session
// committed — stamping versions computed at its original lock time, below
// the predecessor's. The ACK now carries the granting server's applied
// high-water mark and the winner restamps above the floor before COMMIT.
// These seeds (chaos_sim sweep, N=9) all produced "commit log entry ...
// not after the group's predecessor" before the fix.
TEST(GeometryEndToEnd, AckVersionFloorKeepsCommitOrderUnderMessageFaults) {
  struct Case {
    Geometry geometry;
    std::uint64_t seed;
  };
  for (const Case c : {Case{Geometry::Tree, 10}, Case{Geometry::Tree, 25},
                       Case{Geometry::Tree, 34}, Case{Geometry::Tree, 42}}) {
    runner::ExperimentConfig config;
    config.servers = 9;
    config.protocol = runner::ProtocolKind::Marp;
    config.seed = c.seed;
    config.marp.quorum.geometry = c.geometry;
    // Mirror chaos_sim's scenario generator: seeded workload shape + the
    // seeded fault plan (crash/partition/drop/dup/reorder windows).
    sim::RngFactory factory(c.seed);
    sim::Rng rng = factory.stream("chaos-scenario");
    config.workload.duration = sim::SimTime::millis(
        1500 + static_cast<std::int64_t>(rng.bounded(2500)));
    config.workload.mean_interarrival_ms = rng.uniform(60.0, 150.0);
    config.workload.write_fraction = 1.0;
    config.workload.num_keys = 1 + rng.bounded(4);
    config.marp.num_lock_groups = rng.bernoulli(0.3) ? 2 : 1;
    config.marp.reliable_commit = true;
    config.marp.migration_retry_limit = 4;
    config.marp.migration_retry_backoff = sim::SimTime::millis(20);
    config.marp.anti_entropy_interval = sim::SimTime::millis(250);
    config.drain = sim::SimTime::seconds(20);
    config.fault_plan =
        fault::make_random_plan(c.seed, config.servers, config.workload.duration);
    const runner::RunResult result = runner::run_experiment(config);
    EXPECT_TRUE(result.consistent)
        << geometry_name(c.geometry) << " seed " << c.seed << ": "
        << (result.consistency_problems.empty()
                ? ""
                : result.consistency_problems[0]);
    EXPECT_EQ(result.mutex_violations, 0u)
        << geometry_name(c.geometry) << " seed " << c.seed;
  }
}

// ---------- model checker over geometries ----------

TEST(GeometryModelCheck, GridN4ExhaustsCleanly) {
  check::ScenarioConfig scenario;
  scenario.servers = 4;
  scenario.agents = 2;
  scenario.quorum.geometry = Geometry::Grid;
  check::ExploreLimits limits;
  const check::ExploreReport report = check::explore(scenario, limits);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front().problem;
}

TEST(GeometryModelCheck, TreeN5ExhaustsCleanly) {
  check::ScenarioConfig scenario;
  scenario.servers = 5;
  scenario.agents = 2;
  scenario.quorum.geometry = Geometry::Tree;
  check::ExploreLimits limits;
  limits.max_schedules = 30000;
  const check::ExploreReport report = check::explore(scenario, limits);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front().problem;
}

TEST(GeometryModelCheck, SplitQuorumMutantIsCaughtAndReplays) {
  check::ScenarioConfig scenario;
  scenario.servers = 4;
  scenario.agents = 2;
  scenario.quorum.geometry = Geometry::Grid;
  scenario.mutant = core::ProtocolMutant::SplitQuorum;
  check::ExploreLimits limits;
  limits.max_schedules = 20000;
  limits.fail_fast = true;
  const check::ExploreReport report = check::explore(scenario, limits);
  ASSERT_FALSE(report.violations.empty())
      << "the non-intersecting SplitQuorum mutant escaped the monitor";
  const check::ViolationRecord& v = report.violations.front();
  EXPECT_NE(v.problem.find("intersection"), std::string::npos) << v.problem;
  // The replay promise: the schedule string alone reproduces the identical
  // failure.
  const check::ReplayResult replayed = check::replay(scenario, v.schedule);
  EXPECT_TRUE(replayed.outcome.violation);
  EXPECT_EQ(replayed.outcome.problem, v.problem);
  EXPECT_EQ(replayed.outcome.violation_step, v.step);
}

}  // namespace
}  // namespace marp::quorum
