// InvariantMonitor — the safety oracle of the model checker (src/check/).
//
// Asserts, after every simulator step and at key protocol milestones, the
// paper's correctness claims on the *ground-truth* state — the actual
// Locking Lists, grants, commit log and stores across all servers — never
// on any agent's possibly-stale view:
//
// * Theorem 1/2 (agreement + unique top priority): whenever an agent
//   assembles an update quorum under the paper's own electorate (the static
//   majority, where every tour is full), the unmutated priority rule applied
//   to the real per-server Locking Lists must elect exactly that agent.
//   Under every other electorate agents see partial views on purpose, and
//   what must hold is that the agent's grants cover a true write quorum of
//   the group's electorate in some recorded view. Checked synchronously at
//   the UpdateQuorum milestone via the phase probe, and continuously
//   through the protocol's own competing-quorum counter.
// * Order preservation: the commit log stays strictly version-ordered per
//   lock group and per key (checked incrementally, so a violation is
//   attributed to the exact step that committed out of order).
// * Theorem 3 (migration bounds): no agent migrates more than a
//   configuration-derived bound (a generous multiple of the tour length —
//   the theorem's O(N) claim, with slack for contention re-tours).
// * Grant-leak freedom + liveness-within-horizon (final checks): once the
//   run quiesces, no grants are held, every Locking List is empty, every
//   submitted request was answered, and all surviving replicas converged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/platform.hpp"
#include "marp/protocol.hpp"

namespace marp::check {

struct MonitorConfig {
  std::size_t servers = 3;
  std::size_t lock_groups = 1;
  std::size_t expected_outcomes = 0;
  /// Every submitted request must be answered by the end of the run
  /// (off for lossy fault plans, where crashes may eat requests).
  bool expect_completion = true;
  /// Quorum ⇒ ground-truth winner checks; sound in fault-free runs (where
  /// Locking-List entries only leave by committing), off under faults.
  bool strict_agreement = true;
  std::uint64_t max_migrations_per_agent = 0;  ///< 0 = derive from config
};

class InvariantMonitor final : public agent::PlatformObserver {
 public:
  InvariantMonitor(core::MarpProtocol& protocol, agent::AgentPlatform& platform,
                   net::Network& network, MonitorConfig config);

  /// Wraps any already-installed phase probe (fault injector) and registers
  /// as platform observer. Call after the injector is armed.
  void install();

  /// Per-step invariants; false once a violation has been recorded.
  bool after_step(std::uint64_t step);

  /// End-of-run invariants (quiescence, completeness, convergence).
  /// `eligible[i]` marks servers that never crashed; `outcomes` counts
  /// answered requests.
  void final_checks(const std::vector<bool>& eligible, std::size_t outcomes);

  bool ok() const noexcept { return problem_.empty(); }
  const std::string& problem() const noexcept { return problem_; }
  std::uint64_t violation_step() const noexcept { return violation_step_; }
  std::int64_t violation_time_us() const noexcept { return violation_time_us_; }

  // PlatformObserver — Theorem 3 accounting.
  void on_migration_started(const agent::AgentId& id, net::NodeId from,
                            net::NodeId to, std::size_t bytes) override;

 private:
  void on_phase(const core::PhaseEvent& event);
  /// Live servers whose grant of group `g` `agent` holds, ascending.
  quorum::NodeSet grants_of(const agent::AgentId& agent, shard::GroupId g) const;
  void check_quorum_agreement(const core::PhaseEvent& event);
  /// (group, epoch)-scoped Theorem-2 check: the milestone agent's grant set
  /// must contain a write quorum of the group's electorate in at least one
  /// recorded view (intersection-based mutual exclusion). The electorates'
  /// geometries are the protocol's own, never mutated — a seeded
  /// SplitQuorum mutant changes what the agents do, not what the oracle
  /// accepts. Replicas whose grant state was destroyed rather than released
  /// (crashed, or retired by a leave) count as wildcards, so churn can hide
  /// a violation but never fabricate one.
  void check_quorum_intersection(const core::PhaseEvent& event);
  void check_commit_log_order();
  void flag(std::string problem);

  core::MarpProtocol& protocol_;
  agent::AgentPlatform& platform_;
  net::Network& network_;
  MonitorConfig config_;
  core::MarpProtocol::PhaseProbe chained_probe_;
  std::map<agent::AgentId, std::uint64_t> migrations_;
  std::size_t commit_log_checked_ = 0;
  std::string problem_;
  std::uint64_t current_step_ = 0;
  std::uint64_t violation_step_ = 0;
  std::int64_t violation_time_us_ = 0;
};

}  // namespace marp::check
