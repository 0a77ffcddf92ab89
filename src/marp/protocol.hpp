// MarpProtocol — the facade that assembles a full MARP deployment: one
// MarpServer per node, the UpdateAgent type registration, outcome routing,
// the fail-stop/notification machinery, and the mutual-exclusion monitor
// that checks Theorem 2 on every run.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "agent/platform.hpp"
#include "marp/config.hpp"
#include "marp/server.hpp"
#include "quorum/quorum.hpp"
#include "replica/request.hpp"

namespace marp::trace {
class Tracer;
}

namespace marp::core {

/// Protocol-level anomalies: duplicated, reordered, or orphaned coordination
/// messages that the hardened handlers absorb idempotently instead of
/// ignoring silently. All benign by design — the counters exist so chaos
/// runs can show the defence actually fired (and metrics reports can surface
/// a lossy deployment).
struct ProtocolAnomalies {
  std::uint64_t stale_acks = 0;        ///< ACK/NACK for a withdrawn or finished attempt
  std::uint64_t stale_updates = 0;     ///< UPDATE from a finished agent / withdrawn attempt
  std::uint64_t duplicate_updates = 0; ///< re-delivered UPDATE re-granted idempotently
  std::uint64_t duplicate_commits = 0; ///< COMMIT for an agent already in the UL
  std::uint64_t duplicate_reports = 0; ///< re-delivered REPORT deduplicated at the origin
  std::uint64_t orphaned_reports = 0;  ///< REPORT for a request lost to an origin crash
  std::uint64_t commit_retransmits = 0;///< COMMIT copies re-sent to silent servers
  std::uint64_t report_retransmits = 0;///< REPORT copies re-sent to a silent origin
  std::uint64_t release_retransmits = 0;///< RELEASE copies re-sent by an aborter
  std::uint64_t failed_read_quorums = 0;///< ReadAgent found no live read quorum
  std::uint64_t epoch_stale_updates = 0;///< UPDATE fenced: wrong epoch or promised newer view
  std::uint64_t epoch_stale_acks = 0;  ///< ACK from a different epoch discarded by the agent
  std::uint64_t joiner_refusals = 0;   ///< UPDATE refused by a member still catching up

  std::uint64_t total() const noexcept {
    return stale_acks + stale_updates + duplicate_updates + duplicate_commits +
           duplicate_reports + orphaned_reports + commit_retransmits +
           report_retransmits + release_retransmits + failed_read_quorums +
           epoch_stale_updates + epoch_stale_acks + joiner_refusals;
  }
};

enum class Anomaly : std::uint8_t {
  StaleAck,
  StaleUpdate,
  DuplicateUpdate,
  DuplicateCommit,
  DuplicateReport,
  OrphanedReport,
  CommitRetransmit,
  ReportRetransmit,
  ReleaseRetransmit,
  FailedReadQuorum,
  EpochStaleUpdate,
  EpochStaleAck,
  JoinerRefusal
};

struct MarpStats {
  std::uint64_t updates_committed = 0;
  std::uint64_t updates_aborted = 0;
  std::uint64_t update_attempts = 0;  ///< begin_update calls (incl. demoted)
  std::uint64_t reads_served = 0;
  /// Times a multi-group agent broke a cross-group wait cycle by leaving
  /// every Locking List and re-queuing at the tails (see kRequeueTimeout in
  /// update_agent.cpp).
  std::uint64_t lock_requeues = 0;
  /// Times an agent assembled a write quorum of update grants in some lock
  /// group while another agent's grants also covered a write quorum of that
  /// group's electorate. Theorem 2 says this stays 0; tests assert it. Grant
  /// sets are disjoint, so two covering ones exist only if quorum
  /// intersection is broken.
  std::uint64_t mutex_violations = 0;
  /// Times an agent re-picked its candidate quorum after a member turned
  /// out crashed/partitioned (non-majority geometries only). Chaos sweeps
  /// assert the fallback path actually fires.
  std::uint64_t quorum_reselections = 0;
  /// Remote agents whose lock state a server expired via the agent lease
  /// (config.agent_lease_timeout) — dead-process cleanup on the real
  /// substrate, where no fail-stop notice ever arrives.
  std::uint64_t agents_lease_purged = 0;
  /// View changes activated (dynamic membership): each join/leave that
  /// completed its two-phase epoch bump counts once.
  std::uint64_t view_changes = 0;
  /// Sessions that aborted-and-re-toured after meeting a newer epoch.
  std::uint64_t epoch_retours = 0;
  /// Absorbed message-level faults (see ProtocolAnomalies).
  ProtocolAnomalies anomalies;
};

/// Protocol milestones surfaced to an observer (the fault injector uses
/// these to fire scripted faults at a named phase, e.g. "partition the
/// winner away right after it assembled its quorum, before COMMIT").
enum class ProtocolPhase : std::uint8_t {
  UpdateAttempt,  ///< an agent broadcast UPDATE (begin_update)
  UpdateQuorum,   ///< a majority of grants assembled, COMMIT not yet sent
  UpdateCommit,   ///< COMMIT broadcast
  UpdateAbort     ///< the agent gave up
};

struct PhaseEvent {
  ProtocolPhase phase = ProtocolPhase::UpdateAttempt;
  agent::AgentId agent;
  /// Node where the event happened; kInvalidNode when unknown.
  net::NodeId node = net::kInvalidNode;
};

/// One write of a committed update session, tagged with the lock group its
/// key routes to (the consistency checker orders commits per group).
struct CommitEntry {
  std::string key;
  shard::GroupId group = 0;
  replica::Version version;
};

/// One committed update session, in global commit order (test oracle).
struct CommitRecord {
  agent::AgentId agent;
  sim::SimTime committed;
  std::vector<CommitEntry> entries;
};

class MarpProtocol final : public replica::ReplicationProtocol {
 public:
  /// Builds servers for every node of `network` and wires them into
  /// `platform` (app handlers, services, agent type registration).
  MarpProtocol(net::Network& network, agent::AgentPlatform& platform,
               MarpConfig config = {});

  std::string name() const override { return "MARP"; }
  void submit(const replica::Request& request) override;
  void set_outcome_handler(replica::OutcomeHandler handler) override;
  void fail_server(net::NodeId node) override;
  void recover_server(net::NodeId node) override;

  MarpServer& server(net::NodeId node);
  std::size_t size() const noexcept { return servers_.size(); }
  const MarpConfig& config() const noexcept { return config_; }

  const MarpStats& stats() const noexcept { return stats_; }
  const std::vector<CommitRecord>& commit_log() const noexcept { return commit_log_; }
  const shard::ShardRouter& router() const noexcept { return router_; }

  /// Observer for protocol milestones (fault injection, tracing). Called
  /// synchronously at the milestone — a probe that cuts links inside
  /// UpdateQuorum acts before the COMMIT broadcast goes out.
  using PhaseProbe = std::function<void(const PhaseEvent&)>;
  void set_phase_probe(PhaseProbe probe) { phase_probe_ = std::move(probe); }
  /// Current probe — lets a second observer (e.g. the model checker's
  /// invariant monitor) wrap an already-installed one instead of
  /// silently displacing it.
  const PhaseProbe& phase_probe() const noexcept { return phase_probe_; }

  /// Install an execution tracer (nullptr to remove; not owned). Servers
  /// and agents reach it through protocol().tracer() behind null checks, so
  /// an untraced run pays one pointer test per hook site.
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }
  trace::Tracer* tracer() const noexcept { return tracer_; }

  /// Kill notification for agents that died *without* their host failing
  /// (e.g. a chaos kill of an in-flight agent): after the §2 failure-notice
  /// delay every live server purges state owned by the dead agents, exactly
  /// as for agents lost to a server crash.
  void announce_agent_deaths(std::vector<agent::AgentId> dead);

  // ---- called by agents/servers ----
  void note_update_attempt(const agent::AgentId& agent,
                           net::NodeId node = net::kInvalidNode);
  /// Called when `agent` has collected a write quorum of grants in each of
  /// `groups` (empty = group 0); audits every group's per-server grant
  /// holders for a competitor whose grants also cover a write quorum (the
  /// per-group Theorem 2 monitor). The check is (group, epoch)-scoped: a
  /// competitor's grant set is tested against the group's electorate in
  /// *every* recorded view, so a mixed-epoch "quorum" assembled by the
  /// MixedEpoch mutant is flagged even though no single view covers it.
  void note_update_quorum(const agent::AgentId& agent,
                          const std::vector<shard::GroupId>& groups = {},
                          net::NodeId node = net::kInvalidNode);
  void note_update_commit(const agent::AgentId& agent,
                          const std::vector<WriteOp>& ops,
                          net::NodeId node = net::kInvalidNode);
  void note_update_abort(const agent::AgentId& agent,
                         net::NodeId node = net::kInvalidNode);
  void note_update_requeue(const agent::AgentId& agent);
  void note_quorum_reselection() { ++stats_.quorum_reselections; }
  void note_read() { ++stats_.reads_served; }

  /// The cluster-wide quorum geometry (never null; Majority by default) —
  /// the static deployment's electorate, or the pre-mapping inner geometry
  /// at cluster size under partial replication.
  const quorum::QuorumSystem& quorum_system() const noexcept { return *quorum_; }
  void note_anomaly(Anomaly kind);
  void note_agents_lease_purged(std::uint64_t n) { stats_.agents_lease_purged += n; }

  // ---- views ----

  /// Newest view any server has activated (the initial view until a change
  /// completes; the epoch-0 full-replication view of a static deployment).
  /// Test/monitor oracle — individual servers may lag behind this during a
  /// change.
  const membership::MembershipView& current_view() const;
  /// Every view recorded so far with its electorates, ascending by epoch.
  const std::vector<std::shared_ptr<const membership::InstalledView>>&
  view_history() const noexcept {
    return views_;
  }
  /// Whether `node` owes a copy of `key` at quiescence: it hosts the key's
  /// group in the newest view, has installed that view, and has not left.
  bool owes_copy(net::NodeId node, const std::string& key) const;
  /// Called by each server on view activation; first activation of an epoch
  /// records it in the oracle history and counts a view change.
  void note_view_activated(std::shared_ptr<const membership::InstalledView> view);
  void note_epoch_retour() { ++stats_.epoch_retours; }

  /// Start a two-phase view change adding/removing `node`, coordinated by
  /// the lowest live member of the current view. Returns false when
  /// membership is off, the node is already in the target state, no live
  /// coordinator exists, or a change is already pending at the coordinator.
  bool request_join(net::NodeId node);
  bool request_leave(net::NodeId node);

 private:
  bool begin_view_change(std::vector<net::NodeId> new_active);

  net::Network& network_;
  agent::AgentPlatform& platform_;
  MarpConfig config_;
  shard::ShardRouter router_;
  std::shared_ptr<const quorum::QuorumSystem> quorum_;
  std::vector<std::unique_ptr<MarpServer>> servers_;
  /// Recorded views, ascending by epoch; never empty.
  std::vector<std::shared_ptr<const membership::InstalledView>> views_;
  MarpStats stats_;
  std::vector<CommitRecord> commit_log_;
  PhaseProbe phase_probe_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace marp::core
