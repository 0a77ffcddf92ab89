// MarpServer — the replicated-server side of the protocol (Algorithm 2).
//
// A MarpServer buffers client requests and dispatches UpdateAgents (§3.2),
// serves visiting agents locally (lock request, LL/UL snapshots, routing
// table, data versions, gossip cache), and handles the UPDATE / COMMIT /
// RELEASE / REPORT coordination messages.
//
// The keyspace is sharded into `config.num_lock_groups` lock groups (see
// shard/lock_space.hpp): every group runs an independent instance of the
// paper's Locking-List machinery, so updates whose write-sets land in
// disjoint groups never contend. With the default of one group this is
// exactly the paper's single replica-wide lock.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/platform.hpp"
#include "marp/config.hpp"
#include "marp/priority.hpp"
#include "marp/wire.hpp"
#include "membership/electorate.hpp"
#include "replica/locking.hpp"
#include "replica/request.hpp"
#include "replica/server.hpp"
#include "shard/lock_space.hpp"
#include "shard/router.hpp"

namespace marp::core {

class MarpProtocol;

/// Name under which the server publishes itself to visiting agents.
inline constexpr const char* kMarpServiceName = "marp";

/// What a visiting agent takes away from one local interaction (§3.3)
/// besides its Locking Tables, which MarpServer::visit updates in place:
/// the updated list, the routing table and the freshest local copies of the
/// keys it will write.
struct VisitResult {
  agent::AgentIdSet updated_list;  ///< the UL, ascending
  std::vector<std::int64_t> routing_costs;
  std::map<std::string, replica::VersionedValue> data;
};

class MarpServer : public replica::ServerBase {
 public:
  /// `installed` is the initial view (see MarpProtocol).
  MarpServer(net::Network& network, agent::AgentPlatform& platform,
             net::NodeId node, const MarpConfig& config, MarpProtocol& protocol,
             std::shared_ptr<const membership::InstalledView> installed);

  const MarpConfig& config() const noexcept { return config_; }
  MarpProtocol& protocol() noexcept { return protocol_; }
  std::size_t cluster_size() const noexcept { return network_.size(); }
  agent::AgentPlatform& platform() noexcept { return platform_; }

  /// Client entry point: reads answer from the local copy; writes are
  /// buffered and shipped with the next UpdateAgent.
  void submit(const replica::Request& request);

  // ---- local interface used by agents hosted on this node ----

  /// One visit: append `visitor` to the LL of every group its keys route to
  /// (idempotent), record each such hosted group's fresh LL snapshot in the
  /// visitor's `tables`, exchange gossip, and return the rest of what the
  /// agent records. An empty key set queues in group 0 only.
  ///
  /// Gossip (config().gossip) is one in-place exchange per routed group:
  /// where the group is hosted here, `tables` and the gossip cache each take
  /// the other's fresher snapshots (exchange_lock_tables) and the cache
  /// keeps this server's fresh one; where it is routed but not hosted, the
  /// cache only absorbs the visitor's table. Tables of any other group are
  /// ignored, so a frame naming arbitrary groups cannot grow the cache.
  VisitResult visit(const agent::AgentId& visitor,
                    const std::vector<std::string>& keys, GroupLockTable& tables);

  /// Cheap local refresh for an agent already resident here (used on
  /// lock-change signals): fresh LL snapshots + UL only, no gossip exchange,
  /// no data reads — a waiting agent only needs the head information.
  /// Empty `groups` means group 0.
  struct RefreshResult {
    std::map<shard::GroupId, LockSnapshot> locking_lists;
    agent::AgentIdSet updated_list;  ///< the UL, ascending
  };
  RefreshResult refresh(const agent::AgentId& visitor,
                        const std::vector<shard::GroupId>& groups = {});

  /// Outcome of an UPDATE at this server.
  enum class GrantResult : std::uint8_t {
    Granted,    ///< ops staged, every requested grant (re)taken — ACK
    Held,       ///< some requested group's grant is held — NACK with the holder
    Stale,      ///< from a committed agent or a withdrawn attempt — drop
    EpochStale, ///< wrong epoch, or a newer view is promised — EpochNotice
    CatchingUp  ///< member still syncing after a view change — silent refusal
  };

  /// Stage the ops and take the update grants of `payload.groups`,
  /// all-or-nothing in ascending group order. `Held` is the structural
  /// enforcement of Theorem 2 per group: two agents can never both assemble
  /// > N/2 grants of the same group, because each server grants a group to
  /// one session at a time. On Held, nothing is taken and `*conflict_group`
  /// (when non-null) names the first conflicting group. `Stale` rejects
  /// reordered UPDATEs that would otherwise resurrect dead grants.
  GrantResult handle_update_local(const UpdatePayload& payload,
                                  shard::GroupId* conflict_group = nullptr);
  /// Idempotent: a duplicated or reordered COMMIT (agent already in the UL)
  /// re-applies the ops under the Thomas write rule — no double version
  /// bump, no lock churn — and is counted as a DuplicateCommit anomaly.
  void handle_commit_local(const CommitPayload& payload);
  void handle_release_local(const ReleasePayload& payload);
  /// Release only the update grants/staged ops, keeping the LL entries —
  /// used by a claimant demoted by a NACK. Records the attempt so a delayed
  /// UPDATE of that attempt cannot re-take the grants afterwards.
  void handle_unlock_local(const agent::AgentId& agent, std::uint32_t attempt);
  /// Deduplicated on the reporting agent's id: a retransmitted REPORT is
  /// counted (DuplicateReport) and re-acknowledged, never double-reported.
  /// Request ids that are unknown *and* not a duplicate are counted as
  /// OrphanedReport — the origin crashed and lost its outstanding table.
  /// `from` (when valid) names the node hosting the agent, which gets a
  /// kMsgReportAck so it can stop retransmitting.
  void handle_report_local(const ReportPayload& payload,
                           net::NodeId from = net::kInvalidNode);
  void handle_read_report_local(const ReadReportPayload& payload);

  /// Agent currently holding group `g`'s update grant (tests/monitor).
  const std::optional<agent::AgentId>& update_holder(shard::GroupId g = 0) const {
    return lock_space_.group(g).holder;
  }

  /// Highest version this server has applied (commits + anti-entropy).
  /// Rides every ACK so the winner can stamp its writes above everything
  /// its quorum's grant holders had committed at grant time.
  const replica::Version& applied_high() const noexcept { return applied_high_; }
  /// Recovery hook: store restores bypass handle_commit_local (force()), so
  /// a reborn node re-seeds its floor from the recovered manifest.
  void raise_applied_high(const replica::Version& version) {
    if (version > applied_high_) applied_high_ = version;
  }

  // ---- the installed view ----

  /// This server's installed view (the epoch-0 full-replication view of a
  /// static deployment).
  const membership::MembershipView& view() const noexcept { return installed_->view; }
  std::uint64_t epoch() const noexcept { return installed_->view.epoch; }
  /// The installed view with its per-group electorates.
  const membership::InstalledView& installed() const noexcept { return *installed_; }
  /// Electorate of lock group `g` under the installed view.
  const membership::Electorate& electorate(shard::GroupId g) const {
    return installed_->electorate(g);
  }
  /// Joining/gaining member that has not yet finished its catch-up sync; it
  /// refuses update grants until the first store merge completes.
  bool catching_up() const noexcept { return catching_up_; }
  /// Former member that left via a view change: drained, refuses everything.
  bool retired() const noexcept { return retired_; }

  /// Coordinator entry point: start a two-phase change to `new_active`
  /// (propose to old ∪ new members, activate once a write quorum of every
  /// group's old replicas promised). False if a change is already pending
  /// here or the target equals the current membership.
  bool begin_view_change(std::vector<net::NodeId> new_active);

  /// Network message entry point (registered as the node's app handler).
  void handle_message(const net::Message& message);

  /// Failure notification (§2): drop all state owned by `dead` agents.
  void purge_agents(const std::vector<agent::AgentId>& dead);

  /// Drop every piece of coordination state (locking lists, updated list,
  /// staged ops, grants, gossip) without touching the store — used by a
  /// rollback to abort all in-flight update sessions at this server.
  void reset_coordination();

  /// One on-demand anti-entropy round: ask up to `max_peers` random live
  /// peers for their stores (replies merge under the Thomas write rule).
  /// Returns the number of requests actually sent. Unlike the recurring
  /// anti_entropy_interval tick this schedules nothing, so a real node can
  /// drive reconciliation from wall-clock timers without the simulator's
  /// event queue spinning forever.
  std::size_t sync_pull(std::size_t max_peers = 1);

  /// Observer fired after each kMsgSyncRep is merged, with the number of
  /// items the Thomas rule actually applied (catch-up accounting).
  using SyncListener = std::function<void(std::size_t applied)>;
  void set_sync_listener(SyncListener listener) { sync_listener_ = std::move(listener); }

  const replica::LockingList& locking_list(shard::GroupId g = 0) const {
    return lock_space_.group(g).ll;
  }
  const shard::LockSpace& lock_space() const noexcept { return lock_space_; }
  const shard::ShardRouter& router() const noexcept { return router_; }
  const replica::UpdatedList& updated_list() const noexcept { return ul_; }
  /// Locking information left here by visitors (§3.3), per group (tests).
  const GroupLockTable& gossip_cache() const noexcept { return gossip_cache_; }
  std::size_t pending_requests() const noexcept { return pending_.size(); }

 protected:
  void on_fail() override;
  /// With config().recovery_sync, pulls the current store from a live peer
  /// (extension — otherwise the replica only catches up via later commits).
  void on_recover() override;

 private:
  void dispatch_agent();
  void arm_batch_timer();
  void signal_lock_changed();
  /// Recurring anti-entropy tick (config.anti_entropy_interval > 0): ask a
  /// random live peer for its store, merge under the Thomas write rule.
  void anti_entropy_tick();
  /// Record lease-relevant activity of `agent` at this server.
  void touch_agent(const agent::AgentId& agent);
  /// Recurring lease sweep (config.agent_lease_timeout > 0): purge lock
  /// state of remote agents idle past the lease (see config comment).
  void lease_tick();

  // ---- dynamic membership internals ----
  void handle_view_propose(const ViewProposePayload& payload);
  void handle_view_ack(const ViewAckPayload& payload);
  /// Make `next` current: build its electorates, start catch-up when this
  /// node gained groups, drain and retire when it left.
  void activate_view(const membership::MembershipView& next);
  /// Newest view this node knows of (pending promise included) — the one a
  /// catch-up merge filters hosted keys against.
  const membership::MembershipView& newest_view() const noexcept {
    return pending_view_ ? *pending_view_ : view();
  }
  /// Whether this node keeps `key` under the newest view it knows.
  bool keeps(const std::string& key) const {
    return newest_view().hosts(node_, router_.group_of(key));
  }
  /// Peer eligible as a sync/anti-entropy source: live and a member of the
  /// installed view, where the data lives.
  bool sync_peer_ok(net::NodeId peer) const;

  agent::AgentPlatform& platform_;
  const MarpConfig& config_;
  MarpProtocol& protocol_;

  shard::ShardRouter router_;
  /// Per-group locking lists and grant holders.
  shard::LockSpace lock_space_;
  /// The UL stays global: an agent finishes all its groups atomically.
  replica::UpdatedList ul_;
  GroupLockTable gossip_cache_;
  std::map<agent::AgentId, std::vector<WriteOp>> staged_;
  replica::Version applied_high_;  ///< max version ever applied here
  /// Highest attempt each live agent has withdrawn (entries die with the
  /// agent's commit/purge). Guards against reordered stale UPDATEs.
  std::map<agent::AgentId, std::uint32_t> unlocked_attempts_;
  /// Agents whose REPORT this origin has already processed (bounded, like
  /// the UL) — retransmitted reports are re-acked but not double-counted.
  replica::UpdatedList reported_;

  // ---- view state (static deployments never change it) ----
  std::shared_ptr<const membership::InstalledView> installed_;
  /// Promised-but-not-activated view. Holding a promise fences UPDATE
  /// grants of older epochs (phase 1 of the change is the safety fence).
  std::optional<membership::MembershipView> pending_view_;
  /// Coordinator state of an in-flight change started here.
  struct PendingChange {
    membership::MembershipView view;
    quorum::NodeSet acks;
    std::vector<net::NodeId> targets;       ///< old ∪ new active
    /// The view being replaced; the promise quorum is measured in its
    /// electorates.
    std::shared_ptr<const membership::InstalledView> old;
  };
  std::optional<PendingChange> change_;
  bool catching_up_ = false;
  bool retired_ = false;

  std::vector<replica::Request> pending_;
  std::unordered_map<std::uint64_t, replica::Request> outstanding_;
  std::optional<sim::EventId> batch_timer_;
  sim::Rng anti_entropy_rng_;
  SyncListener sync_listener_;
  /// Last lease-relevant activity per agent with live lock state here.
  std::map<agent::AgentId, sim::SimTime> agent_activity_;
};

/// The MARP server on the host an agent callback runs at.
MarpServer& server_here(agent::AgentContext& ctx);

}  // namespace marp::core
