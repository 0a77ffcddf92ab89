// UpdateAgent — the mobile agent of Algorithm 1.
//
// Carries a batch of write requests from its origin server, travels the
// replicated servers appending itself to their locking lists, accumulates
// locking information (LT) and finished-agent information (UAL), and — once
// it holds the highest priority — synchronises to the freshest copy,
// sends UPDATE, collects a write quorum of acks, multicasts COMMIT, reports
// to its origin, and disposes. Which servers it tours and asks, and what
// counts as a quorum, is the electorate of each of its lock groups
// (membership/electorate.hpp).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "marp/priority.hpp"
#include "marp/tour.hpp"
#include "marp/wire.hpp"
#include "membership/electorate.hpp"
#include "replica/versioned_store.hpp"

namespace marp::trace {
class Tracer;
}

namespace marp::core {

class MarpServer;

/// Registry name for this agent type.
inline constexpr const char* kUpdateAgentType = "marp.update";

class UpdateAgent final : public agent::MobileAgent {
 public:
  struct PendingWrite {
    std::uint64_t request_id = 0;
    std::string key;
    std::string value;
  };

  enum class Phase : std::uint8_t {
    Traveling = 0,  ///< collecting locks / migrating
    Waiting = 1,    ///< USL exhausted, not highest priority — parked
    Updating = 2,   ///< winner: UPDATE broadcast out, gathering acks
    Done = 3,
    /// Decision made (COMMIT or RELEASE sent): lingering only to retransmit
    /// the outcome to unacked servers and REPORT to the origin until both
    /// are covered or the linger's round budget expires. The outcome is
    /// final — this phase exists so transient loss cannot half-apply it.
    Committing = 4
  };

  UpdateAgent() = default;  ///< for the registry (state set by deserialize)
  UpdateAgent(net::NodeId origin, std::vector<PendingWrite> writes);

  std::string type_name() const override { return kUpdateAgentType; }

  void on_created(agent::AgentContext& ctx) override;
  void on_arrival(agent::AgentContext& ctx) override;
  void on_migration_failed(agent::AgentContext& ctx, net::NodeId destination) override;
  void on_message(agent::AgentContext& ctx, net::MessageType type,
                  const serial::Bytes& payload) override;
  void on_signal(agent::AgentContext& ctx, std::uint32_t signal) override;
  void on_timer(agent::AgentContext& ctx, std::uint64_t token) override;

  void serialize(serial::Writer& w) const override;
  void deserialize(serial::Reader& r) override;

  // Introspection (tests).
  Phase phase() const noexcept { return phase_; }
  const GroupLockTable& lock_tables() const noexcept { return lt_; }
  const std::vector<shard::GroupId>& lock_groups() const noexcept { return groups_; }
  const DoneSet& updated_agents() const noexcept { return ual_; }
  std::uint32_t servers_visited() const noexcept { return tour_.servers_visited(); }

 private:
  static constexpr std::uint64_t kTokenVisit = 1;
  static constexpr std::uint64_t kTokenPatrol = 2;
  static constexpr std::uint64_t kTokenAckRetry = 3;
  static constexpr std::uint64_t kTokenClaimRetry = 4;
  static constexpr std::uint64_t kTokenCommitRetry = 5;
  static constexpr std::uint64_t kTokenMigrationRetry = 6;

  void arm_patrol(agent::AgentContext& ctx);

  /// The installed execution tracer, or nullptr (one pointer chase; every
  /// hook site is guarded so untraced runs pay a single branch).
  trace::Tracer* tracer(agent::AgentContext& ctx) const;
  std::vector<std::string> keys() const;

  void do_visit(agent::AgentContext& ctx);
  void evaluate(agent::AgentContext& ctx);
  /// Leave every Locking List and re-tour from scratch: everything observed
  /// so far (queue positions, snapshots, acks) is void. With `newer`, the
  /// session met a newer view: it adopts that epoch and tours its replicas
  /// (skipped wholesale by the MixedEpoch mutant). Aborts when no quorum
  /// survives the unavailable servers.
  void withdraw_and_requeue(agent::AgentContext& ctx,
                            const membership::InstalledView* newer = nullptr);
  void begin_update(agent::AgentContext& ctx);
  /// Withdraw a losing update attempt and park until `holder` finishes.
  void demote(agent::AgentContext& ctx, const agent::AgentId& holder,
              bool broadcast_unlock);
  void finish_update(agent::AgentContext& ctx);
  void abort(agent::AgentContext& ctx);
  /// The outcome tail of commit and abort alike: fan COMMIT or RELEASE out,
  /// apply it here, then report and dispose, or linger (reliable_commit).
  void conclude(agent::AgentContext& ctx, bool commit);
  /// Send the outcome to every server not in commit_acks_ (a retransmit is
  /// counted as an anomaly).
  void send_outcome(agent::AgentContext& ctx, bool retransmit) const;
  void send_report(agent::AgentContext& ctx, bool success);
  /// Dispose once every server confirmed the outcome and the origin acked
  /// the REPORT.
  void maybe_finish_commit(agent::AgentContext& ctx);

  /// Delay before the next UPDATE retransmit round: the configured interval,
  /// or — for a session touring a candidate quorum — an eighth of it,
  /// doubling back up to the full interval. A minimal quorum has no spare
  /// ACKs, so every lost message stalls the session until the next round;
  /// under sustained link loss a conservative first retry serialises the
  /// whole workload behind 100 ms stalls.
  sim::SimTime ack_retry_delay(agent::AgentContext& ctx) const;

  /// Electorate of lock group `g` under the local server's installed view.
  const membership::Electorate& electorate(agent::AgentContext& ctx,
                                           shard::GroupId g) const;
  /// Whether this session tours one candidate write quorum instead of every
  /// replica (membership::Electorate::tours_quorum).
  bool tours_quorum(agent::AgentContext& ctx) const;
  /// The servers this session tours and sends its first UPDATE to under
  /// `view`, ascending: per lock group, a candidate write quorum picked
  /// around the unavailable servers (preferring the origin) where the
  /// electorate tours one, every replica otherwise. Recomputed on demand from
  /// state that is already serialized, so the migrating byte size — and the
  /// bandwidth-model virtual time — is untouched. nullopt = some group's
  /// quorum does not survive the unavailable servers.
  std::optional<quorum::NodeSet> tour_set(
      agent::AgentContext& ctx, const membership::InstalledView& view) const;
  /// Every replica of this session's groups under the installed view.
  quorum::NodeSet replicas(agent::AgentContext& ctx) const;
  /// Whether the acks gathered so far cover a write quorum of every group.
  bool ack_quorum_reached(agent::AgentContext& ctx) const;

  /// Next migration target per the routing policy, or kInvalidNode.
  net::NodeId pick_next_target(agent::AgentContext& ctx) const;
  /// Known server with the oldest LT stamp (patrol target).
  net::NodeId pick_stalest(agent::AgentContext& ctx) const;

  // --- migrating state (all serialized) ---
  net::NodeId origin_ = net::kInvalidNode;
  std::vector<PendingWrite> writes_;
  Phase phase_ = Phase::Traveling;
  std::int64_t dispatched_us_ = 0;
  std::int64_t lock_obtained_us_ = 0;
  Tour tour_;  ///< USL, visited and unavailable servers, routing costs
  /// Lock groups the write-set routes to, ascending (set at creation — the
  /// acquisition order that keeps multi-group claims deadlock-free).
  std::vector<shard::GroupId> groups_;
  GroupLockTable lt_;                     ///< per-group Locking Tables (§3.2)
  DoneSet ual_;                           ///< Updated Agents List (§3.2)
  std::map<std::string, replica::VersionedValue> freshest_;
  net::NodeId current_target_ = net::kInvalidNode;
  std::vector<WriteOp> ops_;              ///< built at begin_update
  quorum::NodeSet acks_;
  std::uint32_t ack_rounds_ = 0;
  /// Max applied_high over this attempt's ACKs (incl. the local grant).
  /// Never serialized: the agent re-enters Updating after any migration.
  replica::Version ack_floor_;
  /// Committing-phase linger state: whether the outcome is a COMMIT (false:
  /// a RELEASE), which servers confirmed it, how many retransmit rounds have
  /// elapsed, and whether the origin acknowledged the REPORT.
  bool committed_ = false;
  quorum::NodeSet commit_acks_;
  std::uint32_t commit_rounds_ = 0;
  bool report_acked_ = false;
  /// Set after losing an ack race to a smaller-id (higher-priority) holder:
  /// do not re-attempt the update until that holder is seen to have
  /// finished (prevents claim livelock).
  bool defer_ = false;
  agent::AgentId defer_to_;
  std::int64_t defer_since_us_ = 0;
  /// Sequences update attempts; stale ACK/NACKs from withdrawn attempts are
  /// ignored by comparing against this.
  std::uint32_t attempt_seq_ = 0;
  /// Cross-group stall detection (multi-group claims only): when the set of
  /// per-group winners this agent is losing to last changed, and its
  /// fingerprint. An unchanged losing view for kRequeueTimeout — while
  /// heading some group and losing another to a younger agent — means a
  /// probable wait cycle, answered by withdraw_and_requeue().
  std::int64_t stall_since_us_ = 0;
  std::uint64_t stall_fingerprint_ = 0;
  /// Epoch of the view the current tour runs under (0 = static deployment).
  /// Serialized as a trailing optional field, so a static deployment's
  /// migrations carry no byte of it.
  std::uint64_t epoch_ = 0;

  // Not serialized: timers do not survive migration, so arming state resets
  // with each hop.
  bool patrol_armed_ = false;
};

}  // namespace marp::core
