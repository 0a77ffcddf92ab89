// MARP protocol configuration.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "quorum/spec.hpp"
#include "sim/time.hpp"

namespace marp::core {

/// How MARP serves reads.
enum class ReadMode : std::uint8_t {
  /// The paper's design choice (§3.1): "a read operation may be executed on
  /// an arbitrary copy" — serve the local replica, possibly stale.
  LocalCopy,
  /// Extension in the spirit of §5 ("the MAW approach is a generic
  /// method"): a read agent tours servers until it has gathered a read
  /// quorum of votes and returns the freshest copy — Gifford-consistent
  /// reads, paid for with migrations.
  QuorumAgent
};

/// How an agent picks the next server from its Un-visited Servers List.
enum class RoutingPolicy : std::uint8_t {
  CostAware,  ///< cheapest from current location (paper §3.2, routing tables)
  Random,     ///< uniform random among unvisited (ablation)
  ByServerId  ///< fixed ascending-id order (ablation)
};

/// Deliberately broken variants of the §3.2 priority rule, used ONLY to
/// self-validate the model checker (src/check/): a checker that cannot
/// catch these within its bounded schedule space is not checking anything.
/// Agents apply the mutant when deciding; every monitor/oracle always
/// evaluates the unmutated rule, so the divergence is observable.
enum class ProtocolMutant : std::uint8_t {
  None,
  /// Majority threshold off by one: an agent claims victory from locking
  /// lists worth half-minus-one of the votes (⌈(V−1)/2⌉ instead of ⌊V/2⌋+1),
  /// so with N=3 heading a single list "wins".
  MajorityOffByOne,
  /// Tie resolved by the LARGEST agent id instead of the smallest —
  /// deterministic but diverging from Theorem 2's published rule.
  TieBreakLargestId,
  /// Quorum geometry broken on purpose: the cluster is split into two
  /// static halves and an agent treats the half containing its origin as
  /// "the quorum" — both for the quorum it tours and for coverage checks.
  /// The two halves do not intersect, so two concurrent writers can both
  /// believe they hold a write quorum; the intersection monitor must flag
  /// every such grant set as covering no true write quorum.
  SplitQuorum,
  /// Epoch fencing broken on purpose (dynamic membership only): agents do
  /// not abort-and-re-tour on a newer epoch and accept ACKs stamped with a
  /// different epoch, and servers skip the UPDATE epoch fence — so a
  /// session born before a view change can assemble a "quorum" whose
  /// grants span two views. The (group, epoch)-scoped intersection monitor
  /// must flag every such mixed-epoch grant set.
  MixedEpoch
};

/// Command-line and report names (model_check --mutant).
inline constexpr std::array<std::pair<ProtocolMutant, std::string_view>, 5>
    kMutantNames{{
        {ProtocolMutant::None, "none"},
        {ProtocolMutant::MajorityOffByOne, "majority"},
        {ProtocolMutant::TieBreakLargestId, "tiebreak"},
        {ProtocolMutant::SplitQuorum, "split"},
        {ProtocolMutant::MixedEpoch, "mixedepoch"},
    }};

/// How the paper's tie rule is applied once an agent has full information
/// and nobody holds a majority of locking-list heads.
enum class TieBreakMode : std::uint8_t {
  /// The literal condition from Algorithm 1: resolve by agent id only when
  /// M agents top S servers each and S + (N − M·S) < N/2. As published this
  /// leaves reachable deadlocks (e.g. head counts {2,2,1} with N=5) — kept
  /// for fidelity experiments.
  PaperLiteral,
  /// The extension §3.3 sketches ("determine not only the first agent …"):
  /// with heads known for all N servers and no majority holder, the winner
  /// is the agent with (max head count, then smallest id). Always live.
  TotalOrder
};

/// Dynamic membership / partial replication (src/membership/). Disabled by
/// default: the seed protocol's static, fully replicated world, bit for
/// bit. When enabled every lock group is replicated on `replication_factor`
/// servers chosen by the placement policy, sessions are epoch-stamped, and
/// servers join/leave via a two-phase view change.
struct MembershipConfig {
  /// Copies per lock group; 0 disables dynamic membership entirely.
  std::uint32_t replication_factor = 0;
  /// Servers in the initial view (epoch 1); 0 = every node. Nodes beyond
  /// this count start as spares outside the view, available to join later.
  std::size_t initial_members = 0;

  bool enabled() const noexcept { return replication_factor > 0; }
};

struct MarpConfig {
  /// Lock groups the keyspace is sharded into (see shard/router.hpp). Each
  /// group is an independent instance of the paper's Locking-List consensus,
  /// so updates touching disjoint groups commit in parallel. 1 (default)
  /// keeps the paper's single replica-wide lock, bit-for-bit.
  std::size_t num_lock_groups = 1;

  /// Requests buffered at a server before an agent is dispatched (§3.2:
  /// "after a pre-defined number of requests … or periodically").
  std::size_t batch_size = 1;
  /// Dispatch a partial batch this long after its first request.
  sim::SimTime batch_period = sim::SimTime::millis(50);

  /// Migration retries before a replica is declared unavailable (§2).
  /// Plumbed through marp_sim as --migration-retries.
  std::uint32_t migration_retry_limit = 2;

  /// Base wait before re-dispatching a failed migration; doubles with every
  /// consecutive failure to the same destination (exponential backoff).
  /// Zero (default) retries immediately — the seed behaviour, suited to
  /// fail-stop detection. Non-zero spaces retries out so a *transiently*
  /// lossy link (chaos drop faults) gets time to deliver before the replica
  /// is written off as unavailable.
  sim::SimTime migration_retry_backoff = sim::SimTime::zero();

  /// Agents leave/merge locking info at servers (§3.3 information sharing).
  bool gossip = true;

  RoutingPolicy routing = RoutingPolicy::CostAware;
  TieBreakMode tie_break = TieBreakMode::TotalOrder;
  /// Seeded fault for checker self-validation; None in every real config.
  ProtocolMutant mutant = ProtocolMutant::None;

  /// Per-server vote weights; empty = one vote each (the paper's plain
  /// majority). Non-empty generalizes MARP to weighted voting: an agent
  /// wins once it heads locking lists worth more than half the votes.
  /// Applies to the Majority quorum geometry only.
  std::vector<std::uint32_t> votes;

  /// Which quorum construction write/read quorums come from. Majority
  /// (default) is the seed protocol bit-for-bit: agents tour all servers
  /// and win on vote counts. Tree/grid/read-lease restrict each agent to a
  /// candidate quorum it picks (and re-picks around failures); mutual
  /// exclusion then rests on quorum intersection arbitrated by the
  /// exclusive per-server update grants rather than on every agent seeing
  /// the same full tour (see src/quorum/quorum.hpp and PROTOCOL.md).
  quorum::QuorumSpec quorum;

  /// Partial replication + dynamic membership; see MembershipConfig. When
  /// enabled, `quorum` names the *inner* geometry instantiated inside each
  /// group's replica list (membership/mapped_quorum.hpp) — Majority over 3
  /// replicas means "2 of that group's 3 copies", not a cluster majority.
  MembershipConfig membership;

  ReadMode read_mode = ReadMode::LocalCopy;
  /// Votes a QuorumAgent read must gather; 0 derives the minimal quorum
  /// intersecting every write majority: total − ⌊total/2⌋.
  std::uint32_t read_quorum_votes = 0;

  /// A recovering server pulls the current store from a live peer before
  /// serving again (extension; the paper leaves recovery state transfer
  /// unspecified — without it a replica only catches up via later commits).
  bool recovery_sync = true;

  /// Processing time an agent spends at each server it visits (lock request,
  /// bookkeeping) — the "average time a mobile agent spent at a server"
  /// factor in the paper's ALT metric.
  sim::SimTime visit_service_time = sim::SimTime::millis(2);

  /// UPDATE re-broadcast cadence while waiting for a write quorum of acks
  /// (for at most 20 rounds; update_agent.cpp).
  sim::SimTime ack_retry_interval = sim::SimTime::millis(100);

  /// Acknowledged COMMIT/RELEASE/REPORT delivery: every server acks each
  /// COMMIT or RELEASE copy, the origin acks the REPORT, and the agent
  /// lingers (without blocking the decided outcome) re-sending the outcome
  /// to silent servers and REPORT to a silent origin every 100 ms for up
  /// to 50 rounds (update_agent.cpp). This makes an outcome immune to drops
  /// and duplication on live links; servers silent past the rounds catch
  /// up via recovery sync or anti-entropy. Off (default) keeps the paper's
  /// fire-and-forget message budget — chaos and lossy-link experiments
  /// turn it on.
  bool reliable_commit = false;

  /// Background store reconciliation: every interval each live server asks
  /// one random live peer for its store and merges it under the Thomas
  /// write rule (reusing the recovery-sync messages). Zero (default)
  /// disables it. This closes the last convergence gap — a replica that
  /// missed a COMMIT whose sender died before retransmitting — without
  /// which a partition + crash combination can strand a divergent replica.
  /// NOTE: while enabled the simulator's event queue never drains; run with
  /// a deadline.
  sim::SimTime anti_entropy_interval = sim::SimTime::zero();

  /// A blocked (waiting) agent re-visits its stalest server at this cadence
  /// so information can never go permanently stale.
  sim::SimTime patrol_interval = sim::SimTime::millis(250);

  /// Dead-agent lease (extension for the real substrate): an agent whose
  /// host process is SIGKILLed dies without any fail-stop notice, leaving
  /// its LL entries and update grants behind at surviving servers — every
  /// later claimant NACK-aborts against a ghost holder forever. With a
  /// non-zero lease each server expires lock/grant state of *remote* agents
  /// that have shown no activity (visit, refresh, UPDATE, UNLOCK) for this
  /// long. Locally-hosted agents are exempt (their liveness is directly
  /// observable). Must be much larger than N x patrol_interval so a live
  /// blocked agent's patrol re-visits always refresh it in time. Zero
  /// (default) disables the sweep — the simulator's fail-stop notices make
  /// it redundant there.
  sim::SimTime agent_lease_timeout = sim::SimTime::zero();

  /// A claimant that lost the grant race to a *larger*-id holder retries
  /// after this delay (plus per-agent jitter); smaller-id holders are
  /// deferred to until their commit is observed.
  sim::SimTime claim_retry_delay = sim::SimTime::millis(4);

  /// Upper bound on deferring to a holder that never commits (it may itself
  /// have been demoted and concluded somebody else should win). Safety does
  /// not depend on this — the per-server grants are exclusive — it only
  /// bounds the mutual-waiting stall.
  sim::SimTime defer_timeout = sim::SimTime::millis(150);

  /// Delay until all servers are informed of a fail-stop (§2: "all other
  /// processes are informed of the failure in a finite time").
  sim::SimTime failure_notice_delay = sim::SimTime::millis(100);
};

}  // namespace marp::core
