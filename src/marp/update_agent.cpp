#include "marp/update_agent.hpp"

#include <algorithm>

#include "marp/protocol.hpp"
#include "marp/server.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::core {

namespace {

/// UPDATE rounds (one every ack_retry_interval) a session waits for a write
/// quorum of ACKs before it gives up — or, touring a candidate quorum,
/// re-selects one around the silent members.
constexpr std::uint32_t kMaxAckRounds = 20;
/// The decided-outcome linger under reliable_commit: COMMIT or RELEASE, and
/// the REPORT, are re-sent to whoever has not confirmed them at this cadence,
/// for at most kMaxCommitRounds rounds.
constexpr sim::SimTime kCommitRetryInterval = sim::SimTime::millis(100);
constexpr std::uint32_t kMaxCommitRounds = 50;
/// Multi-group claims only: how long a parked agent's losing view may stay
/// unchanged — heading some group while a *younger* agent heads another —
/// before it withdraws and re-queues, breaking a probable wait cycle (see
/// evaluate()). Any change to that view restarts the clock, so this can
/// sit close to defer_timeout without triggering on healthy waits.
constexpr sim::SimTime kRequeueTimeout = sim::SimTime::millis(200);

}  // namespace

UpdateAgent::UpdateAgent(net::NodeId origin, std::vector<PendingWrite> writes)
    : origin_(origin), writes_(std::move(writes)) {
  MARP_REQUIRE(!writes_.empty());
}

trace::Tracer* UpdateAgent::tracer(agent::AgentContext& ctx) const {
  return server_here(ctx).protocol().tracer();
}

std::vector<std::string> UpdateAgent::keys() const {
  std::vector<std::string> out;
  out.reserve(writes_.size());
  for (const PendingWrite& write : writes_) {
    if (std::find(out.begin(), out.end(), write.key) == out.end()) {
      out.push_back(write.key);
    }
  }
  return out;
}

const membership::Electorate& UpdateAgent::electorate(agent::AgentContext& ctx,
                                                     shard::GroupId g) const {
  return server_here(ctx).electorate(g);
}

bool UpdateAgent::tours_quorum(agent::AgentContext& ctx) const {
  return std::any_of(groups_.begin(), groups_.end(), [&](shard::GroupId g) {
    return electorate(ctx, g).tours_quorum();
  });
}

std::optional<quorum::NodeSet> UpdateAgent::tour_set(
    agent::AgentContext& ctx, const membership::InstalledView& view) const {
  const ProtocolMutant mutant = server_here(ctx).config().mutant;
  const quorum::NodeSet down = tour_.down();
  std::vector<net::NodeId> tour;
  for (const shard::GroupId g : groups_) {
    const membership::Electorate& e = view.electorate(g);
    if (!e.tours_quorum()) {
      tour.insert(tour.end(), e.replicas().begin(), e.replicas().end());
      continue;
    }
    // Locks at a quorum are enough: the geometry's intersection property
    // replaces the full tour. The pick contains the origin when it can.
    const auto candidate = mutant_pick_write_quorum(e.quorum(), down, origin_, mutant);
    if (!candidate) return std::nullopt;
    tour.insert(tour.end(), candidate->begin(), candidate->end());
  }
  return quorum::make_node_set(std::move(tour));
}

quorum::NodeSet UpdateAgent::replicas(agent::AgentContext& ctx) const {
  std::vector<net::NodeId> nodes;
  for (const shard::GroupId g : groups_) {
    const quorum::NodeSet& group = electorate(ctx, g).replicas();
    nodes.insert(nodes.end(), group.begin(), group.end());
  }
  return quorum::make_node_set(std::move(nodes));
}

bool UpdateAgent::ack_quorum_reached(agent::AgentContext& ctx) const {
  // The acked set must contain a write quorum of EVERY group's electorate.
  // Acks are epoch-filtered on receipt, except under the MixedEpoch mutant,
  // which deliberately lets cross-epoch acks accumulate here.
  const ProtocolMutant mutant = server_here(ctx).config().mutant;
  return std::all_of(groups_.begin(), groups_.end(), [&](shard::GroupId g) {
    return mutant_write_covered(electorate(ctx, g).quorum(), acks_, mutant);
  });
}

void UpdateAgent::on_created(agent::AgentContext& ctx) {
  dispatched_us_ = ctx.now().as_micros();
  MarpServer& server = server_here(ctx);
  // The write-set's lock groups, ascending — the fixed acquisition order
  // every agent uses, which is what makes multi-group claims deadlock-free.
  groups_ = server.router().groups_of(keys());
  if (groups_.empty()) groups_.push_back(0);
  // §3.2: "Initially, this list contains all the replicated servers in the
  // system" — here, every replica of the write-set's groups (or a candidate
  // quorum of them) under the origin's installed view. The creation server
  // is visited first, without migrating; when it is not a replica itself it
  // acts purely as the client and the first hop enters the replica set.
  epoch_ = server.epoch();
  const auto tour = tour_set(ctx, server.installed());
  MARP_REQUIRE(tour.has_value());
  tour_.begin(*tour);
  ctx.set_timer(server.config().visit_service_time, kTokenVisit);
  if (auto* t = tracer(ctx)) t->visit_begin(id(), ctx.here());
}

void UpdateAgent::on_arrival(agent::AgentContext& ctx) {
  tour_.reset_retries();
  current_target_ = net::kInvalidNode;
  patrol_armed_ = false;  // timers died with the previous incarnation
  ctx.set_timer(server_here(ctx).config().visit_service_time, kTokenVisit);
  if (auto* t = tracer(ctx)) t->visit_begin(id(), ctx.here());
}

void UpdateAgent::arm_patrol(agent::AgentContext& ctx) {
  if (patrol_armed_) return;
  patrol_armed_ = true;
  ctx.set_timer(server_here(ctx).config().patrol_interval, kTokenPatrol);
}

void UpdateAgent::on_timer(agent::AgentContext& ctx, std::uint64_t token) {
  switch (token) {
    case kTokenVisit:
      do_visit(ctx);
      break;
    case kTokenPatrol: {
      patrol_armed_ = false;
      if (phase_ != Phase::Waiting) break;
      const net::NodeId target = pick_stalest(ctx);
      if (target != net::kInvalidNode) {
        if (auto* t = tracer(ctx)) t->wait_end(id());
        phase_ = Phase::Traveling;
        current_target_ = target;
        tour_.reset_retries();
        ctx.dispatch_to(target);
      } else {
        arm_patrol(ctx);
      }
      break;
    }
    case kTokenClaimRetry: {
      if (phase_ != Phase::Waiting) break;
      evaluate(ctx);  // evaluate() itself decides whether defer still holds
      break;
    }
    case kTokenAckRetry: {
      if (phase_ != Phase::Updating) break;
      MarpServer& server = server_here(ctx);
      const bool candidate = tours_quorum(ctx);
      if (++ack_rounds_ > kMaxAckRounds) {
        if (candidate) {
          // Candidate fallback: the silent quorum members are treated as
          // down, the attempt is withdrawn (grants released everywhere so
          // nothing stays wedged), and a fresh quorum avoiding them is
          // toured. Only when no quorum survives does the agent give up.
          if (const auto members = tour_set(ctx, server.installed())) {
            for (const net::NodeId node : *members) {
              if (!quorum::contains(acks_, node)) tour_.exclude(node);
            }
          }
          if (const auto next = tour_set(ctx, server.installed())) {
            server.protocol().note_quorum_reselection();
            ctx.broadcast(kMsgUnlock, UnlockPayload{id(), attempt_seq_}.encode());
            server.handle_unlock_local(id(), attempt_seq_);
            acks_.clear();
            phase_ = Phase::Traveling;
            tour_.retarget(*next);
            evaluate(ctx);
            break;
          }
        }
        abort(ctx);
        break;
      }
      if (auto* t = tracer(ctx)) t->retry(id(), ctx.here(), trace::kRetryAck);
      // Re-send UPDATE to every replica that has not acked (idempotent
      // staging). A retry means the first transmission met loss or a dead
      // member, so a candidate-quorum session widens to every available
      // replica here: the acked set commits on ANY write quorum it covers
      // (ack_quorum_reached), and a minimal-fanout retransmit to the same
      // lossy members would just stall another round. The quorum-only bill
      // is paid on the first attempt, where it belongs — retries buy
      // robustness with redundancy, exactly like the seed's broadcast.
      UpdatePayload payload{id(), ctx.here(), attempt_seq_, ops_, groups_};
      payload.epoch = epoch_;
      const serial::Bytes bytes = payload.encode();
      for (const net::NodeId node : replicas(ctx)) {
        if (node == ctx.here() || quorum::contains(acks_, node)) continue;
        if (candidate && tour_.is_unavailable(node)) continue;
        ctx.send_to_node(node, kMsgUpdate, bytes);
      }
      ctx.set_timer(ack_retry_delay(ctx), kTokenAckRetry);
      break;
    }
    case kTokenCommitRetry: {
      if (phase_ != Phase::Committing) break;
      if (++commit_rounds_ > kMaxCommitRounds) {
        // Stragglers are down or partitioned beyond the retransmit window;
        // they catch up via recovery sync / anti-entropy. The decision
        // itself was final the moment COMMIT or RELEASE first went out.
        if (auto* t = tracer(ctx)) t->commit_fanout_end(id());
        phase_ = Phase::Done;
        ctx.dispose();
        break;
      }
      if (auto* t = tracer(ctx)) t->retry(id(), ctx.here(), trace::kRetryCommit);
      send_outcome(ctx, /*retransmit=*/true);
      if (!report_acked_) {
        send_report(ctx, committed_);
        server_here(ctx).protocol().note_anomaly(Anomaly::ReportRetransmit);
      }
      maybe_finish_commit(ctx);
      if (phase_ == Phase::Committing) {
        ctx.set_timer(kCommitRetryInterval, kTokenCommitRetry);
      }
      break;
    }
    case kTokenMigrationRetry: {
      // Backoff expired: re-attempt the dispatch that failed (transient
      // loss may have cleared). Moot if the agent has moved on meanwhile.
      if (phase_ != Phase::Traveling || current_target_ == net::kInvalidNode) {
        break;
      }
      ctx.dispatch_to(current_target_);
      break;
    }
    default:
      break;
  }
}

void UpdateAgent::do_visit(agent::AgentContext& ctx) {
  // The service window elapsed either way — close the span even when the
  // agent has moved past visiting (the timer outlived the phase).
  if (auto* t = tracer(ctx)) t->visit_end(id());
  if (phase_ == Phase::Done || phase_ == Phase::Updating ||
      phase_ == Phase::Committing) {
    return;
  }
  MarpServer& server = server_here(ctx);

  const VisitResult result = server.visit(id(), keys(), lt_);
  if (server.epoch() > epoch_ && server.config().mutant != ProtocolMutant::MixedEpoch) {
    // This server advertises a newer view: everything collected so far is
    // scoped to a dead epoch, the tables this visit just filled included
    // (the re-tour clears them; an abort never reads them again).
    // Abort-and-re-tour under the new one.
    withdraw_and_requeue(ctx, &server.installed());
    return;
  }

  ual_.merge(result.updated_list);
  for (const auto& [key, value] : result.data) {
    auto& best = freshest_[key];
    if (value.version > best.version) best = value;
  }
  tour_.price(result.routing_costs);
  tour_.visit(ctx.here());

  phase_ = Phase::Traveling;
  evaluate(ctx);
}

void UpdateAgent::evaluate(agent::AgentContext& ctx) {
  MarpServer& server = server_here(ctx);
  // §3.2's priority rule, applied independently per lock group (ascending):
  // the agent proceeds only when it wins *every* group its write-set
  // touches. A miss in any group means keep collecting locks / wait.
  Decision decision{Decision::Kind::Win, id()};
  std::vector<shard::GroupId> headed;
  std::vector<agent::AgentId> losing_to;
  bool loses_to_younger = false;
  std::uint64_t losing_fingerprint = 0xCBF29CE484222325ULL;
  static const LockTable kNothingKnown;
  for (const shard::GroupId g : groups_) {
    const auto it = lt_.find(g);
    const LockTable& table = it == lt_.end() ? kNothingKnown : it->second;
    // The election is scoped to the group's electorate: its size is N and
    // its geometry the rule (majority arithmetic, or write coverage).
    const quorum::QuorumSystem& electors = electorate(ctx, g).quorum();
    const Decision verdict =
        decide(table, ual_, id(), electors.size(), server.config().tie_break,
               server.config().votes, server.config().mutant, &electors);
    if (verdict.kind == Decision::Kind::Win) headed.push_back(g);
    if (verdict.kind == Decision::Kind::Lose) {
      losing_to.push_back(*verdict.winner);
      if (id() < *verdict.winner) loses_to_younger = true;
      losing_fingerprint ^= (g + 1) * agent::AgentIdHash{}(*verdict.winner);
      losing_fingerprint *= 0x100000001B3ULL;
    }
    if (decision.kind == Decision::Kind::Win) decision = verdict;
  }
  // A two-cycle is visible from here: we lose some group to W while W is
  // itself queued (behind us) in a group we head — W cannot commit before
  // us, nor we before it. When the partner is the *older* agent, we are the
  // one the younger-yields rule elects: withdraw right away.
  bool yield_to_partner = false;
  for (const agent::AgentId& winner : losing_to) {
    if (id() < winner) continue;  // we are older; the partner yields instead
    for (const shard::GroupId h : headed) {
      const auto it = lt_.find(h);
      if (it == lt_.end()) continue;
      for (const auto& [node, snapshot] : it->second) {
        if (std::find(snapshot.agents.begin(), snapshot.agents.end(), winner) !=
            snapshot.agents.end()) {
          yield_to_partner = true;
        }
      }
    }
  }
  // Per-group winners are picked by Locking-List position, so agents with
  // overlapping multi-group write-sets can wait on each other in a cycle
  // (A heads group 1 queued behind B in group 2, B the reverse). Any cycle
  // contains an agent losing to a *younger* winner; if that is us and the
  // losing view has not budged for kRequeueTimeout, leave every list and
  // re-queue at the tails — everyone we were blocking proceeds.
  if (losing_fingerprint != stall_fingerprint_) {
    stall_fingerprint_ = losing_fingerprint;
    stall_since_us_ = ctx.now().as_micros();
  }

  // A deferred claimant re-attempts once the higher-priority holder it lost
  // the ack race to is known to have finished — or after the defer timeout,
  // in case that holder was itself demoted and is now waiting on us.
  if (defer_ && (ual_.contains(defer_to_) ||
                 ctx.now().as_micros() - defer_since_us_ >=
                     server.config().defer_timeout.as_micros())) {
    defer_ = false;
  }

  if (decision.kind == Decision::Kind::Win && !defer_) {
    begin_update(ctx);
    return;
  }

  // Not (yet) the winner: keep collecting locks while servers remain.
  const net::NodeId next = pick_next_target(ctx);
  if (next != net::kInvalidNode) {
    if (auto* t = tracer(ctx)) t->wait_end(id());
    current_target_ = next;
    tour_.reset_retries();
    ctx.dispatch_to(next);
    return;
  }

  // USL exhausted, so the view is as complete as it gets. A confirmed
  // two-cycle with an older partner is broken immediately; anything that
  // smells like a longer cycle — heading a group while losing another to a
  // younger agent, with nothing changing — is broken after the patience
  // window (per-agent jitter staggers withdrawals in longer cycles).
  if (yield_to_partner) {
    withdraw_and_requeue(ctx);
    return;
  }
  if (groups_.size() > 1 && !headed.empty() && loses_to_younger) {
    const std::int64_t patience =
        kRequeueTimeout.as_micros() +
        static_cast<std::int64_t>(agent::AgentIdHash{}(id()) % 100'000);
    if (ctx.now().as_micros() - stall_since_us_ >= patience) {
      withdraw_and_requeue(ctx);
      return;
    }
  }

  // Park here; lock-change signals and the patrol timer (stale-info
  // refresh) guarantee re-evaluation.
  if (auto* t = tracer(ctx)) t->wait_begin(id(), ctx.here());
  phase_ = Phase::Waiting;
  arm_patrol(ctx);
}

void UpdateAgent::withdraw_and_requeue(agent::AgentContext& ctx,
                                       const membership::InstalledView* newer) {
  MarpServer& server = server_here(ctx);
  const std::optional<quorum::NodeSet> tour =
      tour_set(ctx, newer != nullptr ? *newer : server.installed());
  if (!tour) {
    abort(ctx);  // no quorum survives the unavailable servers
    return;
  }
  if (newer != nullptr) {
    MARP_REQUIRE(newer->view.epoch > epoch_);
    server.protocol().note_epoch_retour();
    epoch_ = newer->view.epoch;
  } else {
    server.protocol().note_update_requeue(id());
  }
  if (auto* t = tracer(ctx)) {
    t->wait_end(id());
    t->requeue(id(), ctx.here());
  }
  // Reset our own race state FIRST: handle_release_local() below raises the
  // lock-changed signal synchronously, which re-enters on_signal()/evaluate()
  // for every Waiting agent on this host — including us unless the phase
  // already says Traveling.
  lt_.clear();  // every queue position just became void
  defer_ = false;
  acks_.clear();
  tour_.restart(*tour);
  phase_ = Phase::Traveling;
  stall_since_us_ = ctx.now().as_micros();

  // Leave every Locking List and release any grants a withdrawn attempt
  // held. The fresh tour below re-appends this agent at the tails, behind
  // everything it was blocking. Should a re-appended entry race a
  // still-in-flight RELEASE and get swallowed, refresh() re-inserts the
  // parked waiter on the next signal or patrol visit.
  const ReleasePayload release{id(), groups_};
  ctx.broadcast(kMsgRelease, release.encode());
  server.handle_release_local(release);
  do_visit(ctx);
}

net::NodeId UpdateAgent::pick_next_target(agent::AgentContext& ctx) const {
  const RoutingPolicy policy = server_here(ctx).config().routing;
  // Cheapest next hop per the routing table taken from the last server.
  if (policy == RoutingPolicy::CostAware) return tour_.next_hop(ctx.here());
  const std::vector<net::NodeId> candidates = tour_.candidates(ctx.here());
  if (candidates.empty()) return net::kInvalidNode;
  if (policy == RoutingPolicy::Random) {
    // Deterministic per (agent, hop): independent of global RNG state.
    std::uint64_t seed = agent::AgentIdHash{}(id());
    seed ^= (tour_.servers_visited() + 1) * 0x9E3779B97F4A7C15ULL;
    sim::Rng rng(seed);
    return candidates[rng.bounded(candidates.size())];
  }
  return *std::min_element(candidates.begin(), candidates.end());  // ByServerId
}

net::NodeId UpdateAgent::pick_stalest(agent::AgentContext& ctx) const {
  net::NodeId stalest = net::kInvalidNode;
  std::int64_t oldest = std::numeric_limits<std::int64_t>::max();
  // Patrol the tour, not the whole cluster.
  const auto members = tour_set(ctx, server_here(ctx).installed());
  if (!members) return net::kInvalidNode;
  for (const net::NodeId node : *members) {
    if (node == ctx.here() || tour_.is_unavailable(node)) continue;
    // A server is as stale as its least-recently-observed group snapshot.
    std::int64_t stamp = std::numeric_limits<std::int64_t>::max();
    for (const shard::GroupId g : groups_) {
      std::int64_t group_stamp = -1;
      if (auto git = lt_.find(g); git != lt_.end()) {
        if (auto nit = git->second.find(node); nit != git->second.end()) {
          group_stamp = nit->second.observed_us;
        }
      }
      stamp = std::min(stamp, group_stamp);
    }
    if (stamp < oldest) {
      oldest = stamp;
      stalest = node;
    }
  }
  return stalest;
}

void UpdateAgent::on_migration_failed(agent::AgentContext& ctx,
                                      net::NodeId destination) {
  MarpServer& server = server_here(ctx);
  const MarpConfig& config = server.config();
  const std::uint32_t failures = tour_.failed_dispatch();
  if (failures <= config.migration_retry_limit) {
    if (config.migration_retry_backoff > sim::SimTime::zero()) {
      // Transient-loss mode: space the retries out exponentially so a lossy
      // (but live) link gets a chance to deliver, instead of burning every
      // retry back-to-back and declaring a healthy replica unavailable.
      current_target_ = destination;
      const std::uint32_t shift = std::min(failures - 1u, 16u);
      const sim::SimTime delay =
          sim::SimTime::micros(config.migration_retry_backoff.as_micros() << shift);
      if (auto* t = tracer(ctx)) {
        t->backoff(id(), ctx.here(),
                   static_cast<std::uint64_t>(delay.as_micros()));
      }
      ctx.set_timer(delay, kTokenMigrationRetry);
      return;
    }
    if (auto* t = tracer(ctx)) {
      t->retry(id(), ctx.here(), trace::kRetryMigration);
    }
    ctx.dispatch_to(destination);
    return;
  }
  // §2: after repeated failures, declare the replica unavailable and do not
  // attempt to visit it again this round.
  tour_.drop(destination);
  tour_.reset_retries();
  current_target_ = net::kInvalidNode;

  // Give up only when some group's quorum cannot survive the unavailable
  // servers — consistency requires that rather than writing a minority;
  // otherwise the remaining copies still intersect everything.
  const quorum::NodeSet down = tour_.down();
  for (const shard::GroupId g : groups_) {
    if (!mutant_pick_write_quorum(electorate(ctx, g).quorum(), down, origin_,
                                  config.mutant)) {
      abort(ctx);
      return;
    }
  }
  if (tours_quorum(ctx)) {
    // A candidate-quorum member is unreachable: fall back to a quorum that
    // avoids every unavailable server.
    server.protocol().note_quorum_reselection();
    tour_.retarget(*tour_set(ctx, server.installed()));
  }
  evaluate(ctx);
}

void UpdateAgent::begin_update(agent::AgentContext& ctx) {
  MarpServer& server = server_here(ctx);
  // The first UPDATE goes to the tour only — for a candidate quorum the
  // O(|Q|) message bill is the point of the smaller geometries. Retry
  // rounds widen to every available replica (see kTokenAckRetry). COMMIT
  // stays a broadcast: every replica applies the write.
  const std::optional<quorum::NodeSet> members =
      tour_set(ctx, server.installed());
  if (!members) {
    abort(ctx);
    return;
  }
  if (auto* t = tracer(ctx)) t->wait_end(id());
  phase_ = Phase::Updating;
  lock_obtained_us_ = ctx.now().as_micros();
  server.protocol().note_update_attempt(id(), ctx.here());

  // "It checks the time of last update of all the quorum members and uses
  // the most recent copy" (§3.1): new versions must dominate everything any
  // quorum member has seen.
  std::int64_t base = lock_obtained_us_;
  for (const auto& [key, value] : freshest_) {
    base = std::max(base, value.version.time_us + 1);
  }
  ops_.clear();
  ops_.reserve(writes_.size());
  for (std::size_t i = 0; i < writes_.size(); ++i) {
    ops_.push_back({writes_[i].key, writes_[i].value,
                    replica::Version{base + static_cast<std::int64_t>(i),
                                     origin_}});
  }

  ++attempt_seq_;
  if (auto* t = tracer(ctx)) t->update_round_begin(id(), ctx.here(), attempt_seq_);
  UpdatePayload payload{id(), ctx.here(), attempt_seq_, ops_, groups_};
  payload.epoch = epoch_;
  // Take the local grants first: if even the local server holds one of our
  // groups for another session, back off without spending any messages.
  // (A fresh attempt from a live agent can never be Stale here.) When this
  // server replicates none of our groups, no local grant exists — the
  // remote fan-out below carries the whole claim.
  const bool local_replica =
      std::any_of(groups_.begin(), groups_.end(), [&](shard::GroupId g) {
        return electorate(ctx, g).hosts(ctx.here());
      });
  if (local_replica) {
    shard::GroupId conflict = 0;
    switch (server.handle_update_local(payload, &conflict)) {
      case MarpServer::GrantResult::Granted:
        break;
      case MarpServer::GrantResult::EpochStale:
        // The local server fenced us (newer epoch installed or promised).
        if (server.epoch() > epoch_ &&
            server.config().mutant != ProtocolMutant::MixedEpoch) {
          withdraw_and_requeue(ctx, &server.installed());
          return;
        }
        [[fallthrough]];
      case MarpServer::GrantResult::CatchingUp:
        // Promise fence or local catch-up: park briefly and re-claim once
        // the change settles.
        phase_ = Phase::Waiting;
        ctx.set_timer(server.config().claim_retry_delay, kTokenClaimRetry);
        arm_patrol(ctx);
        return;
      default:
        demote(ctx, *server.update_holder(conflict), /*broadcast_unlock=*/false);
        return;
    }
  }
  const serial::Bytes bytes = payload.encode();
  for (const net::NodeId node : *members) {
    if (node != ctx.here()) ctx.send_to_node(node, kMsgUpdate, bytes);
  }

  acks_ = {ctx.here()};
  ack_floor_ = server.applied_high();
  ack_rounds_ = 0;
  if (ack_quorum_reached(ctx)) {
    finish_update(ctx);  // degenerate N = 1 (or a dominating local vote)
    return;
  }
  ctx.set_timer(ack_retry_delay(ctx), kTokenAckRetry);
}

sim::SimTime UpdateAgent::ack_retry_delay(agent::AgentContext& ctx) const {
  const MarpConfig& config = server_here(ctx).config();
  if (!tours_quorum(ctx)) return config.ack_retry_interval;
  const std::int64_t full = config.ack_retry_interval.as_micros();
  std::int64_t delay = full / 8;
  if (delay < 1) return config.ack_retry_interval;
  for (std::uint32_t r = 0; r < ack_rounds_ && delay < full; ++r) delay *= 2;
  return sim::SimTime::micros(std::min(delay, full));
}

void UpdateAgent::on_message(agent::AgentContext& ctx, net::MessageType type,
                             const serial::Bytes& payload) {
  if (type == kMsgEpochNotice) {
    // A server fenced our UPDATE: its view outran this session's epoch.
    const EpochNoticePayload notice = EpochNoticePayload::decode(payload);
    const MarpConfig& config = server_here(ctx).config();
    if (config.mutant == ProtocolMutant::MixedEpoch) return;
    if (phase_ == Phase::Done || phase_ == Phase::Committing) return;
    if (notice.view.epoch > epoch_) {
      const auto newer = membership::install_view(notice.view, config.quorum);
      withdraw_and_requeue(ctx, newer.get());
    }
    return;
  }
  if (type == kMsgCommitAck) {
    if (phase_ != Phase::Committing) return;
    quorum::insert(commit_acks_, CommitAckPayload::decode(payload).server);
    maybe_finish_commit(ctx);
    return;
  }
  if (type == kMsgReportAck) {
    if (phase_ != Phase::Committing) return;
    report_acked_ = true;
    maybe_finish_commit(ctx);
    return;
  }
  if (phase_ != Phase::Updating) {
    // ACK/NACK echoes of an attempt this agent already resolved (dup copy,
    // or a reply delayed past the decision) — absorbed, but counted.
    if (type == kMsgAck || type == kMsgNack) {
      server_here(ctx).protocol().note_anomaly(Anomaly::StaleAck);
    }
    return;
  }
  if (type == kMsgAck) {
    const AckPayload ack = AckPayload::decode(payload);
    if (ack.attempt != attempt_seq_) {  // echo of a withdrawn attempt
      server_here(ctx).protocol().note_anomaly(Anomaly::StaleAck);
      return;
    }
    if (ack.epoch != epoch_ &&
        server_here(ctx).config().mutant != ProtocolMutant::MixedEpoch) {
      // A grant stamped under a different view must not count towards this
      // epoch's quorum (the MixedEpoch mutant skips exactly this filter).
      server_here(ctx).protocol().note_anomaly(Anomaly::EpochStaleAck);
      return;
    }
    quorum::insert(acks_, ack.server);
    if (ack.applied_high > ack_floor_) ack_floor_ = ack.applied_high;
    if (ack_quorum_reached(ctx)) {
      finish_update(ctx);
    }
    return;
  }
  if (type == kMsgNack) {
    // Another session holds a grant we need: withdraw this attempt and let
    // the holder proceed (defer if it outranks us by id).
    const NackPayload nack = NackPayload::decode(payload);
    if (nack.attempt != attempt_seq_) {
      server_here(ctx).protocol().note_anomaly(Anomaly::StaleAck);
      return;
    }
    demote(ctx, nack.holder, /*broadcast_unlock=*/true);
  }
}

void UpdateAgent::demote(agent::AgentContext& ctx, const agent::AgentId& holder,
                         bool broadcast_unlock) {
  MarpServer& server = server_here(ctx);
  if (auto* t = tracer(ctx)) {
    t->update_round_end(id(), /*outcome=*/1);
    t->retry(id(), ctx.here(), trace::kRetryClaim);
    t->wait_begin(id(), ctx.here());
  }
  if (broadcast_unlock) {
    ctx.broadcast(kMsgUnlock, UnlockPayload{id(), attempt_seq_}.encode());
    server.handle_unlock_local(id(), attempt_seq_);
  }
  acks_.clear();
  phase_ = Phase::Waiting;
  if (holder < id() && !ual_.contains(holder)) {
    // The holder outranks us: wait until its commit is observed (via the
    // lock-change signal merging it into our UAL) before trying again.
    defer_ = true;
    defer_to_ = holder;
    defer_since_us_ = ctx.now().as_micros();
    // The defer timeout is only checked inside evaluate(); make sure an
    // evaluation happens once it expires even if no signal arrives.
    ctx.set_timer(server.config().defer_timeout + sim::SimTime::micros(1),
                  kTokenClaimRetry);
    arm_patrol(ctx);
    return;
  }
  // We outrank the holder: it will defer to us once it sees our grants, so
  // retry shortly (per-agent jitter avoids lock-step collisions).
  const std::uint64_t jitter_us =
      agent::AgentIdHash{}(id()) % 2000;  // 0..2ms
  ctx.set_timer(server.config().claim_retry_delay +
                    sim::SimTime::micros(static_cast<std::int64_t>(jitter_us)),
                kTokenClaimRetry);
  arm_patrol(ctx);
}

void UpdateAgent::finish_update(agent::AgentContext& ctx) {
  MarpServer& server = server_here(ctx);
  // The stamped base came from the tour's freshest_ snapshots, which can
  // predate a concurrent session that committed between our visit and our
  // grant. The ACK floor closes that gap: grants are exclusive from ACK to
  // commit, so the floor covers every predecessor through any shared quorum
  // member — restamp above it or version order breaks behind our back.
  // (Rare under majority quorums — a stale attempt usually dies by NACK
  // from one of the many overlapping servers — but small tree/grid quorums
  // can overlap a concurrent session at a single server whose NACKs were
  // all dropped; chaos sweeps caught exactly that.)
  if (!ops_.empty() && ack_floor_.time_us >= ops_.front().version.time_us) {
    const std::int64_t base = ack_floor_.time_us + 1;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      ops_[i].version =
          replica::Version{base + static_cast<std::int64_t>(i), origin_};
    }
  }
  // Theorem 2 monitor: holding a majority of a group's grants is exclusive.
  // (The quorum probe fires here, synchronously — a fault injector acting on
  // it cuts links *between* quorum assembly and the COMMIT broadcast.)
  server.protocol().note_update_quorum(id(), groups_, ctx.here());
  if (auto* t = tracer(ctx)) {
    t->update_round_end(id(), /*outcome=*/0);
    t->commit_fanout_begin(id(), ctx.here(), /*commit=*/true);
  }
  conclude(ctx, /*commit=*/true);
}

void UpdateAgent::abort(agent::AgentContext& ctx) {
  server_here(ctx).protocol().note_update_abort(id(), ctx.here());
  if (auto* t = tracer(ctx)) {
    t->wait_end(id());
    t->update_round_end(id(), /*outcome=*/2);
    t->abort_mark(id(), ctx.here());
    t->commit_fanout_begin(id(), ctx.here(), /*commit=*/false);
  }
  conclude(ctx, /*commit=*/false);
}

void UpdateAgent::conclude(agent::AgentContext& ctx, bool commit) {
  MarpServer& server = server_here(ctx);
  const bool reliable = server.config().reliable_commit;
  const net::NodeId reply_to = reliable ? ctx.here() : net::kInvalidNode;
  committed_ = commit;
  commit_acks_ = {ctx.here()};
  send_outcome(ctx, /*retransmit=*/false);
  if (commit) {
    server.handle_commit_local(CommitPayload{id(), ops_, groups_, reply_to});
    server.protocol().note_update_commit(id(), ops_, ctx.here());
  } else {
    server.handle_release_local(ReleasePayload{id(), groups_, reply_to});
  }
  if (!reliable) {
    // Fire-and-forget (the paper's Algorithm 1): a COMMIT or RELEASE copy
    // lost on the wire is only repaired by recovery sync / anti-entropy.
    if (auto* t = tracer(ctx)) t->commit_fanout_end(id());
    phase_ = Phase::Done;
    send_report(ctx, commit);
    ctx.dispose();
    return;
  }
  // The decision is final; linger in Committing re-sending the outcome and
  // the REPORT until every reachable server and the origin confirmed. A
  // dropped COMMIT would leave the update half-applied; a dropped RELEASE
  // is as fatal, since the aborter never enters any Updated List, so
  // filtered heads can never skip its dead LL entry and its stuck grant
  // wedges the server for good.
  phase_ = Phase::Committing;
  commit_rounds_ = 0;
  report_acked_ = false;
  send_report(ctx, commit);
  maybe_finish_commit(ctx);
  if (phase_ == Phase::Committing) {
    ctx.set_timer(kCommitRetryInterval, kTokenCommitRetry);
  }
}

void UpdateAgent::send_outcome(agent::AgentContext& ctx, bool retransmit) const {
  MarpServer& server = server_here(ctx);
  const net::NodeId reply_to =
      server.config().reliable_commit ? ctx.here() : net::kInvalidNode;
  const net::MessageType type = committed_ ? kMsgCommit : kMsgRelease;
  const serial::Bytes bytes =
      committed_ ? CommitPayload{id(), ops_, groups_, reply_to}.encode()
                 : ReleasePayload{id(), groups_, reply_to}.encode();
  const Anomaly counted =
      committed_ ? Anomaly::CommitRetransmit : Anomaly::ReleaseRetransmit;
  const std::size_t n = server.cluster_size();
  for (net::NodeId node = 0; node < n; ++node) {
    if (quorum::contains(commit_acks_, node)) continue;
    ctx.send_to_node(node, type, bytes);
    if (retransmit) server.protocol().note_anomaly(counted);
  }
}

void UpdateAgent::send_report(agent::AgentContext& ctx, bool success) {
  ReportPayload report;
  report.agent = id();
  report.request_ids.reserve(writes_.size());
  for (const PendingWrite& write : writes_) report.request_ids.push_back(write.request_id);
  report.success = success;
  report.dispatched_us = dispatched_us_;
  report.lock_obtained_us = success ? lock_obtained_us_ : ctx.now().as_micros();
  report.committed_us = ctx.now().as_micros();
  report.servers_visited = servers_visited();

  if (origin_ == ctx.here()) {
    server_here(ctx).handle_report_local(report);
    report_acked_ = true;  // delivered in-process; nothing to retransmit
  } else {
    ctx.send_to_node(origin_, kMsgReport, report.encode());
  }
}

void UpdateAgent::maybe_finish_commit(agent::AgentContext& ctx) {
  if (phase_ != Phase::Committing || !report_acked_) return;
  // Full ack coverage, commit and abort alike — and no unavailable-node
  // exemption: a node marked unreachable mid-tour may be back within the
  // retransmit window (the linger is bounded by kMaxCommitRounds either
  // way, and genuinely dead servers are repaired by recovery sync).
  const std::size_t n = server_here(ctx).cluster_size();
  for (net::NodeId node = 0; node < n; ++node) {
    if (!quorum::contains(commit_acks_, node)) return;  // not confirmed yet
  }
  if (auto* t = tracer(ctx)) t->commit_fanout_end(id());
  phase_ = Phase::Done;
  ctx.dispose();
}

void UpdateAgent::on_signal(agent::AgentContext& ctx, std::uint32_t signal) {
  if (signal != kSignalLockChanged || phase_ != Phase::Waiting) return;
  // Cheap local refresh (the agent is resident; no gossip copying) and
  // re-decide — under contention every waiter is signalled per commit, so
  // this path must stay light.
  MarpServer& server = server_here(ctx);
  const MarpServer::RefreshResult result = server.refresh(id(), groups_);
  for (const auto& [group, snapshot] : result.locking_lists) {
    lt_[group][ctx.here()] = snapshot;
  }
  ual_.merge(result.updated_list);
  evaluate(ctx);
}

void UpdateAgent::serialize(serial::Writer& w) const {
  w.varint(origin_);
  w.seq(writes_, [](serial::Writer& ww, const PendingWrite& write) {
    ww.varint(write.request_id);
    ww.str(write.key);
    ww.str(write.value);
  });
  w.u8(static_cast<std::uint8_t>(phase_));
  w.svarint(dispatched_us_);
  w.svarint(lock_obtained_us_);
  tour_.serialize(w);
  wire_detail::write_ids(w, groups_);
  serialize_group_lock_table(w, lt_);
  ual_.serialize(w);
  w.map(
      freshest_, [](serial::Writer& ww, const std::string& key) { ww.str(key); },
      [](serial::Writer& ww, const replica::VersionedValue& value) {
        ww.str(value.value);
        value.version.serialize(ww);
      });
  w.varint(current_target_);
  w.seq(ops_, [](serial::Writer& ww, const WriteOp& op) { op.serialize(ww); });
  wire_detail::write_ids(w, acks_);
  w.varint(ack_rounds_);
  w.boolean(committed_);
  wire_detail::write_ids(w, commit_acks_);
  w.varint(commit_rounds_);
  w.boolean(report_acked_);
  w.boolean(defer_);
  defer_to_.serialize(w);
  w.svarint(defer_since_us_);
  w.varint(attempt_seq_);
  w.svarint(stall_since_us_);
  w.varint(stall_fingerprint_);
  // Trailing optional, absent at epoch 0: a static deployment's migration
  // sizes — and with them its virtual timing — carry no byte of it.
  if (epoch_ != 0) w.varint(epoch_);
}

void UpdateAgent::deserialize(serial::Reader& r) {
  origin_ = static_cast<net::NodeId>(r.varint());
  writes_ = r.seq<PendingWrite>([](serial::Reader& rr) {
    PendingWrite write;
    write.request_id = rr.varint();
    write.key = rr.str();
    write.value = rr.str();
    return write;
  });
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(Phase::Committing)) {
    throw serial::MalformedError("unknown update agent phase");
  }
  phase_ = static_cast<Phase>(phase);
  dispatched_us_ = r.svarint();
  lock_obtained_us_ = r.svarint();
  tour_ = Tour::deserialize(r);
  groups_ = wire_detail::read_ids<shard::GroupId>(r);
  lt_ = deserialize_group_lock_table(r);
  ual_ = DoneSet::deserialize(r);
  freshest_ = r.map<std::string, replica::VersionedValue>(
      [](serial::Reader& rr) { return rr.str(); },
      [](serial::Reader& rr) {
        replica::VersionedValue value;
        value.value = rr.str();
        value.version = replica::Version::deserialize(rr);
        return value;
      });
  current_target_ = static_cast<net::NodeId>(r.varint());
  ops_ = r.seq<WriteOp>([](serial::Reader& rr) { return WriteOp::deserialize(rr); });
  acks_ = quorum::make_node_set(wire_detail::read_ids<net::NodeId>(r));
  ack_rounds_ = static_cast<std::uint32_t>(r.varint());
  committed_ = r.boolean();
  commit_acks_ = quorum::make_node_set(wire_detail::read_ids<net::NodeId>(r));
  commit_rounds_ = static_cast<std::uint32_t>(r.varint());
  report_acked_ = r.boolean();
  defer_ = r.boolean();
  defer_to_ = agent::AgentId::deserialize(r);
  defer_since_us_ = r.svarint();
  attempt_seq_ = static_cast<std::uint32_t>(r.varint());
  stall_since_us_ = r.svarint();
  stall_fingerprint_ = r.varint();
  epoch_ = r.at_end() ? 0 : r.varint();
}

}  // namespace marp::core
