#include "marp/update_agent.hpp"

#include <algorithm>

#include "marp/protocol.hpp"
#include "marp/server.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::core {

UpdateAgent::UpdateAgent(net::NodeId origin, std::vector<PendingWrite> writes)
    : origin_(origin), writes_(std::move(writes)) {
  MARP_REQUIRE(!writes_.empty());
}

MarpServer& UpdateAgent::server_here(agent::AgentContext& ctx) const {
  auto* server = ctx.service<MarpServer>(kMarpServiceName);
  MARP_REQUIRE_MSG(server != nullptr, "no MARP server on this host");
  return *server;
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

bool UpdateAgent::is_unavailable(net::NodeId node) const {
  return std::find(unavailable_.begin(), unavailable_.end(), node) !=
         unavailable_.end();
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
  const quorum::NodeSet down = quorum::make_node_set(unavailable_);
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

void UpdateAgent::tour_unvisited(const quorum::NodeSet& members) {
  usl_.clear();
  for (const net::NodeId node : members) {
    if (std::find(visited_.begin(), visited_.end(), node) == visited_.end()) {
      usl_.push_back(node);
    }
  }
}

bool UpdateAgent::ack_quorum_reached(agent::AgentContext& ctx) const {
  // The acked set must contain a write quorum of EVERY group's electorate.
  // Acks are epoch-filtered on receipt, except under the MixedEpoch mutant,
  // which deliberately lets cross-epoch acks accumulate here.
  const ProtocolMutant mutant = server_here(ctx).config().mutant;
  const quorum::NodeSet held(acks_.begin(), acks_.end());  // set: sorted
  return std::all_of(groups_.begin(), groups_.end(), [&](shard::GroupId g) {
    return mutant_write_covered(electorate(ctx, g).quorum(), held, mutant);
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
  usl_.assign(tour->begin(), tour->end());
  ctx.set_timer(server.config().visit_service_time, kTokenVisit);
  if (auto* t = tracer(ctx)) t->visit_begin(id(), ctx.here());
}

void UpdateAgent::on_arrival(agent::AgentContext& ctx) {
  migration_retries_ = 0;
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
        migration_retries_ = 0;
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
      const MarpConfig& config = server.config();
      const bool candidate = tours_quorum(ctx);
      if (++ack_rounds_ > config.max_ack_rounds) {
        if (candidate) {
          // Candidate fallback: the silent quorum members are treated as
          // down, the attempt is withdrawn (grants released everywhere so
          // nothing stays wedged), and a fresh quorum avoiding them is
          // toured. Only when no quorum survives does the agent give up.
          if (const auto members = tour_set(ctx, server.installed())) {
            for (const net::NodeId node : *members) {
              if (!acks_.contains(node) && !is_unavailable(node)) {
                unavailable_.push_back(node);
              }
            }
          }
          if (const auto next = tour_set(ctx, server.installed())) {
            server.protocol().note_quorum_reselection();
            ctx.broadcast(kMsgUnlock, UnlockPayload{id(), attempt_seq_}.encode());
            server.handle_unlock_local(id(), attempt_seq_);
            acks_.clear();
            phase_ = Phase::Traveling;
            tour_unvisited(*next);
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
        if (node == ctx.here() || acks_.contains(node)) continue;
        if (candidate && is_unavailable(node)) continue;
        ctx.send_to_node(node, kMsgUpdate, bytes);
      }
      ctx.set_timer(ack_retry_delay(ctx), kTokenAckRetry);
      break;
    }
    case kTokenCommitRetry: {
      if (phase_ != Phase::Committing) break;
      MarpServer& server = server_here(ctx);
      const MarpConfig& config = server.config();
      if (++commit_rounds_ > config.max_commit_rounds) {
        // Stragglers are down or partitioned beyond the retransmit window;
        // they catch up via recovery sync / anti-entropy. The decision
        // itself was final the moment COMMIT first went out.
        if (auto* t = tracer(ctx)) t->commit_fanout_end(id());
        phase_ = Phase::Done;
        ctx.dispose();
        break;
      }
      if (auto* t = tracer(ctx)) t->retry(id(), ctx.here(), trace::kRetryCommit);
      if (committed_) {
        const CommitPayload commit{id(), ops_, groups_, ctx.here()};
        const serial::Bytes bytes = commit.encode();
        const std::size_t n = server.cluster_size();
        for (net::NodeId node = 0; node < n; ++node) {
          if (node == ctx.here() || commit_acks_.contains(node)) continue;
          ctx.send_to_node(node, kMsgCommit, bytes);
          server.protocol().note_anomaly(Anomaly::CommitRetransmit);
        }
      } else {
        const ReleasePayload release{id(), groups_, ctx.here()};
        const serial::Bytes bytes = release.encode();
        const std::size_t n = server.cluster_size();
        for (net::NodeId node = 0; node < n; ++node) {
          if (node == ctx.here() || commit_acks_.contains(node)) continue;
          ctx.send_to_node(node, kMsgRelease, bytes);
          server.protocol().note_anomaly(Anomaly::ReleaseRetransmit);
        }
      }
      if (!report_acked_) {
        send_report(ctx, committed_);
        server.protocol().note_anomaly(Anomaly::ReportRetransmit);
      }
      maybe_finish_commit(ctx);
      if (phase_ == Phase::Committing) {
        ctx.set_timer(config.commit_retry_interval, kTokenCommitRetry);
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
  const MarpConfig& config = server.config();

  const VisitResult result =
      server.visit(id(), keys(), config.gossip ? lt_ : GroupLockTable{});

  if (result.epoch > epoch_ && config.mutant != ProtocolMutant::MixedEpoch) {
    // This server advertises a newer view: everything collected so far is
    // scoped to a dead epoch. Abort-and-re-tour under the new one.
    withdraw_and_requeue(ctx, &server.installed());
    return;
  }

  for (const auto& [group, snapshot] : result.locking_lists) {
    lt_[group][ctx.here()] = snapshot;
  }
  if (config.gossip) merge_group_lock_tables(lt_, result.gossip);
  ual_.merge(result.updated_list);
  for (const auto& [key, value] : result.data) {
    auto& best = freshest_[key];
    if (value.version > best.version) best = value;
  }
  routing_costs_ = result.routing_costs;

  if (std::find(visited_.begin(), visited_.end(), ctx.here()) == visited_.end()) {
    visited_.push_back(ctx.here());
  }
  usl_.erase(std::remove(usl_.begin(), usl_.end(), ctx.here()), usl_.end());

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
  for (const shard::GroupId g : groups_) {
    const auto it = lt_.find(g);
    // The election is scoped to the group's electorate: its size is N and
    // its geometry the rule (majority arithmetic, or write coverage).
    const quorum::QuorumSystem& electors = electorate(ctx, g).quorum();
    const Decision verdict =
        decide(it == lt_.end() ? LockTable{} : it->second, ual_, id(),
               electors.size(), server.config().tie_break, server.config().votes,
               server.config().mutant, &electors);
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
  // losing view has not budged for requeue_timeout, leave every list and
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
    migration_retries_ = 0;
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
        server.config().requeue_timeout.as_micros() +
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
  visited_.clear();
  usl_.clear();
  for (const net::NodeId node : *tour) {
    if (!is_unavailable(node)) usl_.push_back(node);
  }
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
  std::vector<net::NodeId> candidates;
  for (net::NodeId node : usl_) {
    if (node != ctx.here() && !is_unavailable(node)) candidates.push_back(node);
  }
  if (candidates.empty()) return net::kInvalidNode;

  const RoutingPolicy policy = server_here(ctx).config().routing;
  switch (policy) {
    case RoutingPolicy::CostAware: {
      // Cheapest next hop per the routing table taken from the last server.
      net::NodeId best = candidates.front();
      for (net::NodeId node : candidates) {
        const std::int64_t cost =
            node < routing_costs_.size() ? routing_costs_[node] : 0;
        const std::int64_t best_cost =
            best < routing_costs_.size() ? routing_costs_[best] : 0;
        if (cost < best_cost || (cost == best_cost && node < best)) best = node;
      }
      return best;
    }
    case RoutingPolicy::Random: {
      // Deterministic per (agent, hop): independent of global RNG state.
      std::uint64_t seed = agent::AgentIdHash{}(id());
      seed ^= (visited_.size() + 1) * 0x9E3779B97F4A7C15ULL;
      sim::Rng rng(seed);
      return candidates[rng.bounded(candidates.size())];
    }
    case RoutingPolicy::ByServerId:
      return *std::min_element(candidates.begin(), candidates.end());
  }
  return net::kInvalidNode;
}

net::NodeId UpdateAgent::pick_stalest(agent::AgentContext& ctx) const {
  net::NodeId stalest = net::kInvalidNode;
  std::int64_t oldest = std::numeric_limits<std::int64_t>::max();
  // Patrol the tour, not the whole cluster.
  const auto members = tour_set(ctx, server_here(ctx).installed());
  if (!members) return net::kInvalidNode;
  for (const net::NodeId node : *members) {
    if (node == ctx.here() || is_unavailable(node)) continue;
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
  if (++migration_retries_ <= config.migration_retry_limit) {
    if (config.migration_retry_backoff > sim::SimTime::zero()) {
      // Transient-loss mode: space the retries out exponentially so a lossy
      // (but live) link gets a chance to deliver, instead of burning every
      // retry back-to-back and declaring a healthy replica unavailable.
      current_target_ = destination;
      const std::uint32_t shift = std::min(migration_retries_ - 1u, 16u);
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
  unavailable_.push_back(destination);
  usl_.erase(std::remove(usl_.begin(), usl_.end(), destination), usl_.end());
  migration_retries_ = 0;
  current_target_ = net::kInvalidNode;

  // Give up only when some group's quorum cannot survive the unavailable
  // servers — consistency requires that rather than writing a minority;
  // otherwise the remaining copies still intersect everything.
  const quorum::NodeSet down = quorum::make_node_set(unavailable_);
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
    tour_unvisited(*tour_set(ctx, server.installed()));
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

  acks_.clear();
  acks_.insert(ctx.here());
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
    commit_acks_.insert(CommitAckPayload::decode(payload).server);
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
    acks_.insert(ack.server);
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
  const bool reliable = server.config().reliable_commit;
  const CommitPayload commit{id(), ops_, groups_,
                             reliable ? ctx.here() : net::kInvalidNode};
  ctx.broadcast(kMsgCommit, commit.encode());
  server.handle_commit_local(commit);
  server.protocol().note_update_commit(id(), ops_, ctx.here());
  if (!reliable) {
    // Fire-and-forget (the paper's Algorithm 1): a COMMIT copy lost on the
    // wire is only repaired by recovery sync / anti-entropy.
    if (auto* t = tracer(ctx)) t->commit_fanout_end(id());
    phase_ = Phase::Done;
    send_report(ctx, /*success=*/true);
    ctx.dispose();
    return;
  }
  // The decision is final; linger in Committing re-sending COMMIT/REPORT
  // until every reachable server and the origin confirmed, so a dropped
  // COMMIT cannot leave the update half-applied.
  phase_ = Phase::Committing;
  committed_ = true;
  commit_acks_.clear();
  commit_acks_.insert(ctx.here());
  commit_rounds_ = 0;
  report_acked_ = false;
  send_report(ctx, /*success=*/true);
  maybe_finish_commit(ctx);
  if (phase_ == Phase::Committing) {
    ctx.set_timer(server.config().commit_retry_interval, kTokenCommitRetry);
  }
}

void UpdateAgent::abort(agent::AgentContext& ctx) {
  MarpServer& server = server_here(ctx);
  server.protocol().note_update_abort(id(), ctx.here());
  if (auto* t = tracer(ctx)) {
    t->wait_end(id());
    t->update_round_end(id(), /*outcome=*/2);
    t->abort_mark(id(), ctx.here());
    t->commit_fanout_begin(id(), ctx.here(), /*commit=*/false);
  }
  const bool reliable = server.config().reliable_commit;
  const ReleasePayload release{id(), groups_,
                               reliable ? ctx.here() : net::kInvalidNode};
  ctx.broadcast(kMsgRelease, release.encode());
  server.handle_release_local(release);
  if (!reliable) {
    if (auto* t = tracer(ctx)) t->commit_fanout_end(id());
    phase_ = Phase::Done;
    send_report(ctx, /*success=*/false);
    ctx.dispose();
    return;
  }
  // A lost RELEASE is as fatal as a lost COMMIT: the aborter never enters
  // any Updated List, so filtered heads can never skip its dead LL entry,
  // and the stuck grant wedges the server for good. Linger exactly like
  // the commit path — retransmit RELEASE to silent servers and the failure
  // REPORT to the origin until both are covered.
  phase_ = Phase::Committing;
  committed_ = false;
  commit_acks_.clear();
  commit_acks_.insert(ctx.here());
  commit_rounds_ = 0;
  report_acked_ = false;
  send_report(ctx, /*success=*/false);
  maybe_finish_commit(ctx);
  if (phase_ == Phase::Committing) {
    ctx.set_timer(server.config().commit_retry_interval, kTokenCommitRetry);
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
  // retransmit window (the linger is bounded by max_commit_rounds either
  // way, and genuinely dead servers are repaired by recovery sync).
  const std::size_t n = server_here(ctx).cluster_size();
  for (net::NodeId node = 0; node < n; ++node) {
    if (commit_acks_.contains(node)) continue;
    return;  // a server has not confirmed the COMMIT/RELEASE yet
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
  auto write_nodes = [](serial::Writer& ww, const std::vector<net::NodeId>& nodes) {
    ww.varint(nodes.size());
    for (net::NodeId node : nodes) ww.varint(node);
  };
  write_nodes(w, usl_);
  write_nodes(w, visited_);
  write_nodes(w, unavailable_);
  w.varint(groups_.size());
  for (const shard::GroupId g : groups_) w.varint(g);
  serialize_group_lock_table(w, lt_);
  ual_.serialize(w);
  w.varint(freshest_.size());
  for (const auto& [key, value] : freshest_) {
    w.str(key);
    w.str(value.value);
    value.version.serialize(w);
  }
  w.varint(routing_costs_.size());
  for (std::int64_t cost : routing_costs_) w.svarint(cost);
  w.varint(current_target_);
  w.varint(migration_retries_);
  w.seq(ops_, [](serial::Writer& ww, const WriteOp& op) { op.serialize(ww); });
  w.varint(acks_.size());
  for (net::NodeId node : acks_) w.varint(node);
  w.varint(ack_rounds_);
  w.boolean(committed_);
  w.varint(commit_acks_.size());
  for (net::NodeId node : commit_acks_) w.varint(node);
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
  phase_ = static_cast<Phase>(r.u8());
  dispatched_us_ = r.svarint();
  lock_obtained_us_ = r.svarint();
  auto read_nodes = [](serial::Reader& rr) {
    const std::uint64_t n = rr.length_prefix();
    std::vector<net::NodeId> nodes;
    nodes.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      nodes.push_back(static_cast<net::NodeId>(rr.varint()));
    }
    return nodes;
  };
  usl_ = read_nodes(r);
  visited_ = read_nodes(r);
  unavailable_ = read_nodes(r);
  groups_.clear();
  const std::uint64_t group_count = r.varint();
  for (std::uint64_t i = 0; i < group_count; ++i) {
    groups_.push_back(static_cast<shard::GroupId>(r.varint()));
  }
  lt_ = deserialize_group_lock_table(r);
  ual_ = DoneSet::deserialize(r);
  freshest_.clear();
  const std::uint64_t fresh_size = r.varint();
  for (std::uint64_t i = 0; i < fresh_size; ++i) {
    std::string key = r.str();
    replica::VersionedValue value;
    value.value = r.str();
    value.version = replica::Version::deserialize(r);
    freshest_.emplace(std::move(key), std::move(value));
  }
  routing_costs_.clear();
  const std::uint64_t cost_size = r.varint();
  for (std::uint64_t i = 0; i < cost_size; ++i) routing_costs_.push_back(r.svarint());
  current_target_ = static_cast<net::NodeId>(r.varint());
  migration_retries_ = static_cast<std::uint32_t>(r.varint());
  ops_ = r.seq<WriteOp>([](serial::Reader& rr) { return WriteOp::deserialize(rr); });
  acks_.clear();
  const std::uint64_t ack_size = r.varint();
  for (std::uint64_t i = 0; i < ack_size; ++i) {
    acks_.insert(static_cast<net::NodeId>(r.varint()));
  }
  ack_rounds_ = static_cast<std::uint32_t>(r.varint());
  committed_ = r.boolean();
  commit_acks_.clear();
  const std::uint64_t commit_ack_size = r.varint();
  for (std::uint64_t i = 0; i < commit_ack_size; ++i) {
    commit_acks_.insert(static_cast<net::NodeId>(r.varint()));
  }
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
