#include "marp/server.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "marp/protocol.hpp"
#include "marp/read_agent.hpp"
#include "marp/update_agent.hpp"
#include "membership/placement.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::core {

namespace {

/// Coordination payloads use an empty group set as the degenerate
/// single-group space (pre-sharding senders and tests).
std::vector<shard::GroupId> effective_groups(const std::vector<shard::GroupId>& groups) {
  if (groups.empty()) return {shard::GroupId{0}};
  return groups;
}

constexpr std::uint32_t kAnyAttempt = std::numeric_limits<std::uint32_t>::max();

/// Local processing time of a LocalCopy read (read the local replica).
constexpr sim::SimTime kLocalReadTime = sim::SimTime::micros(100);

}  // namespace

MarpServer::MarpServer(net::Network& network, agent::AgentPlatform& platform,
                       net::NodeId node, const MarpConfig& config,
                       MarpProtocol& protocol,
                       std::shared_ptr<const membership::InstalledView> installed)
    : replica::ServerBase(network, node),
      platform_(platform),
      config_(config),
      protocol_(protocol),
      router_(config.num_lock_groups),
      lock_space_(config.num_lock_groups),
      installed_(std::move(installed)),
      anti_entropy_rng_(
          network.simulator().rng_factory().stream("anti-entropy", node)) {
  platform_.host(node).set_service(kMarpServiceName, this);
  if (config_.anti_entropy_interval.as_micros() > 0) {
    // Per-node phase offset so the fleet does not sync in lock-step.
    const sim::SimTime jitter = sim::SimTime::micros(static_cast<std::int64_t>(
        anti_entropy_rng_.bounded(static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, config_.anti_entropy_interval.as_micros())))));
    simulator().schedule(config_.anti_entropy_interval + jitter,
                         [this] { anti_entropy_tick(); },
                         static_cast<sim::ActorId>(node_));
  }
  if (config_.agent_lease_timeout.as_micros() > 0) {
    // Sweep at half the lease so an expired agent lingers at most 1.5 leases.
    simulator().schedule(
        sim::SimTime::micros(
            std::max<std::int64_t>(1, config_.agent_lease_timeout.as_micros() / 2)),
        [this] { lease_tick(); }, static_cast<sim::ActorId>(node_));
  }
}

std::size_t MarpServer::sync_pull(std::size_t max_peers) {
  if (!up_ || network_.size() <= 1 || max_peers == 0) return 0;
  std::size_t sent = 0;
  std::set<net::NodeId> chosen;
  const std::size_t want = std::min(max_peers, network_.size() - 1);
  for (int tries = 0; tries < 32 && sent < want; ++tries) {
    const net::NodeId peer =
        static_cast<net::NodeId>(anti_entropy_rng_.bounded(network_.size()));
    if (!sync_peer_ok(peer) || !chosen.insert(peer).second) {
      continue;
    }
    if (auto* tracer = protocol_.tracer()) tracer->anti_entropy(node_);
    network_.send(net::Message{node_, peer, kMsgSyncReq, {}});
    ++sent;
  }
  return sent;
}

bool MarpServer::sync_peer_ok(net::NodeId peer) const {
  // Only installed members hold data worth pulling (a spare's store is
  // empty, a retired node's is frozen).
  return peer != node_ && network_.node_up(peer) && view().is_member(peer);
}

void MarpServer::touch_agent(const agent::AgentId& agent) {
  if (config_.agent_lease_timeout.as_micros() > 0) agent_activity_[agent] = now();
}

void MarpServer::lease_tick() {
  if (up_) {
    // Everything that can wedge a future claimant: queued LL entries, the
    // exclusive grant holders, and staged (granted but uncommitted) ops.
    std::set<agent::AgentId> present;
    for (const shard::GroupId g : lock_space_.all_groups()) {
      const auto& grp = lock_space_.group(g);
      for (const agent::AgentId& id : grp.ll.snapshot()) present.insert(id);
      if (grp.holder) present.insert(*grp.holder);
    }
    for (const auto& [id, ops] : staged_) present.insert(id);

    for (auto it = agent_activity_.begin(); it != agent_activity_.end();) {
      it = present.contains(it->first) ? std::next(it) : agent_activity_.erase(it);
    }

    std::vector<agent::AgentId> expired;
    for (const agent::AgentId& id : present) {
      if (platform_.host(node_).has_agent(id)) {
        // Hosted here: liveness is directly observable, never lease it out.
        agent_activity_[id] = now();
        continue;
      }
      const auto [it, fresh] = agent_activity_.try_emplace(id, now());
      if (!fresh && now().as_micros() - it->second.as_micros() >=
                        config_.agent_lease_timeout.as_micros()) {
        expired.push_back(id);
      }
    }
    if (!expired.empty()) {
      MARP_LOG_WARN("marp") << "server " << node_ << ": lease expired for "
                            << expired.size() << " idle remote agent(s)";
      purge_agents(expired);
      protocol_.note_agents_lease_purged(expired.size());
    }
  }
  simulator().schedule(
      sim::SimTime::micros(
          std::max<std::int64_t>(1, config_.agent_lease_timeout.as_micros() / 2)),
      [this] { lease_tick(); }, static_cast<sim::ActorId>(node_));
}

void MarpServer::anti_entropy_tick() {
  if (up_ && network_.size() > 1) {
    // One random live peer per tick; the reply merges via the Thomas rule,
    // so repeated/duplicated dumps are harmless.
    net::NodeId peer = node_;
    for (int tries = 0; tries < 8 && !sync_peer_ok(peer); ++tries) {
      peer = static_cast<net::NodeId>(anti_entropy_rng_.bounded(network_.size()));
    }
    if (sync_peer_ok(peer)) {
      if (auto* tracer = protocol_.tracer()) tracer->anti_entropy(node_);
      network_.send(net::Message{node_, peer, kMsgSyncReq, {}});
    }
  }
  simulator().schedule(config_.anti_entropy_interval,
                       [this] { anti_entropy_tick(); },
                       static_cast<sim::ActorId>(node_));
}

void MarpServer::submit(const replica::Request& request) {
  if (!up_) return;  // a dead server accepts nothing

  if (request.kind == replica::RequestKind::Read) {
    if (config_.read_mode == ReadMode::QuorumAgent) {
      // Extension: a read agent tours a read quorum (see ReadAgent).
      outstanding_[request.id] = request;
      platform_.host(node_).create(
          std::make_unique<ReadAgent>(node_, request.id, request.key));
      return;
    }
    // Paper §3.1: "a read operation may be executed on an arbitrary copy"
    // — serve the local replica after a small processing delay.
    simulator().schedule(kLocalReadTime, [this, request] {
      if (!up_) return;
      replica::Outcome outcome;
      outcome.request_id = request.id;
      outcome.kind = replica::RequestKind::Read;
      outcome.origin = node_;
      outcome.submitted = request.submitted;
      outcome.dispatched = request.submitted;
      outcome.lock_obtained = request.submitted;
      outcome.completed = now();
      outcome.success = true;
      if (auto value = store_.read(request.key)) {
        outcome.value = value->value;
        outcome.read_version = value->version;
      }
      protocol_.note_read();
      report(outcome);
    }, static_cast<sim::ActorId>(node_));
    return;
  }

  outstanding_[request.id] = request;
  pending_.push_back(request);
  if (auto* tracer = protocol_.tracer(); tracer && pending_.size() == 1) {
    tracer->batch_open(node_);  // submit → dispatch queueing span
  }
  if (pending_.size() >= config_.batch_size) {
    dispatch_agent();
  } else {
    arm_batch_timer();
  }
}

void MarpServer::arm_batch_timer() {
  if (batch_timer_) return;
  batch_timer_ = simulator().schedule(config_.batch_period, [this] {
    batch_timer_.reset();
    if (up_ && !pending_.empty()) dispatch_agent();
  }, static_cast<sim::ActorId>(node_));
}

void MarpServer::dispatch_agent() {
  if (batch_timer_) {
    simulator().cancel(*batch_timer_);
    batch_timer_.reset();
  }
  std::vector<UpdateAgent::PendingWrite> writes;
  writes.reserve(pending_.size());
  for (const auto& request : pending_) {
    writes.push_back({request.id, request.key, request.value});
  }
  pending_.clear();
  if (auto* tracer = protocol_.tracer()) {
    tracer->batch_dispatch(node_, writes.size());
  }
  platform_.host(node_).create(std::make_unique<UpdateAgent>(node_, std::move(writes)));
}

VisitResult MarpServer::visit(const agent::AgentId& visitor,
                              const std::vector<std::string>& keys,
                              GroupLockTable& tables) {
  MARP_REQUIRE_MSG(up_, "visit() on a failed server");
  std::vector<shard::GroupId> groups = router_.groups_of(keys);
  if (groups.empty()) groups.push_back(0);

  for (const shard::GroupId g : groups) {
    // This server only runs the Locking-List machinery of the groups it
    // hosts. An agent that lands here with other groups is stale (its view
    // predates a change; this server's epoch tells it so). Its table of such
    // a group still feeds the cache.
    if (!electorate(g).hosts(node_)) {
      const auto it = tables.find(g);
      if (config_.gossip && it != tables.end()) merge_lock_tables(gossip_cache_[g], it->second);
      continue;
    }
    // Algorithm 2: "create an entry for the mobile agent and append it to
    // LL" (idempotent on re-visits — the agent keeps its queue position).
    auto& grp = lock_space_.group(g);
    if (grp.ll.append(visitor, now())) {
      if (auto* tracer = protocol_.tracer()) tracer->ll_enqueue(visitor, node_, g);
    }
    LockSnapshot fresh{grp.ll.snapshot(), now().as_micros()};
    LockTable& mine = tables[g];
    if (!config_.gossip) {
      mine[node_] = std::move(fresh);
      continue;
    }
    // "Mobile agents can exchange their locking information by leaving the
    // information at the servers they visited" (§3.3). Only the visitor's
    // own groups are exchanged — gossip stays proportional to the write-set.
    LockTable& cache = gossip_cache_[g];
    exchange_lock_tables(mine, cache);
    // This server's own snapshot: the cache keeps the fresh one for later
    // visitors, and the visitor takes it unless the cache knew a fresher.
    LockSnapshot& cached_here = cache[node_];
    mine[node_] = cached_here.fresher_than(fresh) ? cached_here : fresh;
    cached_here = std::move(fresh);
  }
  touch_agent(visitor);
  VisitResult result;
  result.updated_list = ul_.ascending();
  result.routing_costs = routing_costs();
  for (const std::string& key : keys) {
    if (auto value = store_.read(key)) result.data.emplace(key, *value);
  }
  return result;
}

MarpServer::RefreshResult MarpServer::refresh(
    const agent::AgentId& visitor, const std::vector<shard::GroupId>& groups) {
  MARP_REQUIRE_MSG(up_, "refresh() on a failed server");
  RefreshResult result;
  for (const shard::GroupId g : effective_groups(groups)) {
    auto& grp = lock_space_.group(g);
    if (grp.ll.append(visitor, now())) {  // no-op when already queued
      if (auto* tracer = protocol_.tracer()) tracer->ll_enqueue(visitor, node_, g);
    }
    result.locking_lists.emplace(
        g, LockSnapshot{grp.ll.snapshot(), now().as_micros()});
  }
  touch_agent(visitor);
  result.updated_list = ul_.ascending();
  return result;
}

MarpServer::GrantResult MarpServer::handle_update_local(
    const UpdatePayload& payload, shard::GroupId* conflict_group) {
  // Epoch fence (phase 1 of a view change is the safety fence): grants go
  // only to sessions of the installed epoch, and not while a newer view is
  // promised or this member is still catching up. The MixedEpoch mutant
  // skips the fence so the model checker can watch mixed-epoch "quorums"
  // form — the (group, epoch)-scoped monitor must flag them.
  if (config_.mutant != ProtocolMutant::MixedEpoch) {
    if (retired_ || !view().is_member(node_)) return GrantResult::EpochStale;
    if (payload.epoch != epoch()) return GrantResult::EpochStale;
    if (pending_view_) return GrantResult::EpochStale;
    if (catching_up_) return GrantResult::CatchingUp;
  }
  // A finished agent's delayed UPDATE must not take grants nobody will
  // ever release, and neither may an attempt the agent already withdrew.
  if (ul_.contains(payload.agent)) return GrantResult::Stale;
  if (auto it = unlocked_attempts_.find(payload.agent);
      it != unlocked_attempts_.end() && payload.attempt <= it->second) {
    return GrantResult::Stale;
  }
  const std::vector<shard::GroupId> groups = effective_groups(payload.groups);
  // All-or-nothing, checked in ascending group order: either every requested
  // grant is free (or already this agent's), or nothing is taken and the
  // first conflict is reported. Never holding a partial set means a losing
  // claimant cannot wedge other groups while it waits (no hold-and-wait).
  bool regrant = true;
  for (const shard::GroupId g : groups) {
    const auto& grp = lock_space_.group(g);
    if (grp.holder && *grp.holder != payload.agent) {
      if (conflict_group != nullptr) *conflict_group = g;
      return GrantResult::Held;
    }
    if (grp.holder == payload.agent && payload.attempt < grp.holder_attempt) {
      return GrantResult::Stale;
    }
    regrant = regrant && grp.holder == payload.agent &&
              grp.holder_attempt == payload.attempt;
  }
  // Re-delivered copy of an UPDATE whose grants this server already gave:
  // idempotent (the re-ACK below is exactly what a sender missing our first
  // ACK needs), but worth counting.
  if (regrant && staged_.contains(payload.agent)) {
    protocol_.note_anomaly(Anomaly::DuplicateUpdate);
  }
  for (const shard::GroupId g : groups) {
    auto& grp = lock_space_.group(g);
    grp.holder = payload.agent;
    grp.holder_attempt = payload.attempt;
  }
  staged_[payload.agent] = payload.ops;
  touch_agent(payload.agent);
  return GrantResult::Granted;
}

void MarpServer::handle_commit_local(const CommitPayload& payload) {
  // Re-applying is always safe (Thomas write rule), so ops go first — a
  // replica that missed the original COMMIT converges off any copy. Under
  // partial replication only hosted groups are applied (against the newest
  // known view, so a promised joiner already absorbs its new groups).
  for (const WriteOp& op : payload.ops) {
    if (!keeps(op.key)) continue;
    store_.apply(op.key, op.value, op.version);
    if (op.version > applied_high_) applied_high_ = op.version;
  }
  if (ul_.contains(payload.agent)) {
    // Duplicated or reordered redelivery: the locks were already swept and
    // waiters signalled; doing it again would only churn. Count and stop.
    protocol_.note_anomaly(Anomaly::DuplicateCommit);
    return;
  }
  staged_.erase(payload.agent);
  agent_activity_.erase(payload.agent);
  lock_space_.release_grants(payload.agent, kAnyAttempt);
  unlocked_attempts_.erase(payload.agent);
  lock_space_.remove_from_lists(payload.agent, payload.groups);
  if (auto* tracer = protocol_.tracer()) tracer->ll_remove_all(payload.agent, node_);
  ul_.add(payload.agent);
  // Wake local waiters even if the winner never queued here: the UL entry
  // alone changes filtered heads everywhere.
  signal_lock_changed();
}

void MarpServer::handle_release_local(const ReleasePayload& payload) {
  staged_.erase(payload.agent);
  agent_activity_.erase(payload.agent);
  lock_space_.release_grants(payload.agent, kAnyAttempt);
  unlocked_attempts_.erase(payload.agent);
  if (lock_space_.remove_from_lists(payload.agent, payload.groups)) {
    if (auto* tracer = protocol_.tracer()) tracer->ll_remove_all(payload.agent, node_);
    signal_lock_changed();
  }
}

void MarpServer::handle_unlock_local(const agent::AgentId& agent,
                                     std::uint32_t attempt) {
  auto& high_water = unlocked_attempts_[agent];
  high_water = std::max(high_water, attempt);
  touch_agent(agent);
  // Grants are taken atomically at one attempt, so if any group released,
  // the staged ops of that attempt are dead too.
  if (lock_space_.release_grants(agent, attempt)) staged_.erase(agent);
}

void MarpServer::handle_report_local(const ReportPayload& payload,
                                     net::NodeId from) {
  // Ack first: whether this copy is fresh or a retransmit, the reporting
  // agent only needs to know the origin has the outcome.
  if (from != net::kInvalidNode) {
    platform_.send_to_agent(node_, from, payload.agent, kMsgReportAck,
                            CommitAckPayload{node_}.encode());
  }
  if (reported_.contains(payload.agent)) {
    // Retransmitted REPORT (the first ack was lost): already accounted.
    protocol_.note_anomaly(Anomaly::DuplicateReport);
    return;
  }
  reported_.add(payload.agent);
  for (std::uint64_t request_id : payload.request_ids) {
    auto it = outstanding_.find(request_id);
    if (it == outstanding_.end()) {
      // The request this outcome answers is gone — this origin crashed after
      // dispatching the agent and lost its outstanding table. Not silent any
      // more: the counter is the evidence the crash ate a client answer.
      protocol_.note_anomaly(Anomaly::OrphanedReport);
      continue;
    }
    const replica::Request& request = it->second;
    replica::Outcome outcome;
    outcome.request_id = request.id;
    outcome.kind = replica::RequestKind::Write;
    outcome.origin = node_;
    outcome.submitted = request.submitted;
    outcome.success = payload.success;
    outcome.dispatched = sim::SimTime::micros(payload.dispatched_us);
    outcome.lock_obtained = sim::SimTime::micros(payload.lock_obtained_us);
    outcome.completed = now();
    outcome.servers_visited = payload.servers_visited;
    report(outcome);
    outstanding_.erase(it);
  }
}

void MarpServer::handle_read_report_local(const ReadReportPayload& payload) {
  auto it = outstanding_.find(payload.request_id);
  if (it == outstanding_.end()) return;
  const replica::Request& request = it->second;
  replica::Outcome outcome;
  outcome.request_id = request.id;
  outcome.kind = replica::RequestKind::Read;
  outcome.origin = node_;
  outcome.submitted = request.submitted;
  outcome.dispatched = request.submitted;
  outcome.lock_obtained = request.submitted;
  outcome.completed = now();
  outcome.success = payload.success;
  outcome.value = payload.value;
  outcome.read_version = payload.version;
  outcome.servers_visited = payload.servers_visited;
  protocol_.note_read();
  report(outcome);
  outstanding_.erase(it);
}

void MarpServer::handle_message(const net::Message& message) {
  if (!up_) return;
  switch (message.type) {
    case kMsgUpdate: {
      const UpdatePayload payload = UpdatePayload::decode(message.payload);
      shard::GroupId conflict = 0;
      switch (handle_update_local(payload, &conflict)) {
        case GrantResult::Granted: {
          AckPayload ack{node_, payload.attempt, applied_high_};
          ack.epoch = epoch();
          platform_.send_to_agent(node_, payload.reply_to, payload.agent,
                                  kMsgAck, ack.encode());
          break;
        }
        case GrantResult::Held:
          platform_.send_to_agent(
              node_, payload.reply_to, payload.agent, kMsgNack,
              NackPayload{node_, payload.attempt,
                          *lock_space_.group(conflict).holder, conflict}
                  .encode());
          break;
        case GrantResult::Stale:
          // The sender has moved on; any reply would be ignored.
          protocol_.note_anomaly(Anomaly::StaleUpdate);
          break;
        case GrantResult::EpochStale:
          // Teach the stale session the newest view so it can re-tour.
          protocol_.note_anomaly(Anomaly::EpochStaleUpdate);
          platform_.send_to_agent(
              node_, payload.reply_to, payload.agent, kMsgEpochNotice,
              EpochNoticePayload{node_, newest_view()}.encode());
          break;
        case GrantResult::CatchingUp:
          // Silent: the sender's ack-retry rounds re-deliver the UPDATE
          // once the first store merge lands and grants reopen. Each
          // refusal re-pulls in case the original sync request was lost.
          protocol_.note_anomaly(Anomaly::JoinerRefusal);
          sync_pull(1);
          break;
      }
      break;
    }
    case kMsgCommit: {
      const CommitPayload payload = CommitPayload::decode(message.payload);
      handle_commit_local(payload);
      // Hardened senders ask for an ack so they can stop retransmitting;
      // legacy senders leave reply_to invalid and get the seed behaviour.
      if (payload.reply_to != net::kInvalidNode) {
        platform_.send_to_agent(node_, payload.reply_to, payload.agent,
                                kMsgCommitAck, CommitAckPayload{node_}.encode());
      }
      break;
    }
    case kMsgRelease: {
      const ReleasePayload payload = ReleasePayload::decode(message.payload);
      handle_release_local(payload);
      // Symmetric with COMMIT: a hardened aborter asks for an ack so it can
      // stop retransmitting. A lost RELEASE would otherwise leave a dead LL
      // head (the aborter never reaches any UL, so filtered heads can never
      // skip it) and a stuck grant — wedging this server permanently.
      if (payload.reply_to != net::kInvalidNode) {
        platform_.send_to_agent(node_, payload.reply_to, payload.agent,
                                kMsgCommitAck, CommitAckPayload{node_}.encode());
      }
      break;
    }
    case kMsgUnlock: {
      const UnlockPayload payload = UnlockPayload::decode(message.payload);
      handle_unlock_local(payload.agent, payload.attempt);
      break;
    }
    case kMsgReport:
      handle_report_local(ReportPayload::decode(message.payload), message.src);
      break;
    case kMsgReadReport:
      handle_read_report_local(ReadReportPayload::decode(message.payload));
      break;
    case kMsgSyncReq: {
      SyncPayload dump;
      for (const auto& key : store_.keys()) {
        const auto value = store_.read(key);
        dump.items.push_back({key, value->value, value->version});
      }
      network_.send(net::Message{node_, message.src, kMsgSyncRep, dump.encode()});
      break;
    }
    case kMsgSyncRep: {
      const SyncPayload dump = SyncPayload::decode(message.payload);
      std::size_t applied = 0;
      for (const auto& item : dump.items) {
        // Partial replication: keep only the groups this node hosts under
        // the newest view it knows (a promised joiner adopts its gained
        // groups from exactly this merge).
        if (!keeps(item.key)) continue;
        if (store_.apply(item.key, item.value, item.version)) {
          ++applied;
          if (item.version > applied_high_) applied_high_ = item.version;
        }
      }
      if (catching_up_) {
        // First completed merge ends catch-up: this member now serves
        // grants for its hosted groups.
        catching_up_ = false;
        MARP_LOG_INFO("marp") << "server " << node_
                              << ": catch-up complete, serving grants";
      }
      if (sync_listener_) sync_listener_(applied);
      break;
    }
    case kMsgViewPropose:
      handle_view_propose(ViewProposePayload::decode(message.payload));
      break;
    case kMsgViewAck:
      handle_view_ack(ViewAckPayload::decode(message.payload));
      break;
    case kMsgViewActivate:
      activate_view(ViewActivatePayload::decode(message.payload).view);
      break;
    default:
      MARP_LOG_WARN("marp") << "server " << node_ << ": unexpected message type "
                            << message.type;
  }
}

void MarpServer::purge_agents(const std::vector<agent::AgentId>& dead) {
  bool changed = false;
  for (const agent::AgentId& id : dead) {
    staged_.erase(id);
    unlocked_attempts_.erase(id);
    agent_activity_.erase(id);
    changed = lock_space_.purge(id) || changed;
    if (auto* tracer = protocol_.tracer()) tracer->ll_remove_all(id, node_);
  }
  if (changed) signal_lock_changed();
}

void MarpServer::reset_coordination() {
  if (auto* tracer = protocol_.tracer()) tracer->node_reset(node_);
  lock_space_.clear();
  ul_ = replica::UpdatedList{};
  gossip_cache_.clear();
  staged_.clear();
  unlocked_attempts_.clear();
  signal_lock_changed();
}

void MarpServer::signal_lock_changed() {
  platform_.host(node_).raise_signal(kSignalLockChanged);
}

void MarpServer::on_fail() {
  // The process halts: volatile coordination state is gone; buffered client
  // requests are lost. The versioned store survives on stable storage.
  if (auto* tracer = protocol_.tracer()) tracer->node_reset(node_);
  lock_space_.clear();
  ul_ = replica::UpdatedList{};
  gossip_cache_.clear();
  staged_.clear();
  unlocked_attempts_.clear();
  agent_activity_.clear();
  reported_ = replica::UpdatedList{};
  pending_.clear();
  outstanding_.clear();
  if (batch_timer_) {
    simulator().cancel(*batch_timer_);
    batch_timer_.reset();
  }
}

void MarpServer::on_recover() {
  // Locking state restarts empty; the store catches up through future
  // COMMITs regardless (versions make re-application safe). With recovery
  // sync enabled we additionally pull the current store from a live peer so
  // keys that are never written again still converge.
  if (!config_.recovery_sync) return;
  for (net::NodeId peer = 0; peer < network_.size(); ++peer) {
    if (sync_peer_ok(peer)) {
      network_.send(net::Message{node_, peer, kMsgSyncReq, {}});
      break;
    }
  }
}

// ---- the installed view ----

bool MarpServer::begin_view_change(std::vector<net::NodeId> new_active) {
  if (!config_.membership.enabled() || !up_ || change_) return false;
  membership::MembershipView next = membership::make_view(
      epoch() + 1, std::move(new_active),
      config_.membership.replication_factor, config_.num_lock_groups,
      &network_.topology());
  if (next.active == view().active) return false;
  PendingChange change;
  std::set<net::NodeId> targets(view().active.begin(), view().active.end());
  targets.insert(next.active.begin(), next.active.end());
  change.targets.assign(targets.begin(), targets.end());
  change.old = installed_;
  change.view = std::move(next);
  change_ = std::move(change);
  MARP_LOG_INFO("marp") << "server " << node_ << ": proposing view epoch "
                        << change_->view.epoch << " with "
                        << change_->view.active.size() << " members";
  const ViewProposePayload propose{node_, change_->view};
  const std::vector<std::uint8_t> encoded = propose.encode();
  for (const net::NodeId target : change_->targets) {
    if (target == node_) continue;
    network_.send(net::Message{node_, target, kMsgViewPropose, encoded});
  }
  handle_view_propose(propose);  // local promise + self-ack
  return true;
}

void MarpServer::handle_view_propose(const ViewProposePayload& payload) {
  if (!up_ || !config_.membership.enabled()) return;
  if (payload.view.epoch <= epoch()) return;  // change already activated
  if (!pending_view_ || pending_view_->epoch < payload.view.epoch) {
    pending_view_ = payload.view;
    // A node gaining groups starts its catch-up right away: the promise
    // phase doubles as transfer time, and handle_update_local refuses
    // grants until the first merge lands.
    if (payload.view.gains(node_, view())) {
      catching_up_ = true;
      sync_pull(2);
    }
  }
  const ViewAckPayload ack{node_, payload.view.epoch};
  if (payload.coordinator == node_) {
    handle_view_ack(ack);
  } else {
    network_.send(
        net::Message{node_, payload.coordinator, kMsgViewAck, ack.encode()});
  }
}

void MarpServer::handle_view_ack(const ViewAckPayload& payload) {
  if (!up_ || !change_ || payload.epoch != change_->view.epoch) return;
  change_->acks.push_back(payload.server);
  change_->acks = quorum::make_node_set(std::move(change_->acks));
  // Activate once a write quorum of EVERY group's old replica set promised:
  // any straggler session of the old epoch then has to cross a promised
  // (fencing) server before it can complete a write quorum of its group —
  // per-group quorum intersection carries the old view's exclusivity into
  // the new one.
  for (const membership::Electorate& old : change_->old->electorates) {
    if (!old.quorum().write_covered(change_->acks)) return;
  }
  const ViewActivatePayload activate{change_->view};
  const std::vector<std::uint8_t> encoded = activate.encode();
  for (const net::NodeId target : change_->targets) {
    if (target == node_) continue;
    network_.send(net::Message{node_, target, kMsgViewActivate, encoded});
  }
  const membership::MembershipView view = change_->view;
  change_.reset();
  activate_view(view);
}

void MarpServer::activate_view(const membership::MembershipView& next) {
  if (!up_ || !config_.membership.enabled()) return;
  if (next.epoch <= epoch()) return;
  const std::shared_ptr<const membership::InstalledView> old = installed_;
  installed_ = membership::install_view(next, config_.quorum);
  if (pending_view_ && pending_view_->epoch <= epoch()) pending_view_.reset();
  protocol_.note_view_activated(installed_);
  if (!view().is_member(node_)) {
    if (old->view.is_member(node_)) {
      // Leaver: drain. Sessions queued or granted here are fenced under the
      // new epoch anyway; dropping the coordination state releases their
      // grants now instead of via leases. The store stays (frozen) so a
      // later re-join starts warm.
      retired_ = true;
      catching_up_ = false;
      reset_coordination();
      MARP_LOG_INFO("marp") << "server " << node_ << ": left view at epoch "
                            << epoch() << ", locking lists drained";
    }
    return;
  }
  retired_ = false;
  // A member that gained groups but never saw the propose (lost message)
  // still has to catch up before serving grants for them.
  if (view().gains(node_, old->view) && !catching_up_) {
    catching_up_ = true;
    sync_pull(2);
  }
  // Old-epoch sessions waiting locally re-evaluate (and re-tour) sooner.
  signal_lock_changed();
}

MarpServer& server_here(agent::AgentContext& ctx) {
  auto* server = ctx.service<MarpServer>(kMarpServiceName);
  MARP_REQUIRE_MSG(server != nullptr, "no MARP server on this host");
  return *server;
}

}  // namespace marp::core
