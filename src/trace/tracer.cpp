#include "trace/tracer.hpp"

#include <algorithm>

namespace marp::trace {

const char* span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Session: return "session";
    case SpanKind::Migration: return "migration";
    case SpanKind::Visit: return "visit";
    case SpanKind::LockWait: return "lock-wait";
    case SpanKind::UpdateRound: return "update-round";
    case SpanKind::CommitFanout: return "commit-fanout";
    case SpanKind::QuorumWin: return "quorum-win";
    case SpanKind::Retry: return "retry";
    case SpanKind::Backoff: return "backoff";
    case SpanKind::Requeue: return "requeue";
    case SpanKind::Abort: return "abort";
    case SpanKind::BatchWait: return "batch-wait";
    case SpanKind::LockListWait: return "ll-wait";
    case SpanKind::AntiEntropy: return "anti-entropy";
    case SpanKind::NetDrop: return "net-drop";
    case SpanKind::NetRetransmit: return "net-retransmit";
  }
  return "?";
}

bool agent_track(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Session:
    case SpanKind::Migration:
    case SpanKind::Visit:
    case SpanKind::LockWait:
    case SpanKind::UpdateRound:
    case SpanKind::CommitFanout:
    case SpanKind::QuorumWin:
    case SpanKind::Retry:
    case SpanKind::Backoff:
    case SpanKind::Requeue:
    case SpanKind::Abort:
      return true;
    default:
      return false;
  }
}

bool instant_kind(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::QuorumWin:
    case SpanKind::Retry:
    case SpanKind::Backoff:
    case SpanKind::Requeue:
    case SpanKind::Abort:
    case SpanKind::AntiEntropy:
    case SpanKind::NetDrop:
    case SpanKind::NetRetransmit:
      return true;
    default:
      return false;
  }
}

Tracer::Tracer(sim::Simulator& simulator, std::size_t capacity)
    : sim_(simulator), capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

std::vector<SpanRecord> Tracer::records() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<SpanRecord> Tracer::open_records() const {
  std::vector<SpanRecord> out;
  out.reserve(open_.size());
  for (const auto& [key, record] : open_) out.push_back(record);
  return out;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  unmatched_ends_ = 0;
  open_.clear();
}

void Tracer::push(SpanRecord record) {
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
    return;
  }
  ring_[head_] = record;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void Tracer::begin(const OpenKey& key, const SpanRecord& record) {
  // First begin wins: a second begin for the same key (e.g. a refresh()
  // re-appending an already-queued agent) keeps the original start time.
  open_.emplace(key, record);
}

void Tracer::end(const OpenKey& key, std::uint64_t aux2) {
  const auto it = open_.find(key);
  if (it == open_.end()) {
    ++unmatched_ends_;
    return;
  }
  SpanRecord record = it->second;
  open_.erase(it);
  record.end_us = now_us();
  record.aux2 = aux2;
  push(record);
}

template <typename Pred>
void Tracer::end_matching(Pred pred, std::uint64_t aux2) {
  const std::int64_t now = now_us();
  for (auto it = open_.begin(); it != open_.end();) {
    if (pred(it->first)) {
      SpanRecord record = it->second;
      record.end_us = now;
      record.aux2 = aux2;
      push(record);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

void Tracer::mark(SpanKind kind, net::NodeId node, const agent::AgentId& agent,
                  std::uint64_t aux, std::uint64_t aux2) {
  const std::int64_t now = now_us();
  push(SpanRecord{now, now, kind, node, agent, aux, aux2});
}

// ---- PlatformObserver ----

void Tracer::on_agent_created(const agent::AgentId& id, const std::string& type,
                              net::NodeId at) {
  (void)type;
  if (!enabled_) return;
  begin({SpanKind::Session, id},
        SpanRecord{now_us(), 0, SpanKind::Session, at, id, 0, 0});
}

void Tracer::on_agent_disposed(const agent::AgentId& id, net::NodeId at) {
  (void)at;
  if (!enabled_) return;
  // Sweep the agent's whole track: phases the explicit hooks did not close
  // (a fire-and-forget CommitFanout, a Visit cut short by abort) end at the
  // instant the agent ceased to exist. Server-side LockListWait spans stay
  // open on purpose — remote servers sweep those entries later.
  end_matching([&](const OpenKey& key) {
    return key.agent == id && agent_track(key.kind) && key.kind != SpanKind::Session;
  });
  end({SpanKind::Session, id});
}

void Tracer::on_migration_started(const agent::AgentId& id, net::NodeId from,
                                  net::NodeId to, std::size_t bytes) {
  (void)bytes;
  if (!enabled_) return;
  begin({SpanKind::Migration, id},
        SpanRecord{now_us(), 0, SpanKind::Migration, to, id, from, 0});
}

void Tracer::on_migration_completed(const agent::AgentId& id, net::NodeId at) {
  (void)at;
  if (!enabled_) return;
  end({SpanKind::Migration, id}, /*aux2=*/0);
}

void Tracer::on_migration_failed(const agent::AgentId& id, net::NodeId from,
                                 net::NodeId to) {
  (void)from, (void)to;
  if (!enabled_) return;
  end({SpanKind::Migration, id}, /*aux2=*/1);
}

// ---- NetworkObserver ----

void Tracer::on_message_dropped(const net::Message& message,
                                net::DropReason reason) {
  if (!enabled_) return;
  // Drawn on the destination's track (that is where the silence is felt),
  // except sender-side drops, which never left the source.
  const bool at_source = reason == net::DropReason::SourceDown ||
                         reason == net::DropReason::LinkCut;
  mark(SpanKind::NetDrop, at_source ? message.src : message.dst, {},
       message.type, static_cast<std::uint64_t>(reason));
}

void Tracer::on_transport_retransmit(const net::Message& message) {
  if (!enabled_) return;
  mark(SpanKind::NetRetransmit, message.src, {}, message.type);
}

// ---- MARP hooks ----

void Tracer::visit_begin(const agent::AgentId& id, net::NodeId at) {
  if (!enabled_) return;
  begin({SpanKind::Visit, id},
        SpanRecord{now_us(), 0, SpanKind::Visit, at, id, 0, 0});
}

void Tracer::visit_end(const agent::AgentId& id) {
  if (!enabled_) return;
  end({SpanKind::Visit, id});
}

void Tracer::wait_begin(const agent::AgentId& id, net::NodeId at) {
  if (!enabled_) return;
  begin({SpanKind::LockWait, id},
        SpanRecord{now_us(), 0, SpanKind::LockWait, at, id, 0, 0});
}

void Tracer::wait_end(const agent::AgentId& id) {
  if (!enabled_) return;
  if (!open_.contains({SpanKind::LockWait, id})) return;  // not parked: no-op
  end({SpanKind::LockWait, id});
}

void Tracer::update_round_begin(const agent::AgentId& id, net::NodeId at,
                                std::uint32_t attempt) {
  if (!enabled_) return;
  begin({SpanKind::UpdateRound, id},
        SpanRecord{now_us(), 0, SpanKind::UpdateRound, at, id, attempt, 0});
}

void Tracer::update_round_end(const agent::AgentId& id, std::uint64_t outcome) {
  if (!enabled_) return;
  end({SpanKind::UpdateRound, id}, outcome);
}

void Tracer::quorum_win(const agent::AgentId& id, net::NodeId at) {
  if (!enabled_) return;
  mark(SpanKind::QuorumWin, at, id);
}

void Tracer::commit_fanout_begin(const agent::AgentId& id, net::NodeId at,
                                 bool commit) {
  if (!enabled_) return;
  begin({SpanKind::CommitFanout, id},
        SpanRecord{now_us(), 0, SpanKind::CommitFanout, at, id,
                   commit ? 0u : 1u, 0});
}

void Tracer::commit_fanout_end(const agent::AgentId& id) {
  if (!enabled_) return;
  if (!open_.contains({SpanKind::CommitFanout, id})) return;
  end({SpanKind::CommitFanout, id});
}

void Tracer::retry(const agent::AgentId& id, net::NodeId at,
                   std::uint64_t channel) {
  if (!enabled_) return;
  mark(SpanKind::Retry, at, id, channel);
}

void Tracer::backoff(const agent::AgentId& id, net::NodeId at,
                     std::int64_t delay_us) {
  if (!enabled_) return;
  mark(SpanKind::Backoff, at, id, static_cast<std::uint64_t>(delay_us));
}

void Tracer::requeue(const agent::AgentId& id, net::NodeId at) {
  if (!enabled_) return;
  mark(SpanKind::Requeue, at, id);
}

void Tracer::abort_mark(const agent::AgentId& id, net::NodeId at) {
  if (!enabled_) return;
  mark(SpanKind::Abort, at, id);
}

void Tracer::batch_open(net::NodeId node) {
  if (!enabled_) return;
  begin({SpanKind::BatchWait, {}, node},
        SpanRecord{now_us(), 0, SpanKind::BatchWait, node, {}, 0, 0});
}

void Tracer::batch_dispatch(net::NodeId node, std::size_t batch_size) {
  if (!enabled_) return;
  const auto it = open_.find({SpanKind::BatchWait, {}, node});
  if (it != open_.end()) it->second.aux = batch_size;
  end({SpanKind::BatchWait, {}, node});
}

void Tracer::ll_enqueue(const agent::AgentId& id, net::NodeId node,
                        std::uint64_t group) {
  if (!enabled_) return;
  begin({SpanKind::LockListWait, id, node, group},
        SpanRecord{now_us(), 0, SpanKind::LockListWait, node, id, group, 0});
}

void Tracer::ll_remove_all(const agent::AgentId& id, net::NodeId node) {
  if (!enabled_) return;
  end_matching([&](const OpenKey& key) {
    return key.kind == SpanKind::LockListWait && key.agent == id &&
           key.node == node;
  });
}

void Tracer::node_reset(net::NodeId node) {
  if (!enabled_) return;
  end_matching([&](const OpenKey& key) {
    return (key.kind == SpanKind::LockListWait ||
            key.kind == SpanKind::BatchWait) &&
           key.node == node;
  });
}

void Tracer::anti_entropy(net::NodeId node) {
  if (!enabled_) return;
  mark(SpanKind::AntiEntropy, node, {});
}

}  // namespace marp::trace
