// Wire formats for MARP's coordination messages (Algorithm 1/2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agent/agent_id.hpp"
#include "membership/view.hpp"
#include "net/message.hpp"
#include "replica/versioned_store.hpp"
#include "serial/byte_buffer.hpp"
#include "shard/router.hpp"

namespace marp::core {

namespace wire_detail {
/// A list of small unsigned ids (servers, lock groups): a count, then one
/// varint per id.
template <typename Id>
void write_ids(serial::Writer& w, const std::vector<Id>& ids) {
  w.seq(ids, [](serial::Writer& ww, Id id) { ww.varint(id); });
}
template <typename Id>
std::vector<Id> read_ids(serial::Reader& r) {
  return r.seq<Id>([](serial::Reader& rr) { return static_cast<Id>(rr.varint()); });
}
}  // namespace wire_detail

// Message types (application channel, except Ack which rides the agent
// envelope back to the waiting agent).
constexpr net::MessageType kMsgUpdate = 0x0501;  ///< winner → all servers
constexpr net::MessageType kMsgAck = 0x0502;     ///< server → winning agent
constexpr net::MessageType kMsgCommit = 0x0503;  ///< winner → all servers
constexpr net::MessageType kMsgRelease = 0x0504; ///< aborting agent → servers
constexpr net::MessageType kMsgReport = 0x0505;  ///< winner → origin server
/// Server → claiming agent: another update session already holds this
/// server's ack; carries the holder's id so the loser can defer to it.
constexpr net::MessageType kMsgNack = 0x0506;
/// Demoted claimant → servers: release the ack-grant (keep my LL entry).
constexpr net::MessageType kMsgUnlock = 0x0507;
/// Read agent → origin server: result of a quorum read.
constexpr net::MessageType kMsgReadReport = 0x0509;
/// Recovering server → live peer: send me your store (recovery sync).
constexpr net::MessageType kMsgSyncReq = 0x050A;
/// Live peer → recovering server: full store dump.
constexpr net::MessageType kMsgSyncRep = 0x050B;
/// Server → committing agent: COMMIT applied here. The agent retransmits
/// COMMIT to servers that have not acknowledged, so a commit is never
/// half-applied under message loss (crashed servers catch up via recovery
/// sync / anti-entropy instead).
constexpr net::MessageType kMsgCommitAck = 0x050C;
/// Origin server → reporting agent: REPORT received (stops report
/// retransmission; duplicates are deduplicated at the origin).
constexpr net::MessageType kMsgReportAck = 0x050D;
/// View-change coordinator → members of old ∪ new view: adopt this pending
/// view (phase 1 of a membership change).
constexpr net::MessageType kMsgViewPropose = 0x050E;
/// Member → coordinator: pending view stored (phase-1 acknowledgement).
constexpr net::MessageType kMsgViewAck = 0x050F;
/// Coordinator → members of old ∪ new view: the proposal gathered a write
/// quorum of the old view — install it (phase 2, the epoch bump).
constexpr net::MessageType kMsgViewActivate = 0x0510;
/// Server → a session agent that used a stale epoch: here is the current
/// view; abort-and-re-tour under it.
constexpr net::MessageType kMsgEpochNotice = 0x0511;

/// Host-local signal raised when a locking list shrinks (commit/release/
/// purge) so waiting agents re-evaluate their priority.
constexpr std::uint32_t kSignalLockChanged = 1;

struct WriteOp {
  std::string key;
  std::string value;
  replica::Version version;

  void serialize(serial::Writer& w) const {
    w.str(key);
    w.str(value);
    version.serialize(w);
  }
  static WriteOp deserialize(serial::Reader& r) {
    WriteOp op;
    op.key = r.str();
    op.value = r.str();
    op.version = replica::Version::deserialize(r);
    return op;
  }
};

/// UPDATE: stage these writes, take the grants of `groups`, and acknowledge
/// to the agent at `reply_to`. `attempt` sequences the agent's update
/// attempts so stale ACK/NACKs from a withdrawn attempt cannot confuse a
/// newer one. `groups` is the write-set's lock-group set, ascending; empty
/// means the degenerate single-group space {0}.
struct UpdatePayload {
  agent::AgentId agent;
  net::NodeId reply_to = 0;
  std::uint32_t attempt = 0;
  std::vector<WriteOp> ops;
  std::vector<shard::GroupId> groups;
  /// Membership epoch the session was born under; 0 = static membership.
  /// Trailing-optional on the wire: written only when non-zero, so the
  /// disabled path stays byte-identical to the seed format.
  std::uint64_t epoch = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    agent.serialize(w);
    w.varint(reply_to);
    w.varint(attempt);
    w.seq(ops, [](serial::Writer& ww, const WriteOp& op) { op.serialize(ww); });
    wire_detail::write_ids(w, groups);
    if (epoch != 0) w.varint(epoch);
    return w.take();
  }
  static UpdatePayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    UpdatePayload p;
    p.agent = agent::AgentId::deserialize(r);
    p.reply_to = static_cast<net::NodeId>(r.varint());
    p.attempt = static_cast<std::uint32_t>(r.varint());
    p.ops = r.seq<WriteOp>([](serial::Reader& rr) { return WriteOp::deserialize(rr); });
    p.groups = wire_detail::read_ids<shard::GroupId>(r);
    if (!r.at_end()) p.epoch = r.varint();
    return p;
  }
};

/// ACK: `server` staged the winner's update (for attempt `attempt`).
/// `applied_high` is the highest version the server has applied so far; the
/// winner must stamp its writes above the max over its quorum's ACKs. The
/// grant is exclusive from ACK until commit, so any predecessor's commit at
/// a shared quorum member happens-before that member's ACK — intersection
/// then makes the floor cover every predecessor, for any quorum geometry.
/// (Version floors from the tour alone are not enough: a visit snapshot can
/// predate a concurrent session's commit that lands before this grant.)
struct AckPayload {
  net::NodeId server = 0;
  std::uint32_t attempt = 0;
  replica::Version applied_high;
  /// Granting server's membership epoch (trailing-optional, like
  /// UpdatePayload::epoch). The winner discards ACKs whose epoch differs
  /// from its own, so no quorum can mix grants from two views.
  std::uint64_t epoch = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(server);
    w.varint(attempt);
    applied_high.serialize(w);
    if (epoch != 0) w.varint(epoch);
    return w.take();
  }
  static AckPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    AckPayload p;
    p.server = static_cast<net::NodeId>(r.varint());
    p.attempt = static_cast<std::uint32_t>(r.varint());
    p.applied_high = replica::Version::deserialize(r);
    if (!r.at_end()) p.epoch = r.varint();
    return p;
  }
};

/// COMMIT: apply the writes, drop the winner's locks in `groups`, record it
/// in the UL. Carries the ops so a server that missed the UPDATE still
/// converges. Empty `groups` means "sweep every group" (degenerate /
/// compatibility path). Delivery is idempotent: a duplicated or reordered
/// COMMIT re-applies under the Thomas write rule (no double version bump)
/// and is counted as a protocol anomaly. `reply_to` names the node hosting
/// the committing agent so receivers can acknowledge (kMsgCommitAck);
/// kInvalidNode suppresses the ack (legacy senders/tests).
struct CommitPayload {
  agent::AgentId agent;
  std::vector<WriteOp> ops;
  std::vector<shard::GroupId> groups;
  net::NodeId reply_to = net::kInvalidNode;
  /// Epoch the committed session ran under (trailing-optional). COMMIT is
  /// *not* epoch-fenced — data application follows the Thomas write rule
  /// regardless of view, so convergence survives reconfiguration — the
  /// stamp exists for the audit trail and the commit-log oracle.
  std::uint64_t epoch = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    agent.serialize(w);
    w.seq(ops, [](serial::Writer& ww, const WriteOp& op) { op.serialize(ww); });
    wire_detail::write_ids(w, groups);
    w.varint(reply_to);
    if (epoch != 0) w.varint(epoch);
    return w.take();
  }
  static CommitPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    CommitPayload p;
    p.agent = agent::AgentId::deserialize(r);
    p.ops = r.seq<WriteOp>([](serial::Reader& rr) { return WriteOp::deserialize(rr); });
    p.groups = wire_detail::read_ids<shard::GroupId>(r);
    p.reply_to = static_cast<net::NodeId>(r.varint());
    if (!r.at_end()) p.epoch = r.varint();
    return p;
  }
};

/// COMMIT-ACK: `server` has applied (or already had) the agent's commit.
struct CommitAckPayload {
  net::NodeId server = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(server);
    return w.take();
  }
  static CommitAckPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    CommitAckPayload p;
    p.server = static_cast<net::NodeId>(r.varint());
    return p;
  }
};

/// UNLOCK: a demoted claimant returns the grants of a specific attempt.
/// Carrying the attempt lets servers reject UPDATEs reordered after their
/// own withdrawal (a delayed UPDATE must not resurrect a dead grant).
struct UnlockPayload {
  agent::AgentId agent;
  std::uint32_t attempt = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    agent.serialize(w);
    w.varint(attempt);
    return w.take();
  }
  static UnlockPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    UnlockPayload p;
    p.agent = agent::AgentId::deserialize(r);
    p.attempt = static_cast<std::uint32_t>(r.varint());
    return p;
  }
};

/// RELEASE: an aborting agent withdraws its lock requests from `groups`
/// (every group when empty).
struct ReleasePayload {
  agent::AgentId agent;
  std::vector<shard::GroupId> groups;
  /// Node hosting the releasing agent; valid only when the sender wants an
  /// ack (kMsgCommitAck) so it can stop retransmitting. A RELEASE lost on
  /// the wire is otherwise fatal: the dead entry stays at the head of the
  /// Locking List forever and wedges the server.
  net::NodeId reply_to = net::kInvalidNode;

  serial::Bytes encode() const {
    serial::Writer w;
    agent.serialize(w);
    wire_detail::write_ids(w, groups);
    w.varint(reply_to);
    return w.take();
  }
  static ReleasePayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    ReleasePayload p;
    p.agent = agent::AgentId::deserialize(r);
    p.groups = wire_detail::read_ids<shard::GroupId>(r);
    p.reply_to = static_cast<net::NodeId>(r.varint());
    return p;
  }
};

/// NACK: the grant of lock group `group` at this server is held by
/// `holder` — the first conflicting group in ascending order.
struct NackPayload {
  net::NodeId server = 0;
  std::uint32_t attempt = 0;
  agent::AgentId holder;
  shard::GroupId group = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(server);
    w.varint(attempt);
    holder.serialize(w);
    w.varint(group);
    return w.take();
  }
  static NackPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    NackPayload p;
    p.server = static_cast<net::NodeId>(r.varint());
    p.attempt = static_cast<std::uint32_t>(r.varint());
    p.holder = agent::AgentId::deserialize(r);
    p.group = static_cast<shard::GroupId>(r.varint());
    return p;
  }
};

/// REPORT: the agent tells its origin server how its batch fared.
struct ReportPayload {
  agent::AgentId agent;
  std::vector<std::uint64_t> request_ids;
  bool success = false;
  std::int64_t dispatched_us = 0;
  std::int64_t lock_obtained_us = 0;
  std::int64_t committed_us = 0;
  std::uint32_t servers_visited = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    agent.serialize(w);
    w.seq(request_ids, [](serial::Writer& ww, std::uint64_t id) { ww.varint(id); });
    w.boolean(success);
    w.svarint(dispatched_us);
    w.svarint(lock_obtained_us);
    w.svarint(committed_us);
    w.varint(servers_visited);
    return w.take();
  }
  static ReportPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    ReportPayload p;
    p.agent = agent::AgentId::deserialize(r);
    p.request_ids =
        r.seq<std::uint64_t>([](serial::Reader& rr) { return rr.varint(); });
    p.success = r.boolean();
    p.dispatched_us = r.svarint();
    p.lock_obtained_us = r.svarint();
    p.committed_us = r.svarint();
    p.servers_visited = static_cast<std::uint32_t>(r.varint());
    return p;
  }
};

/// READ-REPORT: outcome of a quorum read (freshest copy seen by the quorum).
struct ReadReportPayload {
  std::uint64_t request_id = 0;
  bool success = false;
  std::string value;
  replica::Version version;
  std::uint32_t servers_visited = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(request_id);
    w.boolean(success);
    w.str(value);
    version.serialize(w);
    w.varint(servers_visited);
    return w.take();
  }
  static ReadReportPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    ReadReportPayload p;
    p.request_id = r.varint();
    p.success = r.boolean();
    p.value = r.str();
    p.version = replica::Version::deserialize(r);
    p.servers_visited = static_cast<std::uint32_t>(r.varint());
    return p;
  }
};

/// SYNC-REP: full store transfer to a recovering replica.
struct SyncPayload {
  struct Item {
    std::string key;
    std::string value;
    replica::Version version;
  };
  std::vector<Item> items;

  serial::Bytes encode() const {
    serial::Writer w;
    w.seq(items, [](serial::Writer& ww, const Item& item) {
      ww.str(item.key);
      ww.str(item.value);
      item.version.serialize(ww);
    });
    return w.take();
  }
  static SyncPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    SyncPayload p;
    p.items = r.seq<Item>([](serial::Reader& rr) {
      Item item;
      item.key = rr.str();
      item.value = rr.str();
      item.version = replica::Version::deserialize(rr);
      return item;
    });
    return p;
  }
};

/// VIEW-PROPOSE: phase 1 of a membership change. `coordinator` asks the
/// members of old ∪ new view to stage `view` as pending.
struct ViewProposePayload {
  net::NodeId coordinator = net::kInvalidNode;
  membership::MembershipView view;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(coordinator);
    view.serialize(w);
    return w.take();
  }
  static ViewProposePayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    ViewProposePayload p;
    p.coordinator = static_cast<net::NodeId>(r.varint());
    p.view = membership::MembershipView::deserialize(r);
    return p;
  }
};

/// VIEW-ACK: `server` staged the pending view of `epoch`.
struct ViewAckPayload {
  net::NodeId server = 0;
  std::uint64_t epoch = 0;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(server);
    w.varint(epoch);
    return w.take();
  }
  static ViewAckPayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    ViewAckPayload p;
    p.server = static_cast<net::NodeId>(r.varint());
    p.epoch = r.varint();
    return p;
  }
};

/// VIEW-ACTIVATE: phase 2 — install `view` (the epoch bump). Carries the
/// full view again so a member that missed the proposal still converges.
struct ViewActivatePayload {
  membership::MembershipView view;

  serial::Bytes encode() const {
    serial::Writer w;
    view.serialize(w);
    return w.take();
  }
  static ViewActivatePayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    ViewActivatePayload p;
    p.view = membership::MembershipView::deserialize(r);
    return p;
  }
};

/// EPOCH-NOTICE: a server refused a stale-epoch UPDATE; here is its current
/// view so the session can abort-and-re-tour under it without revisiting.
struct EpochNoticePayload {
  net::NodeId server = 0;
  membership::MembershipView view;

  serial::Bytes encode() const {
    serial::Writer w;
    w.varint(server);
    view.serialize(w);
    return w.take();
  }
  static EpochNoticePayload decode(const serial::Bytes& bytes) {
    serial::Reader r(bytes);
    EpochNoticePayload p;
    p.server = static_cast<net::NodeId>(r.varint());
    p.view = membership::MembershipView::deserialize(r);
    return p;
  }
};

}  // namespace marp::core
