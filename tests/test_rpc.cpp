// RPC framing and marshalling tests: the wire boundary of the real
// transport. Property suites round-trip every MARP coordination payload and
// a serialized UpdateAgent through the frame codec; the rejection suites
// prove truncated and corrupted frames die at the boundary (typed statuses,
// no exceptions) before any payload bytes reach the deserializers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "agent/platform.hpp"
#include "marp/protocol.hpp"
#include "marp/read_agent.hpp"
#include "marp/update_agent.hpp"
#include "marp/wire.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "rpc/control.hpp"
#include "rpc/frame.hpp"
#include "sim/simulator.hpp"

namespace marp::rpc {
namespace {

using Rng = std::mt19937_64;

std::string random_string(Rng& rng, std::size_t max_len = 12) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<int> ch(' ', '~');
  std::string s(len(rng), '\0');
  for (char& c : s) c = static_cast<char>(ch(rng));
  return s;
}

serial::Bytes random_bytes(Rng& rng, std::size_t max_len = 64) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<int> byte(0, 255);
  serial::Bytes b(len(rng));
  for (auto& v : b) v = static_cast<std::uint8_t>(byte(rng));
  return b;
}

replica::Version random_version(Rng& rng) {
  replica::Version v;
  v.time_us = static_cast<std::int64_t>(rng() % 1'000'000);
  v.writer = static_cast<std::uint32_t>(rng() % 16);
  return v;
}

agent::AgentId random_agent_id(Rng& rng) {
  agent::AgentId id;
  id.origin = static_cast<net::NodeId>(rng() % 8);
  id.created_us = static_cast<std::int64_t>(rng() % 1'000'000);
  id.seq = static_cast<std::uint32_t>(rng() % 100);
  return id;
}

std::vector<core::WriteOp> random_ops(Rng& rng) {
  std::uniform_int_distribution<std::size_t> count(0, 5);
  std::vector<core::WriteOp> ops(count(rng));
  for (auto& op : ops) {
    op.key = random_string(rng);
    op.value = random_string(rng);
    op.version = random_version(rng);
  }
  return ops;
}

std::vector<shard::GroupId> random_groups(Rng& rng) {
  std::uniform_int_distribution<std::size_t> count(0, 4);
  std::vector<shard::GroupId> groups(count(rng));
  shard::GroupId next = 0;
  for (auto& g : groups) g = next += static_cast<shard::GroupId>(rng() % 3 + 1);
  return groups;
}

/// The round-trip property every payload must satisfy: decode(encode(p))
/// re-encodes to the identical byte string, and every strict prefix of the
/// encoding is rejected with a typed DecodeError (varint continuation bits
/// and length prefixes make all truncations detectable).
template <typename Payload>
void check_payload_roundtrip(const Payload& p) {
  const serial::Bytes bytes = p.encode();
  const Payload decoded = Payload::decode(bytes);
  EXPECT_EQ(decoded.encode(), bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const serial::Bytes prefix(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(Payload::decode(prefix), serial::DecodeError)
        << "prefix of " << cut << "/" << bytes.size() << " bytes accepted";
  }
}

// ---- FNV-1a-64 ----

TEST(Fnv1a64, KnownVectors) {
  const auto hash = [](const char* s) {
    return fnv1a64(reinterpret_cast<const std::uint8_t*>(s), std::strlen(s));
  };
  EXPECT_EQ(fnv1a64(nullptr, 0), 0xCBF29CE484222325ull);
  EXPECT_EQ(hash("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(hash("foobar"), 0x85944171F73967E8ull);
}

TEST(Fnv1a64, SensitiveToEveryByte) {
  serial::Bytes data(32, 0xAB);
  const std::uint64_t base = fnv1a64(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(fnv1a64(data.data(), data.size()), base) << "byte " << i;
    data[i] ^= 0x01;
  }
}

// ---- frame codec ----

TEST(Frame, RoundTripsHeaderAndBody) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const serial::Bytes body = random_bytes(rng);
    const auto src = static_cast<net::NodeId>(rng() % 8);
    const auto dst = static_cast<net::NodeId>(rng() % 8);
    const std::uint64_t seq = rng();
    const serial::Bytes wire =
        encode_frame(FrameType::AppMessage, src, dst, seq, body);
    ASSERT_EQ(wire.size(), kHeaderSize + body.size());

    Frame frame;
    ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
    EXPECT_EQ(frame.type(), FrameType::AppMessage);
    EXPECT_EQ(frame.header.src, src);
    EXPECT_EQ(frame.header.dst, dst);
    EXPECT_EQ(frame.header.seq, seq);
    EXPECT_EQ(frame.body, body);
    EXPECT_NE(frame.header.flags & kFlagChecksum, 0);
  }
}

TEST(Frame, EveryTruncationIsRejected) {
  const serial::Bytes body = {1, 2, 3, 4, 5, 6, 7, 8};
  const serial::Bytes wire = encode_frame(FrameType::AgentTransfer, 1, 2, 3, body);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const serial::Bytes prefix(wire.begin(),
                               wire.begin() + static_cast<std::ptrdiff_t>(cut));
    Frame frame;
    EXPECT_EQ(decode_frame(prefix, &frame), DecodeStatus::Truncated)
        << "at " << cut << "/" << wire.size();
  }
}

TEST(Frame, CorruptedBodyFailsChecksum) {
  Rng rng(11);
  const serial::Bytes body = random_bytes(rng, 48);
  serial::Bytes wire = encode_frame(FrameType::AppMessage, 0, 1, 1, body);
  // Flip each body byte in turn: every single-bit-of-a-byte corruption must
  // be caught by the FNV checksum.
  for (std::size_t i = kHeaderSize; i < wire.size(); ++i) {
    wire[i] ^= 0x40;
    Frame frame;
    EXPECT_EQ(decode_frame(wire, &frame), DecodeStatus::ChecksumMismatch)
        << "body byte " << (i - kHeaderSize);
    wire[i] ^= 0x40;
  }
  Frame frame;
  EXPECT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);  // restored
}

TEST(Frame, NoChecksumFlagSkipsVerification) {
  const serial::Bytes body = {9, 9, 9, 9};
  serial::Bytes wire =
      encode_frame(FrameType::AppMessage, 0, 1, 1, body, /*with_checksum=*/false);
  wire[kHeaderSize] ^= 0xFF;  // corrupt: nothing to catch it
  Frame frame;
  ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
  EXPECT_EQ(frame.header.flags & kFlagChecksum, 0);
  EXPECT_NE(frame.body, body);
}

TEST(Frame, BadMagicVersionAndLengthAreTyped) {
  const serial::Bytes wire = encode_frame(FrameType::ControlRequest, 1, 2, 3, {1, 2});
  FrameHeader header;

  serial::Bytes bad = wire;
  bad[0] ^= 0xFF;  // magic, offset 0
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header), DecodeStatus::BadMagic);

  bad = wire;
  bad[4] ^= 0xFF;  // version, offset 4
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header), DecodeStatus::BadVersion);

  bad = wire;
  const std::uint32_t huge = kMaxBodyLen + 1;  // body_len, offset 28 (LE)
  std::memcpy(bad.data() + 28, &huge, sizeof(huge));
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header), DecodeStatus::BadLength);
}

TEST(Frame, AppBodyRoundTripsMessages) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    net::Message message;
    message.src = static_cast<net::NodeId>(rng() % 8);
    message.dst = static_cast<net::NodeId>(rng() % 8);
    message.type = static_cast<net::MessageType>(rng());
    message.payload = random_bytes(rng);

    const serial::Bytes body = encode_app_body(message);
    const serial::Bytes wire = encode_frame(FrameType::AppMessage, message.src,
                                            message.dst, 1, body);
    Frame frame;
    ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
    const net::Message out = decode_app_body(frame.header, frame.body);
    EXPECT_EQ(out.src, message.src);
    EXPECT_EQ(out.dst, message.dst);
    EXPECT_EQ(out.type, message.type);
    EXPECT_EQ(out.payload, message.payload);
  }
}

// ---- MARP wire payloads: one property suite per message ----

TEST(WirePayloads, UpdateRoundTrips) {
  Rng rng(1);
  for (int i = 0; i < 25; ++i) {
    core::UpdatePayload p;
    p.agent = random_agent_id(rng);
    p.reply_to = static_cast<net::NodeId>(rng() % 8);
    p.attempt = static_cast<std::uint32_t>(rng() % 1000);
    p.ops = random_ops(rng);
    p.groups = random_groups(rng);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, AckRoundTrips) {
  Rng rng(2);
  for (int i = 0; i < 25; ++i) {
    core::AckPayload p;
    p.server = static_cast<net::NodeId>(rng() % 8);
    p.attempt = static_cast<std::uint32_t>(rng() % 1000);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, CommitRoundTrips) {
  Rng rng(3);
  for (int i = 0; i < 25; ++i) {
    core::CommitPayload p;
    p.agent = random_agent_id(rng);
    p.ops = random_ops(rng);
    p.groups = random_groups(rng);
    p.reply_to = (rng() % 2) ? static_cast<net::NodeId>(rng() % 8) : net::kInvalidNode;
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, CommitAckRoundTrips) {
  Rng rng(4);
  for (int i = 0; i < 25; ++i) {
    core::CommitAckPayload p;
    p.server = static_cast<net::NodeId>(rng() % 8);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, UnlockRoundTrips) {
  Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    core::UnlockPayload p;
    p.agent = random_agent_id(rng);
    p.attempt = static_cast<std::uint32_t>(rng() % 1000);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, ReleaseRoundTrips) {
  Rng rng(6);
  for (int i = 0; i < 25; ++i) {
    core::ReleasePayload p;
    p.agent = random_agent_id(rng);
    p.groups = random_groups(rng);
    p.reply_to = (rng() % 2) ? static_cast<net::NodeId>(rng() % 8) : net::kInvalidNode;
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, NackRoundTrips) {
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    core::NackPayload p;
    p.server = static_cast<net::NodeId>(rng() % 8);
    p.attempt = static_cast<std::uint32_t>(rng() % 1000);
    p.holder = random_agent_id(rng);
    p.group = static_cast<shard::GroupId>(rng() % 16);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, ReportRoundTrips) {
  Rng rng(8);
  for (int i = 0; i < 25; ++i) {
    core::ReportPayload p;
    p.agent = random_agent_id(rng);
    std::uniform_int_distribution<std::size_t> count(0, 4);
    p.request_ids.resize(count(rng));
    for (auto& id : p.request_ids) id = rng();
    p.success = (rng() % 2) != 0;
    p.dispatched_us = static_cast<std::int64_t>(rng() % 1'000'000);
    p.lock_obtained_us = static_cast<std::int64_t>(rng() % 1'000'000);
    p.committed_us = static_cast<std::int64_t>(rng() % 1'000'000);
    p.servers_visited = static_cast<std::uint32_t>(rng() % 10);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, ReadReportRoundTrips) {
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    core::ReadReportPayload p;
    p.request_id = rng();
    p.success = (rng() % 2) != 0;
    p.value = random_string(rng);
    p.version = random_version(rng);
    p.servers_visited = static_cast<std::uint32_t>(rng() % 10);
    check_payload_roundtrip(p);
  }
}

TEST(WirePayloads, SyncRoundTrips) {
  Rng rng(10);
  for (int i = 0; i < 25; ++i) {
    core::SyncPayload p;
    std::uniform_int_distribution<std::size_t> count(0, 5);
    p.items.resize(count(rng));
    for (auto& item : p.items) {
      item.key = random_string(rng);
      item.value = random_string(rng);
      item.version = random_version(rng);
    }
    check_payload_roundtrip(p);
  }
}

// ---- control-plane marshalling ----

TEST(Control, ReqAndReplyHeadersRoundTrip) {
  ReqHeader req;
  req.xid = 0xDEADBEEFCAFEull;
  req.proc = static_cast<std::uint32_t>(Proc::Dump);
  req.client = kControlNode;
  serial::Writer w;
  req.serialize(w);
  const serial::Bytes bytes = w.take();
  serial::Reader r(bytes);
  const ReqHeader req2 = ReqHeader::deserialize(r);
  EXPECT_EQ(req2.xid, req.xid);
  EXPECT_EQ(req2.proc, req.proc);
  EXPECT_EQ(req2.client, req.client);

  ReplyHeader reply;
  reply.xid = req.xid;
  reply.status = kBadProc;
  serial::Writer w2;
  reply.serialize(w2);
  const serial::Bytes bytes2 = w2.take();
  serial::Reader r2(bytes2);
  const ReplyHeader reply2 = ReplyHeader::deserialize(r2);
  EXPECT_EQ(reply2.xid, reply.xid);
  EXPECT_EQ(reply2.status, kBadProc);
}

TEST(Control, NodeStatusAndDumpRoundTrip) {
  NodeDump d;
  d.status.sessions_target = 20;
  d.status.sessions_completed = 20;
  d.status.commits = 19;
  d.status.aborts = 1;
  d.status.live_agents = 0;
  d.status.quiesced = true;
  d.items = {{"n0/k0", "n0-s18", 0}, {"n1/k1", "n1-s19", 1}};
  d.history = {{"n0/k0", 0}, {"n1/k1", 1}, {"n0/k0", 0}};
  d.mutex_violations = 0;
  d.commit_retransmits = 3;
  d.report_retransmits = 1;
  d.release_retransmits = 2;
  d.anomalies_total = 6;
  d.frames_sent = 100;
  d.frames_received = 99;
  d.agent_frames_sent = 12;
  d.agent_frames_received = 11;
  d.loss_injected = 4;
  d.checksum_rejected = 1;
  d.malformed_rejected = 0;
  d.send_failures = 0;
  d.status.incarnation = 2;
  d.status.catching_up = true;
  d.agent_transfers_pending = 1;
  d.stale_incarnation_rejected = 5;
  d.checkpoint_epoch = 3;
  d.checkpoints_written = 2;
  d.journal_appends = 40;
  d.journal_records_replayed = 17;
  d.journal_tail_truncated = true;
  d.checkpoint_rejected = false;
  d.catchup_pulls = 4;
  d.catchup_merges = 3;
  d.session_retries = 1;
  d.agents_lease_purged = 2;

  serial::Writer w;
  d.serialize(w);
  const serial::Bytes bytes = w.take();
  serial::Reader r(bytes);
  const NodeDump d2 = NodeDump::deserialize(r);

  serial::Writer w2;
  d2.serialize(w2);
  EXPECT_EQ(w2.take(), bytes);
  EXPECT_EQ(d2.status.commits, 19u);
  EXPECT_TRUE(d2.status.quiesced);
  ASSERT_EQ(d2.items.size(), 2u);
  EXPECT_EQ(d2.items[1].value, "n1-s19");
  ASSERT_EQ(d2.history.size(), 3u);
  EXPECT_EQ(d2.history[2].writer, 0u);
  EXPECT_EQ(d2.commit_retransmits, 3u);
  EXPECT_EQ(d2.status.incarnation, 2u);
  EXPECT_TRUE(d2.status.catching_up);
  EXPECT_EQ(d2.agent_transfers_pending, 1u);
  EXPECT_EQ(d2.stale_incarnation_rejected, 5u);
  EXPECT_EQ(d2.journal_records_replayed, 17u);
  EXPECT_TRUE(d2.journal_tail_truncated);
  EXPECT_FALSE(d2.checkpoint_rejected);
  EXPECT_EQ(d2.agents_lease_purged, 2u);

  // Truncations die with typed errors, never buffer overreads.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const serial::Bytes prefix(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    serial::Reader rr(prefix);
    EXPECT_THROW(NodeDump::deserialize(rr), serial::DecodeError) << "cut " << cut;
  }
}

// ---- incarnation stamping + rejoin announcements (PR 7) ----

TEST(Frame, IncarnationRoundTripsInHeader) {
  const serial::Bytes body = {9, 8, 7};
  const serial::Bytes wire =
      encode_frame(FrameType::AppMessage, 3, 1, 42, body, true, 5);
  Frame frame;
  ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
  EXPECT_EQ(frame.header.incarnation, 5u);
  EXPECT_EQ(frame.body, body);
  // Default (pre-PR-7 call sites): first life, incarnation 0.
  const serial::Bytes old_wire = encode_frame(FrameType::AppMessage, 3, 1, 42, body);
  ASSERT_EQ(decode_frame(old_wire, &frame), DecodeStatus::Ok);
  EXPECT_EQ(frame.header.incarnation, 0u);
}

TEST(Announce, BodyRoundTrips) {
  const serial::Bytes body = encode_announce_body({4, 3});
  const AnnounceBody announce = decode_announce_body(body);
  EXPECT_EQ(announce.node, 4u);
  EXPECT_EQ(announce.incarnation, 3u);
}

TEST(Announce, TruncationAndTrailingBytesAreRejected) {
  serial::Bytes body = encode_announce_body({7, 2});
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const serial::Bytes prefix(body.begin(),
                               body.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_announce_body(prefix), serial::DecodeError) << "cut " << cut;
  }
  body.push_back(0);
  EXPECT_THROW(decode_announce_body(body), serial::DecodeError);
}

TEST(Control, HeartbeatReplyRoundTrips) {
  HeartbeatReply beat;
  beat.incarnation = 2;
  beat.sessions_completed = 17;
  beat.live_agents = 1;
  beat.quiesced = false;
  serial::Writer w;
  beat.serialize(w);
  const serial::Bytes bytes = w.take();
  serial::Reader r(bytes);
  const HeartbeatReply beat2 = HeartbeatReply::deserialize(r);
  EXPECT_EQ(beat2.incarnation, 2u);
  EXPECT_EQ(beat2.sessions_completed, 17u);
  EXPECT_EQ(beat2.live_agents, 1u);
  EXPECT_FALSE(beat2.quiesced);
}

// ---- serialized UpdateAgent state over the wire ----

TEST(AgentTransfer, UpdateAgentStateSurvivesTheWire) {
  // The exact path a migrating agent takes on the real substrate:
  // platform::encode_frame → rpc AgentTransfer frame → decode_frame →
  // platform::decode_frame. The rehydrated agent must re-encode to the
  // identical migration frame.
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(5, sim::SimTime::micros(500)),
                       std::make_unique<net::ConstantLatency>(sim::SimTime::micros(500)));
  agent::AgentPlatform platform(network);
  core::MarpProtocol protocol(network, platform, core::MarpConfig{});  // registers types

  core::UpdateAgent agent(2, {{42, "k/a", "va"}, {43, "k/b", "vb"}});
  const serial::Bytes migration_frame = platform.encode_frame(agent);

  const serial::Bytes wire =
      encode_frame(FrameType::AgentTransfer, 2, 4, 17, migration_frame);
  Frame frame;
  ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
  ASSERT_EQ(frame.type(), FrameType::AgentTransfer);

  const std::unique_ptr<agent::MobileAgent> rehydrated =
      platform.decode_frame(frame.body);
  ASSERT_NE(rehydrated, nullptr);
  EXPECT_EQ(rehydrated->type_name(), core::kUpdateAgentType);
  EXPECT_EQ(platform.encode_frame(*rehydrated), migration_frame);
}

TEST(AgentTransfer, TruncatedMigrationFramesAreRejected) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(3, sim::SimTime::micros(500)),
                       std::make_unique<net::ConstantLatency>(sim::SimTime::micros(500)));
  agent::AgentPlatform platform(network);
  core::MarpProtocol protocol(network, platform, core::MarpConfig{});

  core::UpdateAgent agent(1, {{7, "key", "value"}});
  const serial::Bytes frame = platform.encode_frame(agent);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const serial::Bytes prefix(frame.begin(),
                               frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(platform.decode_frame(prefix), serial::DecodeError)
        << "cut " << cut << "/" << frame.size();
  }
}

TEST(AgentTransfer, HugeNodeListCountsAreDecodeErrors) {
  // A corrupt count must be rejected before anything is reserved for it:
  // 2^40 node ids is a 4 TiB reservation (std::bad_alloc) and 2^62 more
  // than a vector can hold (std::length_error). Neither is a DecodeError,
  // so a node's frame handler would let either escape and end the node.
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(3, sim::SimTime::micros(500)),
                       std::make_unique<net::ConstantLatency>(sim::SimTime::micros(500)));
  agent::AgentPlatform platform(network);
  core::MarpProtocol protocol(network, platform, core::MarpConfig{});

  // Each agent type's state up to its USL (un-visited servers list) count.
  const auto update_prefix = [](serial::Writer& w) {
    w.varint(1);   // origin
    w.varint(0);   // no pending writes
    w.u8(0);       // phase
    w.svarint(0);  // dispatched
    w.svarint(0);  // lock obtained
  };
  const auto read_prefix = [](serial::Writer& w) {
    w.varint(1);  // origin
    w.varint(7);  // request id
    w.str("key");
    w.varint(2);  // votes needed
    w.varint(0);  // votes gathered
    w.str("");    // best value
    replica::Version{}.serialize(w);
  };
  using Prefix = void (*)(serial::Writer&);
  for (const std::uint64_t count : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    for (const auto& [type, prefix] : {std::pair<const char*, Prefix>{core::kUpdateAgentType, update_prefix},
                                       std::pair<const char*, Prefix>{core::kReadAgentType, read_prefix}}) {
      serial::Writer state;
      prefix(state);
      state.varint(count);
      for (int i = 0; i < 16; ++i) state.varint(1);  // a few node ids follow
      serial::Writer frame;
      frame.str(type);
      agent::AgentId{1, 5, 0}.serialize(frame);
      frame.raw(state.bytes());
      EXPECT_THROW(platform.decode_frame(frame.bytes()), serial::DecodeError)
          << type << " with a USL count of " << count;
    }
  }
}

// ---- token-wrapped transfer bodies and their acks ----

TEST(AgentTransfer, TransferBodyRoundTripsTokenAndFrame) {
  const serial::Bytes frame = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  const serial::Bytes body = encode_transfer_body(0x1122334455667788ull, frame);
  const TransferBody back = decode_transfer_body(body);
  EXPECT_EQ(back.token, 0x1122334455667788ull);
  EXPECT_EQ(back.frame, frame);

  // An empty agent frame is legal at this layer (rehydration rejects it).
  const TransferBody empty = decode_transfer_body(encode_transfer_body(9, {}));
  EXPECT_EQ(empty.token, 9u);
  EXPECT_TRUE(empty.frame.empty());
}

TEST(AgentTransfer, TransferBodyRejectsTruncationAndTrailingBytes) {
  const serial::Bytes body = encode_transfer_body(42, {7, 7, 7});
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const serial::Bytes prefix(body.begin(),
                               body.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_transfer_body(prefix), serial::DecodeError)
        << "cut " << cut << "/" << body.size();
  }
  serial::Bytes trailing = body;
  trailing.push_back(0x00);
  EXPECT_THROW(decode_transfer_body(trailing), serial::DecodeError);
}

TEST(AgentTransfer, AckBodyRoundTripsAndRejectsDamage) {
  const serial::Bytes body = encode_transfer_ack_body(0xCAFEF00Dull);
  EXPECT_EQ(decode_transfer_ack_body(body), 0xCAFEF00Dull);

  const serial::Bytes truncated(body.begin(), body.end() - 1);
  EXPECT_THROW(decode_transfer_ack_body(truncated), serial::DecodeError);
  serial::Bytes trailing = body;
  trailing.push_back(0x01);
  EXPECT_THROW(decode_transfer_ack_body(trailing), serial::DecodeError);
}

// ---- distributed-tracing context (PR 8) ----

TEST(TraceContext, TailRoundTripsThroughTheFrameCodec) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const serial::Bytes body = random_bytes(rng);
    TraceContext trace;
    trace.session_id = rng();
    trace.span_id = rng();
    trace.origin = static_cast<net::NodeId>(rng() % 8);
    trace.send_ts_us = static_cast<std::int64_t>(rng() % (1ull << 48));
    const serial::Bytes wire = encode_frame(FrameType::AppMessage, 0, 1, i,
                                            body, /*with_checksum=*/true,
                                            /*incarnation=*/0, &trace);
    ASSERT_EQ(wire.size(), kHeaderSize + body.size() + kTraceContextSize);

    Frame frame;
    ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
    EXPECT_NE(frame.header.flags & kFlagTrace, 0);
    // The tail is stripped: the payload deserializers never see it.
    EXPECT_EQ(frame.body, body);
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(*frame.trace, trace);
  }
}

TEST(TraceContext, UntracedFramesAreByteIdenticalToThePreTraceWire) {
  const serial::Bytes body = {1, 2, 3, 4};
  const serial::Bytes with_null =
      encode_frame(FrameType::AppMessage, 0, 1, 7, body, true, 0, nullptr);
  const serial::Bytes legacy = encode_frame(FrameType::AppMessage, 0, 1, 7, body);
  EXPECT_EQ(with_null, legacy);

  Frame frame;
  ASSERT_EQ(decode_frame(legacy, &frame), DecodeStatus::Ok);
  EXPECT_EQ(frame.header.flags & kFlagTrace, 0);
  EXPECT_FALSE(frame.trace.has_value());
}

TEST(TraceContext, FlagWithShortBodyIsBadTraceNotAnOverread) {
  // A frame whose body is shorter than the trace tail but whose flag claims
  // one: the checksum can legitimately pass (the sender checksummed what it
  // sent), so extraction must fail typed — never read outside the body.
  // Flags sit at header offset 8: magic u32, version u16, type u16, flags.
  constexpr std::size_t kFlagsOffset = 8;
  const serial::Bytes short_body = {9, 9, 9};
  serial::Bytes wire = encode_frame(FrameType::AppMessage, 0, 1, 1, short_body);
  wire[kFlagsOffset] |= kFlagTrace;
  Frame frame;
  EXPECT_EQ(decode_frame(wire, &frame), DecodeStatus::BadTrace);

  // Same shape without checksums: the typed BadTrace still surfaces (the
  // checksum never covered the header flags, so extraction is the guard).
  serial::Bytes plain =
      encode_frame(FrameType::AppMessage, 0, 1, 1, short_body, /*checksum=*/false);
  plain[kFlagsOffset] |= kFlagTrace;
  EXPECT_EQ(decode_frame(plain, &frame), DecodeStatus::BadTrace);
}

TEST(TraceContext, CorruptedTailFailsTheChecksum) {
  TraceContext trace;
  trace.session_id = 0xAB;
  trace.span_id = 0xCD;
  trace.origin = 3;
  trace.send_ts_us = 123456;
  serial::Bytes wire = encode_frame(FrameType::AppMessage, 0, 1, 2, {5, 6},
                                    true, 0, &trace);
  Frame frame;
  for (std::size_t i = wire.size() - kTraceContextSize; i < wire.size(); ++i) {
    wire[i] ^= 0x10;
    EXPECT_EQ(decode_frame(wire, &frame), DecodeStatus::ChecksumMismatch)
        << "tail byte " << i;
    wire[i] ^= 0x10;
  }
  ASSERT_EQ(decode_frame(wire, &frame), DecodeStatus::Ok);
  ASSERT_TRUE(frame.trace.has_value());
  EXPECT_EQ(frame.trace->send_ts_us, 123456);
}

TEST(TraceContext, RawCodecRequiresExactlyTheTailSize) {
  TraceContext trace;
  trace.session_id = 1;
  trace.span_id = 2;
  trace.origin = 4;
  trace.send_ts_us = -50;  // pre-epoch stamps must survive sign-intact
  const serial::Bytes tail = encode_trace_context(trace);
  ASSERT_EQ(tail.size(), kTraceContextSize);

  TraceContext decoded;
  ASSERT_TRUE(decode_trace_context(tail.data(), tail.size(), &decoded));
  EXPECT_EQ(decoded, trace);
  EXPECT_FALSE(decode_trace_context(tail.data(), tail.size() - 1, &decoded));
  EXPECT_FALSE(decode_trace_context(tail.data(), 0, &decoded));
}

TEST(Control, NodeTraceRoundTripsAndRejectsTruncation) {
  NodeTrace t;
  t.node = 3;
  t.incarnation = 2;
  t.spans_dropped = 7;
  t.samples_dropped = 1;
  t.spans = {
      {100, 250, 4, 1, 0, 5000, 2, 9, 0},
      // Open cross-process migration: the kOpenEnd sentinel must survive.
      {300, NodeTrace::kOpenEnd, 0, 2, 1, 6000, 0, 3, 1},
  };
  t.link_samples = {{0, 1000, 1042}, {2, 2000, 2017}};

  serial::Writer w;
  t.serialize(w);
  const serial::Bytes bytes = w.take();
  serial::Reader r(bytes);
  const NodeTrace t2 = NodeTrace::deserialize(r);
  EXPECT_TRUE(r.at_end());

  serial::Writer w2;
  t2.serialize(w2);
  EXPECT_EQ(w2.take(), bytes);
  ASSERT_EQ(t2.spans.size(), 2u);
  EXPECT_EQ(t2.spans[1].end_us, NodeTrace::kOpenEnd);
  EXPECT_EQ(t2.spans[1].agent_created_us, 6000);
  ASSERT_EQ(t2.link_samples.size(), 2u);
  EXPECT_EQ(t2.link_samples[1].recv_ts_us, 2017);
  EXPECT_EQ(t2.spans_dropped, 7u);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const serial::Bytes prefix(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    serial::Reader rr(prefix);
    EXPECT_THROW(NodeTrace::deserialize(rr), serial::DecodeError) << "cut " << cut;
  }
}

// ---- the stream framer: random splits and single-byte damage ----

/// One result of cutting frames off a stream: a status, plus the frame
/// when the status is Ok.
struct Cut {
  DecodeStatus status = DecodeStatus::Ok;
  Frame frame;
};

bool same_frame(const Frame& a, const Frame& b) {
  return a.header.type == b.header.type && a.header.flags == b.header.flags &&
         a.header.incarnation == b.header.incarnation && a.header.src == b.header.src &&
         a.header.dst == b.header.dst && a.header.seq == b.header.seq &&
         a.header.body_len == b.header.body_len &&
         a.header.checksum == b.header.checksum && a.body == b.body &&
         a.trace == b.trace;
}

/// The reference: walk `stream` frame by frame with decode_frame on the
/// bytes that remain, stepping over each frame whose header was sane, until
/// an incomplete tail (Truncated, not reported) or a header error (reported,
/// and the end of the stream). `*consumed` is where the walk stopped.
std::vector<Cut> reference_cuts(const serial::Bytes& stream, std::size_t* consumed) {
  std::vector<Cut> cuts;
  std::size_t offset = 0;
  while (true) {
    const serial::Bytes rest(stream.begin() + static_cast<std::ptrdiff_t>(offset),
                             stream.end());
    Cut cut;
    cut.status = decode_frame(rest, &cut.frame);
    if (cut.status == DecodeStatus::Truncated) break;
    const bool fatal = cut.status == DecodeStatus::BadMagic ||
                       cut.status == DecodeStatus::BadVersion ||
                       cut.status == DecodeStatus::BadLength;
    FrameHeader header;
    if (!fatal) {
      EXPECT_EQ(decode_header(rest.data(), rest.size(), &header), DecodeStatus::Ok);
    }
    cuts.push_back(std::move(cut));
    if (fatal) break;
    offset += kHeaderSize + header.body_len;
  }
  *consumed = offset;
  return cuts;
}

/// Feed `stream` to a FrameStream in random pieces, each copied into its own
/// exactly-sized heap block (so a read past a piece is an ASan report), and
/// cut frames after every piece until the stream wants more or dies.
std::vector<Cut> streamed_cuts(const serial::Bytes& stream, Rng& rng,
                               std::size_t* buffered) {
  FrameStream framer;
  std::vector<Cut> cuts;
  std::size_t fed = 0;
  bool dead = false;
  while (fed < stream.size() && !dead) {
    const std::size_t max_piece = rng() % 4 == 0 ? 3 : 600;
    const std::size_t piece =
        std::min(stream.size() - fed, 1 + static_cast<std::size_t>(rng() % max_piece));
    auto block = std::make_unique<std::uint8_t[]>(piece);
    std::memcpy(block.get(), stream.data() + fed, piece);
    if (rng() % 2 == 0) {
      framer.append(block.get(), piece);
    } else {
      std::memcpy(framer.prepare(piece), block.get(), piece);
      framer.commit(piece);
    }
    fed += piece;
    while (true) {
      Cut cut;
      cut.status = framer.next(&cut.frame);
      if (cut.status == DecodeStatus::Truncated) break;
      dead = cut.status == DecodeStatus::BadMagic ||
             cut.status == DecodeStatus::BadVersion ||
             cut.status == DecodeStatus::BadLength;
      cuts.push_back(std::move(cut));
      if (dead) break;
    }
  }
  if (dead) {
    Frame ignored;  // a dead stream stays dead
    EXPECT_EQ(framer.next(&ignored), cuts.back().status);
  }
  *buffered = framer.buffered();
  return cuts;
}

/// A random valid frame as cluster traffic looks: any type, small bodies
/// with the odd agent-sized one, checksummed or not, traced or not.
serial::Bytes random_frame(Rng& rng, Frame* expect) {
  const auto type = static_cast<FrameType>(1 + rng() % 6);
  const std::size_t len = rng() % 8 == 0 ? 1500 + rng() % 1500 : rng() % 240;
  serial::Bytes body(len);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng());
  const bool checksum = rng() % 5 != 0;
  TraceContext trace;
  trace.session_id = rng();
  trace.span_id = rng();
  trace.origin = static_cast<net::NodeId>(rng() % 8);
  trace.send_ts_us = static_cast<std::int64_t>(rng() % 1'000'000'000);
  const bool traced = rng() % 2 == 0;
  const serial::Bytes wire =
      encode_frame(type, static_cast<net::NodeId>(rng() % 8),
                   static_cast<net::NodeId>(rng() % 8), rng(), body, checksum,
                   static_cast<std::uint16_t>(rng() % 4), traced ? &trace : nullptr);
  EXPECT_EQ(decode_frame(wire, expect), DecodeStatus::Ok);
  EXPECT_EQ(expect->body, body);
  return wire;
}

TEST(FrameStream, RandomSplitsReassembleEveryFrameByteIdentically) {
  Rng rng(20260917);
  for (int round = 0; round < 300; ++round) {
    serial::Bytes stream;
    std::vector<Frame> sent;
    const std::size_t frames = 1 + rng() % 12;
    for (std::size_t i = 0; i < frames; ++i) {
      Frame expect;
      const serial::Bytes wire = random_frame(rng, &expect);
      stream.insert(stream.end(), wire.begin(), wire.end());
      sent.push_back(std::move(expect));
    }
    // Sometimes leave the last frame half sent.
    const std::size_t cut_tail = rng() % 3 == 0 ? 1 + rng() % 30 : 0;
    stream.resize(stream.size() - std::min(cut_tail, stream.size() - 1));
    std::size_t consumed = 0;
    const std::vector<Cut> expected = reference_cuts(stream, &consumed);
    std::size_t buffered = 0;
    const std::vector<Cut> got = streamed_cuts(stream, rng, &buffered);

    ASSERT_EQ(got.size(), cut_tail == 0 ? frames : frames - 1) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, DecodeStatus::Ok) << "round " << round;
      EXPECT_TRUE(same_frame(got[i].frame, sent[i])) << "round " << round << " frame " << i;
    }
    ASSERT_EQ(expected.size(), got.size());
    // Every byte fed is either in a cut frame or still buffered.
    EXPECT_EQ(consumed + buffered, stream.size()) << "round " << round;
  }
}

TEST(FrameStream, FlippedBytesYieldTheStatusDecodeFrameGives) {
  Rng rng(7140);
  std::size_t damaged_statuses = 0;
  for (int round = 0; round < 600; ++round) {
    serial::Bytes stream;
    const std::size_t frames = 1 + rng() % 8;
    for (std::size_t i = 0; i < frames; ++i) {
      Frame ignored;
      const serial::Bytes wire = random_frame(rng, &ignored);
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    // Flip one bit of one byte, anywhere: header fields, bodies, trace tails.
    stream[rng() % stream.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    std::size_t consumed = 0;
    const std::vector<Cut> expected = reference_cuts(stream, &consumed);
    std::size_t buffered = 0;
    const std::vector<Cut> got = streamed_cuts(stream, rng, &buffered);

    ASSERT_EQ(got.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].status, expected[i].status) << "round " << round << " cut " << i;
      if (got[i].status == DecodeStatus::Ok) {
        EXPECT_TRUE(same_frame(got[i].frame, expected[i].frame))
            << "round " << round << " cut " << i;
      } else {
        ++damaged_statuses;
      }
    }
    const bool dead = !got.empty() && (got.back().status == DecodeStatus::BadMagic ||
                                       got.back().status == DecodeStatus::BadVersion ||
                                       got.back().status == DecodeStatus::BadLength);
    if (!dead) {
      EXPECT_EQ(consumed + buffered, stream.size()) << "round " << round;
    }
  }
  // The damage reached every rejection class often enough to matter.
  EXPECT_GT(damaged_statuses, 200u);
}

TEST(FrameStream, OversizedLengthIsRejectedFromTheHeaderAlone) {
  // body_len past kMaxBodyLen is refused as soon as the 40 header bytes are
  // in, without waiting for (or buffering) any body.
  serial::Bytes wire = encode_frame(FrameType::AppMessage, 0, 1, 1, {1, 2, 3});
  const std::uint32_t huge = kMaxBodyLen + 1;
  for (int i = 0; i < 4; ++i) {  // body_len at offset 28, little-endian
    wire[28 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  FrameStream framer;
  framer.append(wire.data(), kHeaderSize);
  Frame frame;
  EXPECT_EQ(framer.next(&frame), DecodeStatus::BadLength);
  EXPECT_EQ(framer.buffered(), kHeaderSize);
}

}  // namespace
}  // namespace marp::rpc
