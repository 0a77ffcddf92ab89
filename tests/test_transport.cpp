// Transport backend tests: endpoints, the in-process mesh (full frame
// codec, chaos knobs), the real socket transport over Unix-domain sockets
// (including raw-socket probes of its receive path), and the headline
// cross-substrate equivalence check — the paper-literal N=5 deployment run
// as five RealNodes over UDS must compute exactly what the discrete-event
// simulator computes.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "agent/platform.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "rpc/frame.hpp"
#include "sim/simulator.hpp"
#include "transport/cluster.hpp"
#include "transport/endpoint.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/real_node.hpp"
#include "transport/socket_transport.hpp"

namespace marp::transport {
namespace {

// ---- endpoints ----

TEST(Endpoint, ParsesTcpAndUds) {
  const auto tcp = Endpoint::parse("tcp:127.0.0.1:7001");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7001);

  const auto uds = Endpoint::parse("uds:/tmp/marp/n0.sock");
  ASSERT_TRUE(uds.has_value());
  EXPECT_EQ(uds->kind, Endpoint::Kind::Uds);
  EXPECT_EQ(uds->path, "/tmp/marp/n0.sock");
}

TEST(Endpoint, ToStringRoundTrips) {
  for (const Endpoint& e :
       {Endpoint::tcp("10.0.0.1", 9000), Endpoint::uds("/run/marp.sock")}) {
    const auto back = Endpoint::parse(e.to_string());
    ASSERT_TRUE(back.has_value()) << e.to_string();
    EXPECT_EQ(*back, e);
  }
}

TEST(Endpoint, RejectsMalformedText) {
  for (const char* bad : {"", "tcp:", "tcp:host", "tcp:host:", "tcp:host:x",
                          "tcp:host:99999", "tcp:host:-1", "uds:", "ftp:x",
                          "tcp::7000:extra:junk:"}) {
    EXPECT_FALSE(Endpoint::parse(bad).has_value()) << "'" << bad << "' accepted";
  }
}

TEST(Endpoint, LocalUdsClusterNamesOneSocketPerNode) {
  const auto endpoints = local_uds_cluster("/tmp/marp", 3);
  ASSERT_EQ(endpoints.size(), 3u);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    EXPECT_EQ(endpoints[i].kind, Endpoint::Kind::Uds);
    EXPECT_EQ(endpoints[i].path, "/tmp/marp/node" + std::to_string(i) + ".sock");
  }
}

// ---- in-process mesh: frame pipeline + chaos knobs ----

/// What one transport has received: count() polls without waiting and
/// keeps the frames.
struct FrameSink {
  NodeTransport* transport = nullptr;
  std::vector<rpc::Frame> frames;

  std::size_t count() {
    std::vector<NodeTransport::Inbound> batch;
    transport->poll(std::chrono::steady_clock::now(), batch);
    for (NodeTransport::Inbound& inbound : batch) {
      frames.push_back(std::move(inbound.frame));
    }
    return frames.size();
  }
};

/// Open every transport of `mesh`, one sink each.
std::vector<FrameSink> open_mesh(InProcMesh& mesh) {
  std::vector<FrameSink> sinks(mesh.size());
  for (net::NodeId n = 0; n < mesh.size(); ++n) {
    mesh.node(n).open();
    sinks[n].transport = &mesh.node(n);
  }
  return sinks;
}

net::Message make_message(net::NodeId src, net::NodeId dst) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.type = 0x0503;
  m.payload = {1, 2, 3};
  return m;
}

TEST(InProcMesh, DeliversValidatedAppFrames) {
  InProcMesh mesh(3);
  std::vector<FrameSink> sinks = open_mesh(mesh);

  ASSERT_TRUE(mesh.node(0).send_message(make_message(0, 2)));
  ASSERT_EQ(sinks[2].count(), 1u);
  const rpc::Frame& frame = sinks[2].frames[0];
  EXPECT_EQ(frame.type(), rpc::FrameType::AppMessage);
  const net::Message out = rpc::decode_app_body(frame.header, frame.body);
  EXPECT_EQ(out.src, 0u);
  EXPECT_EQ(out.dst, 2u);
  EXPECT_EQ(out.type, 0x0503u);
  EXPECT_EQ(out.payload, (serial::Bytes{1, 2, 3}));

  EXPECT_EQ(mesh.node(0).stats().frames_sent, 1u);
  EXPECT_EQ(mesh.node(2).stats().frames_received, 1u);
  for (net::NodeId n = 0; n < 3; ++n) mesh.node(n).stop();
}

TEST(InProcMesh, ShipsAgentFramesVerbatim) {
  InProcMesh mesh(2);
  std::vector<FrameSink> sinks = open_mesh(mesh);

  const serial::Bytes body = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(mesh.node(0).send_agent_frame(1, body));
  ASSERT_EQ(sinks[1].count(), 1u);
  EXPECT_EQ(sinks[1].frames[0].type(), rpc::FrameType::AgentTransfer);
  EXPECT_EQ(sinks[1].frames[0].body, body);
  EXPECT_EQ(mesh.node(0).stats().agent_frames_sent, 1u);
  EXPECT_EQ(mesh.node(1).stats().agent_frames_received, 1u);
  for (net::NodeId n = 0; n < 2; ++n) mesh.node(n).stop();
}

TEST(InProcMesh, CorruptedFramesAreRejectedByChecksum) {
  InProcMesh mesh(2);
  std::vector<FrameSink> sinks = open_mesh(mesh);

  mesh.corrupt_next(2);
  EXPECT_TRUE(mesh.node(0).send_message(make_message(0, 1)));
  EXPECT_TRUE(mesh.node(0).send_agent_frame(1, {7, 7, 7}));
  EXPECT_EQ(sinks[1].count(), 0u);  // both damaged frames died at the boundary
  EXPECT_EQ(mesh.node(1).stats().checksum_rejected, 2u);

  // The window is over: the next frame sails through.
  EXPECT_TRUE(mesh.node(0).send_message(make_message(0, 1)));
  EXPECT_EQ(sinks[1].count(), 1u);
  for (net::NodeId n = 0; n < 2; ++n) mesh.node(n).stop();
}

TEST(InProcMesh, WithoutChecksumsCorruptionGoesUndetected) {
  // Control experiment for the rule above: same damage, checksums off —
  // the frame is delivered with a silently wrong body.
  InProcMesh mesh(2, /*checksum=*/false);
  std::vector<FrameSink> sinks = open_mesh(mesh);

  mesh.corrupt_next(1);
  EXPECT_TRUE(mesh.node(0).send_agent_frame(1, {7, 7, 7}));
  ASSERT_EQ(sinks[1].count(), 1u);
  EXPECT_NE(sinks[1].frames[0].body, (serial::Bytes{7, 7, 7}));
  EXPECT_EQ(mesh.node(1).stats().checksum_rejected, 0u);
  for (net::NodeId n = 0; n < 2; ++n) mesh.node(n).stop();
}

TEST(InProcMesh, SendLossEatsAppMessagesButNeverAgents) {
  InProcMesh mesh(2);
  std::vector<FrameSink> sinks = open_mesh(mesh);

  mesh.set_send_loss(1.0, /*seed=*/42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(mesh.node(0).send_message(make_message(0, 1)));  // silently lost
  }
  EXPECT_EQ(sinks[1].count(), 0u);
  EXPECT_EQ(mesh.node(0).stats().loss_injected, 10u);

  // Loss must never eat a migrating agent.
  EXPECT_TRUE(mesh.node(0).send_agent_frame(1, {1}));
  EXPECT_EQ(sinks[1].count(), 1u);
  for (net::NodeId n = 0; n < 2; ++n) mesh.node(n).stop();
}

TEST(InProcMesh, CutLinksVanishMessagesAndFailMigrations) {
  InProcMesh mesh(2);
  std::vector<FrameSink> sinks = open_mesh(mesh);

  mesh.set_link_up(0, 1, false);
  EXPECT_TRUE(mesh.node(0).send_message(make_message(0, 1)));  // vanishes
  EXPECT_FALSE(mesh.node(0).send_agent_frame(1, {1}));  // visible failure
  EXPECT_EQ(sinks[1].count(), 0u);

  mesh.set_link_up(0, 1, true);
  EXPECT_TRUE(mesh.node(0).send_agent_frame(1, {1}));
  EXPECT_EQ(sinks[1].count(), 1u);
  for (net::NodeId n = 0; n < 2; ++n) mesh.node(n).stop();
}

// ---- acked remote transfers: revival, ack cancel, receiver dedup ----

/// Transport fake that records what the platform hands it instead of
/// touching any wire: lets the tests drive the ack/revival protocol by hand.
class RecordingTransport final : public Transport {
 public:
  bool send_message(const net::Message&) override { return true; }
  bool send_agent_frame(net::NodeId dst, const serial::Bytes& frame,
                        std::uint64_t trace_session = 0) override {
    (void)trace_session;
    sent_frames.push_back(frame);
    sent_to.push_back(dst);
    return send_result;
  }
  bool send_agent_ack(net::NodeId dst, std::uint64_t token) override {
    acked_tokens.push_back(token);
    acked_to.push_back(dst);
    return true;
  }
  bool reachable(net::NodeId) override { return true; }
  TransportStats stats() const override { return {}; }

  bool send_result = true;
  std::vector<serial::Bytes> sent_frames;
  std::vector<net::NodeId> sent_to;
  std::vector<std::uint64_t> acked_tokens;
  std::vector<net::NodeId> acked_to;
};

/// Minimal resident agent: arrives, stays put, carries one varint of state.
class CourierAgent final : public agent::MobileAgent {
 public:
  static constexpr const char* kType = "test.courier";

  CourierAgent() = default;
  explicit CourierAgent(std::uint64_t cargo) : cargo_(cargo) {}

  std::string type_name() const override { return kType; }
  void on_arrival(agent::AgentContext&) override {}
  // Stay resident after a revival (the default disposes) so the tests can
  // observe the agent surviving a failed remote transfer.
  void on_migration_failed(agent::AgentContext&, net::NodeId) override {}
  void serialize(serial::Writer& w) const override { w.varint(cargo_); }
  void deserialize(serial::Reader& r) override { cargo_ = r.varint(); }

 private:
  std::uint64_t cargo_ = 0;
};

/// One platform with a RecordingTransport attached at `local`, standing in
/// for one process of a real deployment.
struct TransferFixture {
  explicit TransferFixture(net::NodeId local, std::uint64_t seed = 11)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(2, sim::SimTime::millis(1)),
                std::make_unique<net::ConstantLatency>(sim::SimTime::millis(1))),
        platform(network) {
    platform.registry().register_type<CourierAgent>(CourierAgent::kType);
    network.attach_transport(&transport, local);
  }

  /// Park a courier on the local host and push it toward `dest`, which the
  /// attached transport makes remote — returns the id of the traveller.
  agent::AgentId launch(net::NodeId from, net::NodeId dest) {
    const agent::AgentId id =
        platform.host(from).create(std::make_unique<CourierAgent>(7));
    simulator.run();  // on_created settles
    EXPECT_TRUE(platform.retract(id, dest));
    return id;
  }

  sim::Simulator simulator;
  net::Network network;
  RecordingTransport transport;
  agent::AgentPlatform platform;
};

TEST(AckedTransfer, UnackedRemoteMigrationRevivesAtSource) {
  // The high-severity scenario: the kernel accepts the bytes (send_agent_frame
  // returns true) but no ack ever comes back — receiver checksum-rejected the
  // frame, failed to rehydrate it, or died after accept. The always-armed
  // migration timer must revive the agent at the source instead of losing it.
  TransferFixture fx(/*local=*/0);
  const agent::AgentId id = fx.launch(0, 1);
  ASSERT_EQ(fx.transport.sent_frames.size(), 1u);
  EXPECT_EQ(fx.transport.sent_to[0], 1u);
  EXPECT_EQ(fx.platform.live_agents(), 0u);  // in flight: source copy destroyed

  fx.simulator.run();  // migration timeout elapses with no ack

  EXPECT_EQ(fx.platform.stats().migrations_failed, 1u);
  EXPECT_EQ(fx.platform.live_agents(), 1u);
  EXPECT_TRUE(fx.platform.host(0).has_agent(id));
  EXPECT_GE(fx.simulator.now(), fx.platform.config().migration_timeout);
}

TEST(AckedTransfer, RefusedSendStillRevivesAfterTimeout) {
  // Same recovery when the transport refuses the frame outright (peer
  // unreachable): the one timer covers both failure shapes.
  TransferFixture fx(/*local=*/0);
  fx.transport.send_result = false;
  const agent::AgentId id = fx.launch(0, 1);

  fx.simulator.run();

  EXPECT_EQ(fx.platform.stats().migrations_failed, 1u);
  EXPECT_TRUE(fx.platform.host(0).has_agent(id));
}

TEST(AckedTransfer, AckCancelsTheRevivalTimer) {
  TransferFixture fx(/*local=*/0);
  fx.launch(0, 1);
  ASSERT_EQ(fx.transport.sent_frames.size(), 1u);

  // The receiving process acks with the token it unwrapped from the body.
  const rpc::TransferBody body =
      rpc::decode_transfer_body(fx.transport.sent_frames[0]);
  fx.platform.acknowledge_remote_transfer(body.token);
  fx.simulator.run();  // timer still fires, but finds the transfer acked

  EXPECT_EQ(fx.platform.stats().remote_transfers_acked, 1u);
  EXPECT_EQ(fx.platform.stats().migrations_failed, 0u);
  EXPECT_EQ(fx.platform.live_agents(), 0u);  // the agent lives remotely now
  // A late duplicate ack (retransmitted by the receiver) is a no-op.
  fx.platform.acknowledge_remote_transfer(body.token);
  EXPECT_EQ(fx.platform.stats().remote_transfers_acked, 1u);
}

TEST(AckedTransfer, ReceiverAdoptsOnceAndDedupsReplays) {
  // Sender wraps the agent; the receiving platform (a second process in real
  // life) adopts on first delivery and drops-but-acks the replay, so a lost
  // ack can never fork the agent into two copies.
  TransferFixture sender(/*local=*/0);
  sender.launch(0, 1);
  ASSERT_EQ(sender.transport.sent_frames.size(), 1u);
  const serial::Bytes& wire_body = sender.transport.sent_frames[0];

  TransferFixture receiver(/*local=*/1, /*seed=*/12);
  const auto first = receiver.platform.receive_remote_transfer(wire_body);
  EXPECT_TRUE(first.adopted);
  EXPECT_TRUE(receiver.platform.host(1).has_agent(first.id));
  EXPECT_EQ(receiver.platform.live_agents(), 1u);

  const auto replay = receiver.platform.receive_remote_transfer(wire_body);
  EXPECT_FALSE(replay.adopted);
  EXPECT_EQ(replay.token, first.token);  // same token → sender still cancels
  EXPECT_EQ(replay.id, first.id);
  EXPECT_EQ(receiver.platform.live_agents(), 1u);
  EXPECT_EQ(receiver.platform.stats().remote_transfers_deduped, 1u);
  EXPECT_EQ(receiver.platform.stats().migrations_completed, 1u);
}

TEST(AckedTransfer, MalformedTransferBodyThrowsAndAdoptsNothing) {
  // A body that passed the frame checksum but will not rehydrate must throw
  // (the caller then drops it without acking, leaving revival to the sender).
  TransferFixture receiver(/*local=*/1);
  const serial::Bytes garbage = {0x01, 0x02, 0x03};
  EXPECT_THROW(receiver.platform.receive_remote_transfer(garbage),
               serial::DecodeError);
  EXPECT_EQ(receiver.platform.live_agents(), 0u);
  EXPECT_EQ(receiver.platform.stats().migrations_completed, 0u);
}

// ---- socket transport over real Unix-domain sockets ----

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/marp_test_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (path_.empty()) return;
    // Best-effort cleanup of the sockets the transports may leave behind.
    for (int i = 0; i < 8; ++i) {
      ::unlink((path_ + "/node" + std::to_string(i) + ".sock").c_str());
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The test-side stand-in for a node's driver thread: polls one transport
/// and keeps every frame that arrives. `on_frame`, when set, runs on the
/// polling thread first (where a ControlRequest's reply may be sent).
class Poller {
 public:
  using Handler = std::function<void(NodeTransport::Inbound&)>;

  explicit Poller(NodeTransport& transport, Handler on_frame = {})
      : transport_(transport), on_frame_(std::move(on_frame)), thread_([this] { loop(); }) {}
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Join the polling thread; the transport may be stopped afterwards.
  void stop() {
    if (!thread_.joinable()) return;
    done_.store(true);
    transport_.wake();
    thread_.join();
  }

  bool wait_for_frames(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return frames_.size() >= n; });
  }

  std::vector<rpc::Frame> frames() {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }

 private:
  void loop() {
    std::vector<NodeTransport::Inbound> batch;
    while (!done_.load()) {
      transport_.poll(std::chrono::steady_clock::now() + std::chrono::milliseconds(50),
                      batch);
      for (NodeTransport::Inbound& inbound : batch) {
        if (on_frame_) on_frame_(inbound);
        std::lock_guard<std::mutex> lock(mutex_);
        frames_.push_back(std::move(inbound.frame));
      }
      batch.clear();
      cv_.notify_all();
    }
  }

  NodeTransport& transport_;
  Handler on_frame_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<rpc::Frame> frames_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

SocketTransportConfig uds_config(const std::vector<Endpoint>& endpoints,
                                 net::NodeId local) {
  SocketTransportConfig config;
  config.local = local;
  config.peers = endpoints;
  return config;
}

/// A bare client connection to `endpoint` (a UDS path), as a peer or a
/// control client would open it. -1 on failure.
int dial(const Endpoint& endpoint) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", endpoint.path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(SocketTransport, MovesFramesBothWaysOverUds) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 2);

  SocketTransport a(uds_config(endpoints, 0));
  SocketTransport b(uds_config(endpoints, 1));
  a.open();
  b.open();
  Poller poll_a(a), poll_b(b);

  ASSERT_TRUE(a.send_message(make_message(0, 1)));
  ASSERT_TRUE(poll_b.wait_for_frames(1, std::chrono::seconds(10)));
  const rpc::Frame at_b = poll_b.frames()[0];
  const net::Message to_b = rpc::decode_app_body(at_b.header, at_b.body);
  EXPECT_EQ(to_b.src, 0u);
  EXPECT_EQ(to_b.payload, (serial::Bytes{1, 2, 3}));

  const serial::Bytes agent_body(300, 0x5A);
  ASSERT_TRUE(b.send_agent_frame(0, agent_body));
  ASSERT_TRUE(poll_a.wait_for_frames(1, std::chrono::seconds(10)));
  const rpc::Frame at_a = poll_a.frames()[0];
  EXPECT_EQ(at_a.type(), rpc::FrameType::AgentTransfer);
  EXPECT_EQ(at_a.body, agent_body);

  EXPECT_GE(a.stats().frames_sent, 1u);
  EXPECT_GE(b.stats().frames_received, 1u);
  EXPECT_EQ(b.stats().agent_frames_sent, 1u);
  EXPECT_EQ(a.stats().agent_frames_received, 1u);
  EXPECT_EQ(a.stats().checksum_rejected, 0u);
  EXPECT_EQ(a.stats().malformed_rejected, 0u);

  poll_a.stop();
  poll_b.stop();
  a.stop();
  b.stop();
}

TEST(SocketTransport, StopWhileAPeerKeepsDialingIsClean) {
  // Reopen one transport over and over while another thread keeps dialing
  // it: each cycle accepts whatever the dialer queued, then stops with
  // connections half set up. Nothing may leak, hang or touch a closed
  // descriptor.
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 1);
  SocketTransport transport(uds_config(endpoints, 0));

  std::atomic<bool> dialing{true};
  std::thread dialer([&] {
    while (dialing.load()) {
      const int fd = dial(endpoints[0]);
      if (fd >= 0) ::close(fd);
    }
  });
  // At least 1000 cycles and enough accepts to have hit the window, bounded
  // in time.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int cycles = 0;
  while ((cycles < 1000 || transport.stats().accepts < 20) &&
         std::chrono::steady_clock::now() < deadline) {
    transport.open();
    std::vector<NodeTransport::Inbound> ignored;
    transport.poll(std::chrono::steady_clock::now() + std::chrono::milliseconds(1),
                   ignored);
    transport.stop();
    ++cycles;
  }
  dialing.store(false);
  dialer.join();
  EXPECT_GE(cycles, 1000);
  EXPECT_GE(transport.stats().accepts, 20u);
}

TEST(SocketTransport, MovesFramesOverTcpLoopback) {
  // Same pipeline as the UDS test, over real TCP sockets on loopback (the
  // cross-machine path). Port picked off the pid to dodge collisions.
  const auto base = static_cast<std::uint16_t>(40000 + (::getpid() % 20000));
  const std::vector<Endpoint> endpoints = {
      Endpoint::tcp("127.0.0.1", base),
      Endpoint::tcp("127.0.0.1", static_cast<std::uint16_t>(base + 1))};

  SocketTransport a(uds_config(endpoints, 0));
  SocketTransport b(uds_config(endpoints, 1));
  a.open();
  b.open();
  Poller poll_a(a), poll_b(b);

  ASSERT_TRUE(a.send_message(make_message(0, 1)));
  ASSERT_TRUE(poll_b.wait_for_frames(1, std::chrono::seconds(10)));
  const rpc::Frame at_b = poll_b.frames()[0];
  const net::Message out = rpc::decode_app_body(at_b.header, at_b.body);
  EXPECT_EQ(out.payload, (serial::Bytes{1, 2, 3}));

  const serial::Bytes agent_body(4096, 0xC3);  // bigger than one MTU segment
  ASSERT_TRUE(b.send_agent_frame(0, agent_body));
  ASSERT_TRUE(poll_a.wait_for_frames(1, std::chrono::seconds(10)));
  EXPECT_EQ(poll_a.frames()[0].body, agent_body);

  poll_a.stop();
  poll_b.stop();
  a.stop();
  b.stop();
}

TEST(SocketTransport, RpcCallRoundTripsThroughTheReplyPath) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 1);

  // A server that echoes every ControlRequest body back in a ControlReply.
  SocketTransport server(uds_config(endpoints, 0));
  server.open();
  Poller poller(server, [](NodeTransport::Inbound& inbound) {
    const rpc::Frame& frame = inbound.frame;
    if (frame.type() != rpc::FrameType::ControlRequest || !inbound.reply) return;
    inbound.reply(rpc::encode_frame(rpc::FrameType::ControlReply, 0,
                                    frame.header.src, frame.header.seq, frame.body));
  });

  const serial::Bytes args = {10, 20, 30};
  const serial::Bytes request =
      rpc::encode_frame(rpc::FrameType::ControlRequest, rpc::kControlNode, 0, 99, args);
  rpc::Frame reply;
  ASSERT_EQ(SocketTransport::rpc_call_ex(endpoints[0], request, &reply,
                                         std::chrono::seconds(10)),
            SocketTransport::RpcStatus::Ok);
  EXPECT_EQ(reply.type(), rpc::FrameType::ControlReply);
  EXPECT_EQ(reply.header.seq, 99u);
  EXPECT_EQ(reply.body, args);

  poller.stop();
  server.stop();
}

TEST(SocketTransport, UnreachablePeerFailsSendsWithoutHanging) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 2);

  SocketTransportConfig config = uds_config(endpoints, 0);
  config.connect_attempts = 2;  // nobody is listening on node 1's socket
  config.connect_backoff = std::chrono::milliseconds(10);
  SocketTransport a(config);
  a.open();

  EXPECT_FALSE(a.send_agent_frame(1, {1, 2, 3}));
  EXPECT_GE(a.stats().send_failures, 1u);
  a.stop();
}

// ---- the receive path, probed with raw sockets ----

bool write_raw(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_raw(int fd, const serial::Bytes& bytes) {
  return write_raw(fd, bytes.data(), bytes.size());
}

serial::Bytes app_frame(std::uint64_t seq, const serial::Bytes& body) {
  return rpc::encode_frame(rpc::FrameType::AppMessage, 1, 0, seq, body);
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Threads of this process right now (/proc/self/task), once the count has
/// stopped changing: a just-joined thread can linger there for a moment.
std::size_t settled_thread_count() {
  const auto count = [] {
    return static_cast<std::size_t>(
        std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                      std::filesystem::directory_iterator{}));
  };
  std::size_t last = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t now = count();
    if (now == last) return now;
    last = now;
  }
  return last;
}

/// One listening transport (node 0 of a two-node UDS layout) plus the
/// thread that polls it.
struct ReceiveFixture {
  ReceiveFixture()
      : endpoints(local_uds_cluster(dir.path(), 2)),
        transport(uds_config(endpoints, 0)) {
    transport.open();
    poller = std::make_unique<Poller>(transport);
  }
  ~ReceiveFixture() {
    poller->stop();
    transport.stop();
  }

  TempDir dir;
  std::vector<Endpoint> endpoints;
  SocketTransport transport;
  std::unique_ptr<Poller> poller;
};

TEST(SocketReceive, ChecksumMismatchDropsOneFrameAndKeepsTheConnection) {
  ReceiveFixture fx;
  const int fd = dial(fx.endpoints[0]);
  ASSERT_GE(fd, 0);
  serial::Bytes corrupt = app_frame(1, {1, 2, 3, 4});
  corrupt.back() ^= 0xFF;  // a body byte: the header still frames it
  serial::Bytes both = corrupt;
  const serial::Bytes good = app_frame(2, {5, 6, 7});
  both.insert(both.end(), good.begin(), good.end());
  ASSERT_TRUE(write_raw(fd, both));

  ASSERT_TRUE(fx.poller->wait_for_frames(1, std::chrono::seconds(10)));
  EXPECT_EQ(fx.poller->frames()[0].header.seq, 2u);
  EXPECT_EQ(fx.poller->frames()[0].body, (serial::Bytes{5, 6, 7}));
  EXPECT_EQ(fx.transport.stats().checksum_rejected, 1u);
  EXPECT_EQ(fx.transport.stats().malformed_rejected, 0u);

  // The stream stayed aligned, so the connection stayed open.
  ASSERT_TRUE(write_raw(fd, app_frame(3, {8})));
  ASSERT_TRUE(fx.poller->wait_for_frames(2, std::chrono::seconds(10)));
  EXPECT_EQ(fx.poller->frames()[1].header.seq, 3u);
  ::close(fd);
}

TEST(SocketReceive, BadMagicClosesTheConnection) {
  ReceiveFixture fx;
  const int fd = dial(fx.endpoints[0]);
  ASSERT_GE(fd, 0);
  serial::Bytes garbage = app_frame(1, {1, 2, 3});
  garbage[0] ^= 0xFF;
  ASSERT_TRUE(write_raw(fd, garbage));

  // The client sees the node hang up: EOF, not a timeout.
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  EXPECT_TRUE(eventually([&] { return fx.transport.stats().malformed_rejected == 1; },
                         std::chrono::seconds(10)));
  EXPECT_EQ(fx.transport.stats().checksum_rejected, 0u);
  EXPECT_TRUE(fx.poller->frames().empty());
  ::close(fd);
}

TEST(SocketReceive, ByteAtATimeAndBatchedWritesBothReassemble) {
  ReceiveFixture fx;
  const int fd = dial(fx.endpoints[0]);
  ASSERT_GE(fd, 0);

  // One frame dribbled out a byte per send, so the node sees every split.
  serial::Bytes body(97);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i * 7);
  const serial::Bytes dribbled = app_frame(1, body);
  for (const std::uint8_t byte : dribbled) {
    ASSERT_TRUE(write_raw(fd, &byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(fx.poller->wait_for_frames(1, std::chrono::seconds(10)));
  EXPECT_EQ(fx.poller->frames()[0].body, body);

  // Then 200 frames of assorted sizes in a single write.
  constexpr std::uint64_t kBatch = 200;
  serial::Bytes batch;
  for (std::uint64_t seq = 2; seq < 2 + kBatch; ++seq) {
    const serial::Bytes frame =
        app_frame(seq, serial::Bytes(seq % 5 == 0 ? 2100 : seq % 64, static_cast<std::uint8_t>(seq)));
    batch.insert(batch.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(write_raw(fd, batch));
  ASSERT_TRUE(fx.poller->wait_for_frames(1 + kBatch, std::chrono::seconds(10)));
  const std::vector<rpc::Frame> frames = fx.poller->frames();
  for (std::uint64_t seq = 2; seq < 2 + kBatch; ++seq) {
    const rpc::Frame& frame = frames[seq - 1];
    ASSERT_EQ(frame.header.seq, seq);
    EXPECT_EQ(frame.body, serial::Bytes(seq % 5 == 0 ? 2100 : seq % 64,
                                        static_cast<std::uint8_t>(seq)));
  }
  EXPECT_EQ(fx.transport.stats().frames_received, 1 + kBatch);
  EXPECT_EQ(fx.transport.stats().checksum_rejected, 0u);
  ::close(fd);
}

TEST(SocketReceive, AStalledHalfHeaderDelaysNoOtherConnection) {
  ReceiveFixture fx;
  const int stalled = dial(fx.endpoints[0]);
  const int healthy = dial(fx.endpoints[0]);
  ASSERT_GE(stalled, 0);
  ASSERT_GE(healthy, 0);
  const serial::Bytes slow = app_frame(1, {1, 1, 1});
  ASSERT_TRUE(write_raw(stalled, slow.data(), rpc::kHeaderSize / 2));

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(write_raw(healthy, app_frame(2, {2, 2})));
  ASSERT_TRUE(fx.poller->wait_for_frames(1, std::chrono::seconds(1)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(fx.poller->frames()[0].header.seq, 2u);

  // The stalled connection's frame still completes once the rest arrives.
  ASSERT_TRUE(write_raw(stalled, slow.data() + rpc::kHeaderSize / 2,
                        slow.size() - rpc::kHeaderSize / 2));
  ASSERT_TRUE(fx.poller->wait_for_frames(2, std::chrono::seconds(10)));
  EXPECT_EQ(fx.poller->frames()[1].header.seq, 1u);
  ::close(stalled);
  ::close(healthy);
}

TEST(SocketReceive, MutualBulkSendsDoNotDeadlock) {
  // Two single-threaded nodes each write 16 MiB to the other before they
  // poll: far more than both socket buffers hold. A send that would block
  // must keep draining its own inbound connections, or both wait forever.
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 2);
  SocketTransport a(uds_config(endpoints, 0));
  SocketTransport b(uds_config(endpoints, 1));
  a.open();
  b.open();
  constexpr std::size_t kBulk = 16u << 20;
  const auto payload = [](std::uint8_t salt) {
    serial::Bytes bytes(kBulk);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9) ^ salt);
    }
    return bytes;
  };
  const serial::Bytes to_b = payload(0xA5);
  const serial::Bytes to_a = payload(0x3C);

  std::atomic<bool> gave_up{false};
  // One node's driver thread: send, then poll until the peer's bulk frame
  // is in. Returns the received body (empty on failure).
  const auto run_node = [&gave_up](SocketTransport& self, net::NodeId peer,
                                   const serial::Bytes& out) {
    if (!self.send_agent_frame(peer, out)) return serial::Bytes{};
    std::vector<NodeTransport::Inbound> batch;
    while (batch.empty() && !gave_up.load()) {
      self.poll(std::chrono::steady_clock::now() + std::chrono::milliseconds(50), batch);
    }
    return batch.empty() ? serial::Bytes{} : std::move(batch[0].frame.body);
  };
  auto node_a = std::async(std::launch::async, run_node, std::ref(a), 1, std::cref(to_b));
  auto node_b = std::async(std::launch::async, run_node, std::ref(b), 0, std::cref(to_a));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  const bool finished = node_a.wait_until(deadline) == std::future_status::ready &&
                        node_b.wait_until(deadline) == std::future_status::ready;
  if (!finished) {
    ADD_FAILURE() << "the two bulk sends deadlocked";
    gave_up.store(true);
    a.stop();  // fails the blocked sends so both threads return
    b.stop();
  }
  EXPECT_TRUE(node_a.get() == to_a);
  EXPECT_TRUE(node_b.get() == to_b);
  a.stop();
  b.stop();
}

TEST(SocketReceive, RequestStopWakesAnIdleNodePromptly) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  RealNodeConfig config;
  config.node = 0;
  config.endpoints = local_uds_cluster(dir.path(), 2);
  config.marp.reliable_commit = true;
  config.sessions = 0;
  RealNode node(std::move(config));
  node.start();
  ASSERT_TRUE(ControlClient(node.config().endpoints[0], 0).ping());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // past start_delay: idle

  const auto t0 = std::chrono::steady_clock::now();
  node.request_stop();
  node.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(100));
}

TEST(SocketReceive, OpenStartsNoThreadAndANodeRunsOnOne) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 2);
  const std::size_t before = settled_thread_count();
  {
    SocketTransport transport(uds_config(endpoints, 0));
    transport.open();
    EXPECT_EQ(settled_thread_count(), before);
    transport.stop();
  }

  RealNodeConfig config;
  config.node = 0;
  config.endpoints = endpoints;
  config.marp.reliable_commit = true;
  config.sessions = 0;
  RealNode node(std::move(config));
  node.start();
  ASSERT_TRUE(ControlClient(endpoints[0], 0).ping());  // the node is serving
  EXPECT_EQ(settled_thread_count(), before + 1);
  node.request_stop();
  node.join();
}

// ---- the tentpole invariant: sim and sockets compute the same thing ----

/// Run `spec` as an in-process cluster of RealNodes over UDS (same stack as
/// tools/marp_node, one driver thread per node) and reduce the dumps.
std::vector<rpc::NodeDump> run_uds_cluster(const ClusterSpec& spec,
                                           const std::string& dir) {
  const auto endpoints = local_uds_cluster(dir, spec.nodes);
  std::vector<std::unique_ptr<RealNode>> nodes;
  for (net::NodeId id = 0; id < spec.nodes; ++id) {
    RealNodeConfig config;
    config.node = id;
    config.endpoints = endpoints;
    config.marp = spec.marp();
    config.seed = spec.seed + id;
    config.sessions = spec.sessions_per_node;
    config.keys_per_origin = spec.keys_per_origin;
    config.shared_keys = spec.shared_keys;
    config.send_loss = spec.send_loss;
    config.start_delay = sim::SimTime::millis(200);
    nodes.push_back(std::make_unique<RealNode>(std::move(config)));
  }
  for (auto& node : nodes) node->start();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool quiesced = false;
  while (!quiesced && std::chrono::steady_clock::now() < deadline) {
    quiesced = true;
    for (auto& node : nodes) {
      if (!node->status().quiesced) {
        quiesced = false;
        break;
      }
    }
    if (!quiesced) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(quiesced) << "cluster did not quiesce within 120s";

  std::vector<rpc::NodeDump> dumps;
  for (auto& node : nodes) dumps.push_back(node->dump());
  for (auto& node : nodes) node->request_stop();
  for (auto& node : nodes) node->join();
  return dumps;
}

TEST(CrossSubstrate, PaperLiteralClusterMatchesReferenceSim) {
  // The paper's deployment: N=5 replicated servers, concurrent update
  // agents (keys_per_origin=2 → two interleaved per-origin key streams).
  // Five real protocol stacks over real Unix-domain sockets must land on
  // exactly the state the discrete-event simulator derives: same commit
  // count, same converged store, same per-key writer order at every node.
  ClusterSpec spec;
  spec.nodes = 5;
  spec.sessions_per_node = 5;
  spec.keys_per_origin = 2;
  spec.seed = 3;

  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto dumps = run_uds_cluster(spec, dir.path());
  ASSERT_EQ(dumps.size(), spec.nodes);

  const SubstrateResult real = aggregate_cluster(dumps);
  EXPECT_EQ(real.commits, spec.nodes * spec.sessions_per_node);
  EXPECT_EQ(real.mutex_violations, 0u);

  const SubstrateResult sim = run_reference_sim(spec);
  const auto violations = compare_substrates(sim, real);
  for (const std::string& v : violations) ADD_FAILURE() << v;

  // The wire was actually used: agents migrated between processes' stacks
  // and frames flowed with checksums on and nothing rejected.
  std::uint64_t agent_frames = 0;
  std::uint64_t agent_acks = 0;
  for (const auto& d : dumps) {
    agent_frames += d.agent_frames_sent;
    agent_acks += d.agent_acks_received;
    EXPECT_EQ(d.checksum_rejected, 0u);
    EXPECT_EQ(d.malformed_rejected, 0u);
    // A healthy wire delivers everything on the first try: no source-side
    // revivals, no receiver-side duplicate drops.
    EXPECT_EQ(d.agent_transfers_revived, 0u);
    EXPECT_EQ(d.agent_transfers_deduped, 0u);
  }
  EXPECT_GT(agent_frames, 0u);
  // Every migration is confirmed end-to-end (GT not EQ: a final ack can
  // still be in flight when the dump is taken).
  EXPECT_GT(agent_acks, 0u);
}

// ---- typed RPC failures + ControlClient retry (PR 7) ----

TEST(SocketTransport, RpcCallExReportsTypedFailures) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 1);
  const serial::Bytes request =
      rpc::encode_frame(rpc::FrameType::ControlRequest, rpc::kControlNode, 0, 7, {1});

  // Nothing listening: ConnectFailed, promptly.
  rpc::Frame reply;
  EXPECT_EQ(SocketTransport::rpc_call_ex(endpoints[0], request, &reply,
                                         std::chrono::milliseconds(500)),
            SocketTransport::RpcStatus::ConnectFailed);

  // A server that accepts the request but never replies: Timeout — the
  // status the supervisor reads as "hung == dead". Distinguishable from
  // ConnectFailed (just restarting) by construction.
  SocketTransport mute(uds_config(endpoints, 0));
  mute.open();
  Poller poller(mute);
  EXPECT_EQ(SocketTransport::rpc_call_ex(endpoints[0], request, &reply,
                                         std::chrono::milliseconds(300)),
            SocketTransport::RpcStatus::Timeout);
  poller.stop();
  mute.stop();

  EXPECT_STREQ(SocketTransport::rpc_status_name(SocketTransport::RpcStatus::Timeout),
               "timeout");
  EXPECT_STREQ(
      SocketTransport::rpc_status_name(SocketTransport::RpcStatus::ConnectFailed),
      "connect-failed");
}

TEST(ControlClient, BoundedRetryReportsTypedStatus) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 1);

  RetryPolicy policy;
  policy.attempts = 2;
  policy.backoff = std::chrono::milliseconds(10);
  policy.rpc_timeout = std::chrono::milliseconds(300);
  ControlClient dead(endpoints[0], 0, policy);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(dead.ping());
  EXPECT_EQ(dead.last_status(), SocketTransport::RpcStatus::ConnectFailed);
  // Bounded: two fast ConnectFailed attempts + one 10ms backoff, not a hang.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));

  SocketTransport mute(uds_config(endpoints, 0));
  mute.open();
  Poller poller(mute);
  ControlClient hung(endpoints[0], 0, policy);
  EXPECT_FALSE(hung.ping());
  EXPECT_EQ(hung.last_status(), SocketTransport::RpcStatus::Timeout);
  poller.stop();
  mute.stop();
}

// ---- incarnation fencing (PR 7) ----

TEST(IncarnationFence, StaleFramesAreDroppedAndAnnounceRaisesTheFloor) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto endpoints = local_uds_cluster(dir.path(), 2);

  RealNodeConfig config;
  config.node = 0;
  config.endpoints = endpoints;
  config.marp.reliable_commit = true;
  config.sessions = 0;
  RealNode node(std::move(config));
  node.start();

  const auto poll_rejected = [&](std::uint64_t want) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      if (node.dump().stale_incarnation_rejected >= want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  };

  // Node 1 at incarnation 2 delivers a (garbage-bodied) agent frame: the
  // frame is admitted by the fence — it raises node 0's floor for peer 1
  // to 2 — and then safely rejected by the transfer decoder one layer up.
  {
    SocketTransportConfig tc = uds_config(endpoints, 1);
    tc.incarnation = 2;
    SocketTransport life2(tc);
    life2.open();
    ASSERT_TRUE(life2.send_agent_frame(0, {0xDE, 0xAD}));
    life2.stop();
  }
  // A straggler frame from node 1's *previous* life (incarnation 1) must
  // now bounce off the fence instead of leaking into cluster state.
  {
    SocketTransportConfig tc = uds_config(endpoints, 1);
    tc.incarnation = 1;
    SocketTransport life1(tc);
    life1.open();
    ASSERT_TRUE(life1.send_agent_frame(0, {0xBE, 0xEF}));
    EXPECT_TRUE(poll_rejected(1));
    // An Announce from incarnation 4 raises the floor without any data
    // frame; now even incarnation-2 frames are stale.
    SocketTransportConfig tc4 = uds_config(endpoints, 1);
    tc4.incarnation = 4;
    SocketTransport life4(tc4);
    life4.open();
    ASSERT_TRUE(life4.send_announce(0));
    life4.stop();
    life1.stop();
  }
  {
    SocketTransportConfig tc = uds_config(endpoints, 1);
    tc.incarnation = 2;
    SocketTransport life2(tc);
    life2.open();
    ASSERT_TRUE(life2.send_agent_frame(0, {0xCA, 0xFE}));
    EXPECT_TRUE(poll_rejected(2));
    life2.stop();
  }

  EXPECT_EQ(node.dump().mutex_violations, 0u);
  node.request_stop();
  node.join();
}

// ---- in-process crash recovery: die, reincarnate, catch up, rejoin ----

TEST(CrashRecovery, ReincarnatedNodeCatchesUpAndConverges) {
  // Three durable RealNodes on one shared clock epoch. Node 2 is torn down
  // mid-workload and rebuilt from its on-disk state at incarnation 1: it
  // must recover its progress, announce, anti-entropy its store up to date,
  // finish its remaining sessions, and land on the same store as the
  // survivors. (Process-level SIGKILL chaos is the marp_cluster gate; this
  // is the same lifecycle in-process, where it is debuggable.)
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::size_t kNodes = 3;
  const std::uint64_t kSessions = 10;
  const auto endpoints = local_uds_cluster(dir.path(), kNodes);
  const std::int64_t epoch_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();

  const auto make_config = [&](net::NodeId id, std::uint16_t incarnation) {
    RealNodeConfig config;
    config.node = id;
    config.endpoints = endpoints;
    config.marp.reliable_commit = true;
    config.marp.agent_lease_timeout = sim::SimTime::millis(2000);
    config.seed = 11 + id;
    config.sessions = kSessions;
    config.keys_per_origin = 2;
    config.start_delay = sim::SimTime::millis(200);
    config.data_dir = dir.path() + "/state/node" + std::to_string(id);
    config.incarnation = incarnation;
    config.clock_epoch_us = epoch_us;
    config.checkpoint_interval = sim::SimTime::millis(200);
    config.session_retry_timeout = sim::SimTime::millis(1500);
    config.catchup_delay = sim::SimTime::millis(300);
    return config;
  };
  ::mkdir((dir.path() + "/state").c_str(), 0755);

  std::vector<std::unique_ptr<RealNode>> nodes;
  for (net::NodeId id = 0; id < kNodes; ++id) {
    nodes.push_back(std::make_unique<RealNode>(make_config(id, 0)));
  }
  for (auto& node : nodes) node->start();

  // Let the workload get going, then take node 2 down mid-run.
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  nodes[2]->request_stop();
  nodes[2]->join();
  const std::uint64_t done_before = nodes[2]->status().sessions_completed;
  nodes[2].reset();

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  nodes[2] = std::make_unique<RealNode>(make_config(2, 1));
  nodes[2]->start();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool quiesced = false;
  while (!quiesced && std::chrono::steady_clock::now() < deadline) {
    quiesced = true;
    for (auto& node : nodes) {
      if (!node->status().quiesced) {
        quiesced = false;
        break;
      }
    }
    if (!quiesced) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(quiesced) << "cluster did not re-quiesce after reincarnation";

  std::vector<rpc::NodeDump> dumps;
  for (auto& node : nodes) dumps.push_back(node->dump());
  for (auto& node : nodes) node->request_stop();
  for (auto& node : nodes) node->join();

  // Recovery actually resumed (not restarted) the workload...
  EXPECT_EQ(dumps[2].status.incarnation, 1u);
  EXPECT_GE(dumps[2].status.sessions_completed, done_before);
  EXPECT_GE(dumps[2].checkpoint_epoch, 1u);  // recovered from a checkpoint
  EXPECT_GT(dumps[2].catchup_pulls, 0u);     // and pulled peers' stores
  // ...every node finished every session, with zero invariant violations
  // and no agent stuck in transfer limbo.
  for (std::size_t id = 0; id < kNodes; ++id) {
    EXPECT_EQ(dumps[id].status.sessions_completed, kSessions) << "node " << id;
    EXPECT_EQ(dumps[id].agent_transfers_pending, 0u) << "node " << id;
  }
  const SubstrateResult real = aggregate_cluster(dumps);
  EXPECT_EQ(real.mutex_violations, 0u);
  EXPECT_TRUE(real.divergences.empty());
}

TEST(CrossSubstrate, SharedKeyContentionStillConverges) {
  // Every node hammers the same two shared keys: real cross-node lock
  // contention over the sockets. Per-key order is substrate-dependent here,
  // so the oracle is convergence: all replicas identical, zero mutex
  // violations, every session committed.
  ClusterSpec spec;
  spec.nodes = 3;
  spec.sessions_per_node = 3;
  spec.keys_per_origin = 2;
  spec.shared_keys = true;
  spec.seed = 5;

  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto dumps = run_uds_cluster(spec, dir.path());
  ASSERT_EQ(dumps.size(), spec.nodes);

  const SubstrateResult real = aggregate_cluster(dumps);
  EXPECT_EQ(real.commits, spec.nodes * spec.sessions_per_node);
  EXPECT_EQ(real.aborts, 0u);
  EXPECT_EQ(real.mutex_violations, 0u);
  EXPECT_TRUE(real.divergences.empty());
  EXPECT_TRUE(real.order_divergences.empty());  // no loss: orders agree too
}

}  // namespace
}  // namespace marp::transport
