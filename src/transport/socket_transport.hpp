// SocketTransport — the real wire: framed RPC over TCP or Unix-domain
// stream sockets.
//
// One instance per process/node. It listens on its own endpoint, lazily
// connects to peers (with retries, so a cluster can start in any order), and
// moves rpc frames both ways. It starts no thread: the node's driver thread
// is the only one that reads its sockets.
//
//   send side (any thread)       receive side (the thread calling poll)
//   ----------------------       ------------------------------------------
//   send_message  → AppMessage   ppoll on the listener, every inbound
//   send_agent_frame               connection and a wake eventfd, until the
//     → AgentTransfer              caller's deadline; accept new peers; one
//   send_agent_ack                 recv per readable connection into its
//     → AgentTransferAck           rpc::FrameStream; cut out whole frames
//   send_announce → Announce       and return them to the caller
//
// Inbound sockets are non-blocking, so a peer that stalls mid-frame delays
// no other connection. Frames that fail header validation desynchronise the
// byte stream, so the connection is closed (counted in malformed_rejected);
// a checksum mismatch leaves the stream aligned, so only the frame is
// dropped (checksum_rejected).
//
// With one thread per node, two nodes that both block writing to each other
// would never read again. A send that would block therefore waits for room
// while it keeps draining this node's inbound connections into their
// buffers (waking the poller when it read something); a send still returns
// true only once the kernel has taken every byte.
//
// Chaos knob: `send_loss` eats outbound AppMessage frames with a seeded coin
// — never AgentTransfer/AgentTransferAck or control frames — so injected
// socket-level loss exercises the protocol's reliable-commit
// retransmissions. Agents themselves are protected end-to-end one layer up:
// every transfer is acked by the adopting node, and the sending platform
// revives the agent after its migration timeout if no ack arrives.
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "transport/endpoint.hpp"
#include "transport/transport.hpp"

namespace marp::transport {

struct SocketTransportConfig {
  net::NodeId local = net::kInvalidNode;
  /// peers[i] is node i's listen endpoint; peers[local] is ours.
  std::vector<Endpoint> peers;
  bool checksum = true;
  /// Stamped into every outbound frame header so peers can fence frames
  /// from this node's previous lives (0 = first life).
  std::uint16_t incarnation = 0;
  /// Probability an outbound AppMessage frame is silently eaten (chaos).
  double send_loss = 0.0;
  std::uint64_t loss_seed = 1;
  /// Lazy connect schedule: capped exponential backoff with seeded jitter.
  /// Attempt k waits jitter x min(connect_backoff x 2^k, connect_backoff_cap)
  /// with jitter uniform in [0.5, 1.0) — a freshly reincarnated peer gets
  /// probed densely at first, then at the capped cadence, and a fleet of
  /// senders retrying the same dead node never dials in lock-step. The
  /// defaults bound a send to an unreachable peer at ~3s worst case (close
  /// to the previous fixed 60 x 50 ms schedule).
  int connect_attempts = 10;
  std::chrono::milliseconds connect_backoff{20};
  std::chrono::milliseconds connect_backoff_cap{500};
  std::uint64_t connect_jitter_seed = 1;
};

class SocketTransport final : public NodeTransport {
 public:
  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport() override;

  void open() override;
  void poll(Deadline deadline, std::vector<Inbound>& out) override;
  void wake() override;
  void stop() override;

  bool send_message(const net::Message& message) override;
  bool send_agent_frame(net::NodeId dst, const serial::Bytes& frame,
                        std::uint64_t trace_session = 0) override;
  bool send_agent_ack(net::NodeId dst, std::uint64_t token) override;
  bool reachable(net::NodeId dst) override;
  TransportStats stats() const override;

  /// Rejoin announcement: tell `dst` this node is alive at the configured
  /// incarnation, so the peer raises its incarnation floor immediately
  /// instead of on the first fenced data frame.
  bool send_announce(net::NodeId dst) override;

  /// Arm TraceContext stamping on every outbound frame and per-link latency
  /// accounting (see Transport::set_trace_clock).
  void set_trace_clock(TraceClock clock) override;

  /// Per-link `link.*` counters: frame/byte tallies per direction, transfer
  /// RTT percentiles (token-matched AgentTransfer → ack, offset-free), and
  /// raw one-way delay percentiles (receiver clock − sender stamp; only
  /// meaningful once the merge step's offsets are subtracted, or when the
  /// cluster shares a clock epoch).
  void export_counters(trace::CounterRegistry& registry) const override;

  const SocketTransportConfig& config() const noexcept { return config_; }

  /// Why a one-shot client call failed — the supervisor treats Timeout on a
  /// running process as "hung == dead", which only works if a timeout is
  /// distinguishable from "nothing is listening there yet".
  enum class RpcStatus : std::uint8_t {
    Ok,
    ConnectFailed,  ///< no listener / connection refused
    SendFailed,     ///< connected but the write failed (peer died mid-call)
    Timeout,        ///< request sent, no reply within the deadline
    BadReply,       ///< reply arrived but failed frame validation / peer EOF
  };
  static const char* rpc_status_name(RpcStatus status) noexcept;

  /// Client-side helper (harness / tools): connect to `endpoint`, send one
  /// pre-encoded frame, and — when `reply` is non-null — block until one
  /// whole frame comes back (or `timeout` passes). Stateless: one
  /// connection per call.
  static RpcStatus rpc_call_ex(
      const Endpoint& endpoint, const serial::Bytes& request, rpc::Frame* reply,
      std::chrono::milliseconds timeout = std::chrono::seconds(10));

 private:
  /// Outbound connection to a peer; written by any sending thread.
  struct Conn {
    /// -1 once closed. Atomic: senders and stop() race on the value; the
    /// close itself happens under write_mutex (close_conn).
    std::atomic<int> fd{-1};
    std::mutex write_mutex;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// Accepted connection. Its fields are guarded by inbound_mutex_; only
  /// poll() and stop() close one.
  struct InConn {
    int fd = -1;
    rpc::FrameStream stream;
    bool eof = false;  ///< peer closed or a read failed; poll() closes it
  };
  using InConnPtr = std::shared_ptr<InConn>;

  bool send_frame(net::NodeId dst, rpc::FrameType type, const serial::Bytes& body,
                  std::uint64_t trace_session = 0);
  /// Write all of `size` bytes to `fd`; on a full socket, wait in
  /// drain_until_writable. False when the connection failed.
  bool write_bytes(int fd, const std::uint8_t* data, std::size_t size);
  /// Wait (bounded) for `fd` to take more bytes while draining the inbound
  /// connections; false once the transport has stopped.
  bool drain_until_writable(int fd);
  /// Accept every pending connection; true if there was one.
  bool accept_locked();
  /// One recv into the connection's stream.
  void fill_locked(InConn& conn);
  /// Cut every whole frame out of every inbound stream into `out`, closing
  /// connections that ended or went bad.
  void collect_locked(std::vector<Inbound>& out);
  /// Bookkeeping for traced frames: recv stamp, RTT matching.
  void note_received(rpc::Frame& frame);
  /// Existing outbound connection to `dst`, or a fresh one (with the
  /// configured retry schedule). Null if every attempt failed. Dials
  /// without holding peers_mutex_, so one unreachable peer never stalls
  /// sends to healthy ones.
  ConnPtr peer_conn(net::NodeId dst);
  void drop_peer_conn(net::NodeId dst, const ConnPtr& conn);
  void close_conn(const ConnPtr& conn);

  SocketTransportConfig config_;
  std::atomic<bool> running_{false};
  /// eventfd that wake() writes and poll() waits on.
  int wake_fd_ = -1;

  std::mutex peers_mutex_;
  std::unordered_map<net::NodeId, ConnPtr> peer_conns_;

  /// The receive side: poll() and a send blocked on a full socket both
  /// accept and read under this lock.
  std::mutex inbound_mutex_;
  int listen_fd_ = -1;
  std::vector<InConnPtr> inbound_;

  /// poll()'s descriptor set and the connections behind entries 2.. of it,
  /// reused across calls (polling thread only).
  std::vector<pollfd> poll_fds_;
  std::vector<InConnPtr> poll_conns_;

  std::atomic<std::uint64_t> seq_{0};

  std::mutex loss_mutex_;
  std::mt19937_64 loss_rng_;

  /// Seeded jitter for the connect-backoff schedule (see config comment).
  std::mutex backoff_mutex_;
  std::mt19937_64 backoff_rng_;

  mutable std::mutex stats_mutex_;
  TransportStats stats_;

  /// Trace clock + per-link accounting. All guarded by trace_mutex_ — the
  /// untraced hot path never takes it (clock absence is checked first via
  /// trace_enabled_, a relaxed atomic).
  std::atomic<bool> trace_enabled_{false};
  mutable std::mutex trace_mutex_;
  TraceClock trace_clock_;
  struct LinkStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    std::vector<std::int64_t> rtt_us;  ///< transfer→ack, offset-free
    std::vector<std::int64_t> owd_us;  ///< recv stamp − sender stamp, raw
  };
  std::unordered_map<net::NodeId, LinkStats> link_stats_;
  /// Outstanding AgentTransfer tokens → (dst, send trace timestamp); matched
  /// against incoming acks for RTT. Bounded — a token past the cap simply
  /// yields no RTT sample.
  std::unordered_map<std::uint64_t, std::pair<net::NodeId, std::int64_t>>
      pending_rtt_;
};

}  // namespace marp::transport
