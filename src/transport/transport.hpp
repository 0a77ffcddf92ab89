// Transport — the substrate seam between the protocol stack and the wire.
//
// `src/marp/` and `src/agent/` never name a substrate: every inter-node
// byte they move funnels through exactly two paths — net::Network::send()
// for coordination messages and AgentPlatform's migration machinery for
// agent transfer frames. A Transport attached to the Network (see
// Network::attach_transport) takes over both paths for destinations other
// than the local node; with no Transport attached the Network simulates
// delivery itself (the discrete-event substrate). That keeps the protocol
// code substrate-agnostic with zero #ifdefs: the same MarpServer /
// UpdateAgent objects run under the simulator, over in-process queues
// (InProcTransport), or as N real processes over TCP / Unix-domain sockets
// (SocketTransport).
//
// This header is dependency-light on purpose: net::Network consumes the
// interface, the implementations in this directory link against net/agent.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.hpp"
#include "rpc/frame.hpp"

namespace marp::trace {
class CounterRegistry;  // defined in trace/counters.hpp; see export_counters
}

namespace marp::transport {

/// Counters every backend keeps (exported as `net.real.*`).
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t agent_frames_sent = 0;
  std::uint64_t agent_frames_received = 0;
  std::uint64_t agent_acks_sent = 0;
  std::uint64_t agent_acks_received = 0;
  std::uint64_t send_failures = 0;       ///< connect/write errors
  std::uint64_t loss_injected = 0;       ///< frames eaten by the chaos knob
  std::uint64_t checksum_rejected = 0;   ///< FNV mismatch — frame dropped
  std::uint64_t malformed_rejected = 0;  ///< bad magic/version/length
  std::uint64_t connects = 0;
  std::uint64_t accepts = 0;
};

/// Minimal substrate interface the Network consumes for remote destinations.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Move one coordination message toward its destination node. Returns
  /// false when the substrate knows delivery is impossible right now
  /// (connect refused, peer gone); best-effort true otherwise.
  virtual bool send_message(const net::Message& message) = 0;

  /// Ship a serialized agent (a migration) to `dst`. A true return only
  /// means the bytes were handed to the substrate — delivery is confirmed by
  /// the receiver's transfer ack; until then the platform keeps a revival
  /// timer armed. A false return is a fast-path failure (peer unreachable).
  /// `trace_session` (an AgentId hash, 0 = none) is stamped into the frame's
  /// TraceContext when tracing is on, so the receiver's trace can tie the
  /// arrival back to the sender's migration span.
  virtual bool send_agent_frame(net::NodeId dst, const serial::Bytes& frame,
                                std::uint64_t trace_session = 0) = 0;

  /// Acknowledge an adopted agent transfer back to its sender (one-way;
  /// cancels the sender's revival timer for `token`). Best-effort: a lost
  /// ack means the sender revives an already-delivered agent, which the
  /// receiver-side dedup then keeps from being adopted twice.
  virtual bool send_agent_ack(net::NodeId dst, std::uint64_t token) = 0;

  /// Cheap reachability hint (an established or establishable connection).
  virtual bool reachable(net::NodeId dst) = 0;

  virtual TransportStats stats() const = 0;

  /// Trace clock: this node's private trace-timeline microseconds. When set,
  /// every outgoing frame is stamped with a TraceContext tail (origin, send
  /// timestamp) and every incoming traced frame gets `recv_ts_us` filled at
  /// wire arrival — the raw material for pairwise clock alignment. When
  /// unset (the default) no tail is appended and the wire bytes are
  /// identical to an untraced build.
  using TraceClock = std::function<std::int64_t()>;
  virtual void set_trace_clock(TraceClock clock) { (void)clock; }
};

/// A full per-node backend: Transport plus the receive side, driven by the
/// thread that owns the node. That thread calls open() once, then poll() in
/// a loop: poll() waits for inbound frames and hands them back, so every
/// received frame is applied on the owner's own thread. The send_* methods
/// and wake() may be called from any thread.
class NodeTransport : public Transport {
 public:
  /// Sends a reply frame back over the connection a request arrived on
  /// (control channel); returns false if that connection is gone.
  using ReplyFn = std::function<bool(const serial::Bytes& encoded_frame)>;
  using Deadline = std::chrono::steady_clock::time_point;

  struct Inbound {
    rpc::Frame frame;
    /// Set only for ControlRequest frames on a backend with a reply path.
    /// Call it on the polling thread.
    ReplyFn reply;
  };

  /// Begin accepting connections. Starts no thread.
  virtual void open() = 0;
  /// Wait until a frame has arrived, `deadline` passes or wake() is called,
  /// then append every frame received so far to `out`. One polling thread
  /// at a time.
  virtual void poll(Deadline deadline, std::vector<Inbound>& out) = 0;
  /// Make the current (or else the next) poll() return promptly.
  virtual void wake() = 0;
  /// Close every connection; idempotent. A concurrent poll() returns by its
  /// deadline, and a blocked send fails.
  virtual void stop() = 0;

  /// Broadcast-side of the reincarnation protocol: push (node, incarnation)
  /// to one peer. Best-effort; backends without a rejoin story may decline.
  virtual bool send_announce(net::NodeId dst) { (void)dst; return false; }

  /// Export backend-specific counters (per-link `link.*` histograms, frame
  /// and byte tallies) into `registry`. Default: nothing beyond stats().
  virtual void export_counters(trace::CounterRegistry& registry) const {
    (void)registry;
  }
};

}  // namespace marp::transport
