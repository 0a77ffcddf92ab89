// InProcTransport — the socket transport's shape without the sockets.
//
// An InProcMesh wires N NodeTransports together through direct calls: a send
// encodes a real rpc frame, optionally flips loss/corruption chaos coins,
// then the destination transport decodes and validates it exactly like a
// frame read off a wire and queues it for the destination's poll(). Tests
// get the full encode → (damage) → decode → reject/accept path — checksums,
// malformed-frame counting, loss-driven retransmissions — with zero file
// descriptors and zero extra threads: a frame is applied on the thread that
// polls the destination, exactly as with sockets.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "transport/transport.hpp"

namespace marp::transport {

class InProcMesh;

class InProcTransport final : public NodeTransport {
 public:
  InProcTransport(InProcMesh& mesh, net::NodeId local)
      : mesh_(mesh), local_(local) {}

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

  bool send_announce(net::NodeId dst) override;
  void set_trace_clock(TraceClock clock) override;

  net::NodeId local() const noexcept { return local_; }

 private:
  friend class InProcMesh;

  /// A frame "arrives off the wire": validate and queue it for poll().
  void receive_encoded(const serial::Bytes& encoded);
  void note_sent(const serial::Bytes& encoded, rpc::FrameType type);
  /// Fill `out` from the trace clock (if set) and return it, else nullptr.
  const rpc::TraceContext* stamp(rpc::TraceContext* out, std::uint64_t session,
                                 std::uint64_t span);

  InProcMesh& mesh_;
  net::NodeId local_;
  std::uint64_t seq_ = 0;
  /// Stamped into outbound frames: an in-process mesh node has one life.
  static constexpr std::uint16_t kIncarnation = 0;

  mutable std::mutex mutex_;
  std::condition_variable arrived_;  ///< a frame was queued or wake() called
  bool running_ = false;
  bool woken_ = false;
  std::vector<Inbound> received_;  ///< validated frames awaiting poll()
  TransportStats stats_;
  TraceClock trace_clock_;
};

/// Owns the N transports and the chaos knobs shared between them.
class InProcMesh {
 public:
  explicit InProcMesh(std::size_t size, bool checksum = true);

  std::size_t size() const noexcept { return nodes_.size(); }
  InProcTransport& node(net::NodeId id) { return *nodes_.at(id); }

  bool checksum() const noexcept { return checksum_; }

  /// Eat outbound AppMessage frames with probability `p` (seeded).
  void set_send_loss(double p, std::uint64_t seed = 1);
  /// Flip one body byte of the next `n` frames (post-checksum) — the
  /// receiver must reject them. A corrupted AgentTransfer is not lost for
  /// good: no ack comes back, so the sending platform revives the agent
  /// after its migration timeout.
  void corrupt_next(std::size_t n) { corrupt_pending_ = n; }
  /// Cut/restore delivery from src to dst (send_message returns true, frame
  /// vanishes; send_agent_frame returns false — a visible migration
  /// failure, as a dead TCP connection would produce).
  void set_link_up(net::NodeId src, net::NodeId dst, bool up);

 private:
  friend class InProcTransport;

  bool deliver(net::NodeId src, net::NodeId dst, serial::Bytes encoded,
               rpc::FrameType type);
  bool roll_loss();

  std::vector<std::unique_ptr<InProcTransport>> nodes_;
  bool checksum_;

  std::mutex mutex_;
  double send_loss_ = 0.0;
  std::mt19937_64 loss_rng_{1};
  std::size_t corrupt_pending_ = 0;
  std::vector<bool> link_up_;
};

}  // namespace marp::transport
