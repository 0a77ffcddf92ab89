#include "transport/inproc_transport.hpp"

#include "util/assert.hpp"

namespace marp::transport {

void InProcTransport::open() {
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = true;
}

void InProcTransport::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  received_.clear();
}

void InProcTransport::poll(Deadline deadline, std::vector<Inbound>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  arrived_.wait_until(lock, deadline, [this] { return woken_ || !received_.empty(); });
  woken_ = false;
  for (Inbound& inbound : received_) out.push_back(std::move(inbound));
  received_.clear();
}

void InProcTransport::wake() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    woken_ = true;
  }
  arrived_.notify_one();
}

const rpc::TraceContext* InProcTransport::stamp(rpc::TraceContext* out,
                                                std::uint64_t session,
                                                std::uint64_t span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!trace_clock_) return nullptr;
  out->session_id = session;
  out->span_id = span;
  out->origin = local_;
  out->send_ts_us = trace_clock_();
  return out;
}

bool InProcTransport::send_message(const net::Message& message) {
  rpc::TraceContext trace;
  const rpc::TraceContext* tp = stamp(&trace, 0, seq_ + 1);
  const serial::Bytes encoded =
      rpc::encode_frame(rpc::FrameType::AppMessage, local_, message.dst, ++seq_,
                        rpc::encode_app_body(message), mesh_.checksum(),
                        kIncarnation, tp);
  return mesh_.deliver(local_, message.dst, encoded, rpc::FrameType::AppMessage);
}

bool InProcTransport::send_agent_frame(net::NodeId dst, const serial::Bytes& frame,
                                       std::uint64_t trace_session) {
  rpc::TraceContext trace;
  const rpc::TraceContext* tp = stamp(&trace, trace_session, seq_ + 1);
  const serial::Bytes encoded = rpc::encode_frame(
      rpc::FrameType::AgentTransfer, local_, dst, ++seq_, frame, mesh_.checksum(),
      kIncarnation, tp);
  return mesh_.deliver(local_, dst, encoded, rpc::FrameType::AgentTransfer);
}

bool InProcTransport::send_agent_ack(net::NodeId dst, std::uint64_t token) {
  rpc::TraceContext trace;
  const rpc::TraceContext* tp = stamp(&trace, 0, seq_ + 1);
  const serial::Bytes encoded =
      rpc::encode_frame(rpc::FrameType::AgentTransferAck, local_, dst, ++seq_,
                        rpc::encode_transfer_ack_body(token), mesh_.checksum(),
                        kIncarnation, tp);
  return mesh_.deliver(local_, dst, encoded, rpc::FrameType::AgentTransferAck);
}

bool InProcTransport::send_announce(net::NodeId dst) {
  const serial::Bytes encoded = rpc::encode_frame(
      rpc::FrameType::Announce, local_, dst, ++seq_,
      rpc::encode_announce_body({local_, kIncarnation}), mesh_.checksum(),
      kIncarnation);
  return mesh_.deliver(local_, dst, encoded, rpc::FrameType::Announce);
}

void InProcTransport::set_trace_clock(TraceClock clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_clock_ = std::move(clock);
}

bool InProcTransport::reachable(net::NodeId dst) { return dst < mesh_.size(); }

TransportStats InProcTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void InProcTransport::note_sent(const serial::Bytes& encoded, rpc::FrameType type) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.frames_sent;
  stats_.bytes_sent += encoded.size();
  if (type == rpc::FrameType::AgentTransfer) ++stats_.agent_frames_sent;
  if (type == rpc::FrameType::AgentTransferAck) ++stats_.agent_acks_sent;
}

void InProcTransport::receive_encoded(const serial::Bytes& encoded) {
  rpc::Frame frame;
  const rpc::DecodeStatus status = rpc::decode_frame(encoded, &frame);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    if (status == rpc::DecodeStatus::ChecksumMismatch) {
      ++stats_.checksum_rejected;
      return;
    }
    if (status != rpc::DecodeStatus::Ok) {
      ++stats_.malformed_rejected;
      return;
    }
    ++stats_.frames_received;
    stats_.bytes_received += encoded.size();
    if (trace_clock_ && frame.trace.has_value()) {
      frame.recv_ts_us = trace_clock_();
    }
    if (frame.type() == rpc::FrameType::AgentTransfer) {
      ++stats_.agent_frames_received;
    }
    if (frame.type() == rpc::FrameType::AgentTransferAck) {
      ++stats_.agent_acks_received;
    }
    received_.push_back({std::move(frame), ReplyFn{}});
  }
  arrived_.notify_one();
}

InProcMesh::InProcMesh(std::size_t size, bool checksum)
    : checksum_(checksum), link_up_(size * size, true) {
  nodes_.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    nodes_.push_back(
        std::make_unique<InProcTransport>(*this, static_cast<net::NodeId>(i)));
  }
}

void InProcMesh::set_send_loss(double p, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  send_loss_ = p;
  loss_rng_.seed(seed);
}

void InProcMesh::set_link_up(net::NodeId src, net::NodeId dst, bool up) {
  MARP_REQUIRE(src < size() && dst < size());
  std::lock_guard<std::mutex> lock(mutex_);
  link_up_[src * size() + dst] = up;
}

bool InProcMesh::roll_loss() {
  return send_loss_ > 0.0 && std::bernoulli_distribution(send_loss_)(loss_rng_);
}

bool InProcMesh::deliver(net::NodeId src, net::NodeId dst, serial::Bytes encoded,
                         rpc::FrameType type) {
  if (dst >= size()) return false;
  InProcTransport& sender = *nodes_[src];
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!link_up_[src * size() + dst]) {
      // A dead connection: messages vanish silently (the sender's write
      // succeeded before the peer died), migrations fail loudly (the
      // platform needs the failure to revive the agent).
      return type != rpc::FrameType::AgentTransfer;
    }
    if (type == rpc::FrameType::AppMessage && roll_loss()) {
      std::lock_guard<std::mutex> sender_lock(sender.mutex_);
      ++sender.stats_.loss_injected;
      return true;
    }
    if (corrupt_pending_ > 0 && !encoded.empty()) {
      --corrupt_pending_;
      encoded.back() ^= 0xFF;  // damage the last body byte, post-checksum
    }
  }
  sender.note_sent(encoded, type);
  nodes_[dst]->receive_encoded(encoded);
  return true;
}

}  // namespace marp::transport
