#include "net/network.hpp"

#include "transport/transport.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::net {

const char* drop_reason_name(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::SourceDown: return "source-down";
    case DropReason::LinkCut: return "link-cut";
    case DropReason::RandomLoss: return "random-loss";
    case DropReason::FaultDrop: return "fault-drop";
    case DropReason::DestDown: return "dest-down";
    case DropReason::NoHandler: return "no-handler";
    case DropReason::TransportSend: return "transport-send";
  }
  return "?";
}

Network::Network(sim::Simulator& simulator, Topology topology,
                 std::unique_ptr<LatencyModel> latency)
    : sim_(simulator),
      topology_(std::move(topology)),
      latency_(std::move(latency)),
      rng_(simulator.rng_factory().stream("network")),
      handlers_(topology_.size()),
      node_up_(topology_.size(), true) {
  MARP_REQUIRE(latency_ != nullptr);
  MARP_REQUIRE(topology_.size() >= 1);
}

void Network::register_node(NodeId node, Handler handler) {
  MARP_REQUIRE(node < size());
  MARP_REQUIRE_MSG(!handlers_[node], "node handler already registered");
  handlers_[node] = std::move(handler);
}

void Network::set_node_up(NodeId node, bool up) {
  MARP_REQUIRE(node < size());
  node_up_[node] = up;
}

bool Network::node_up(NodeId node) const {
  MARP_REQUIRE(node < size());
  return node_up_[node];
}

void Network::set_link_up(NodeId src, NodeId dst, bool up) {
  MARP_REQUIRE(src < size() && dst < size());
  if (up) {
    cut_links_.erase(link_key(src, dst));
  } else {
    cut_links_.insert(link_key(src, dst));
  }
}

bool Network::link_up(NodeId src, NodeId dst) const {
  return !cut_links_.contains(link_key(src, dst));
}

void Network::partition(const std::vector<NodeId>& group) {
  std::vector<bool> in_group(size(), false);
  for (NodeId node : group) {
    MARP_REQUIRE(node < size());
    in_group[node] = true;
  }
  for (NodeId a = 0; a < size(); ++a) {
    for (NodeId b = 0; b < size(); ++b) {
      if (a != b && in_group[a] != in_group[b]) {
        cut_links_.insert(link_key(a, b));
      }
    }
  }
}

void Network::heal_partition() { cut_links_.clear(); }

bool Network::roll_transfer_loss() {
  return default_faults_.drop > 0.0 && rng_.bernoulli(default_faults_.drop);
}

sim::SimTime Network::sample_latency(NodeId src, NodeId dst, std::size_t bytes) {
  return latency_->sample(src, dst, bytes, rng_);
}

void Network::send(Message message) {
  MARP_REQUIRE(message.src < size() && message.dst < size());
  ++stats_.messages_sent;
  stats_.bytes_sent += message.wire_size();
  ++stats_.sent_by_type[message.type];
  stats_.bytes_by_type[message.type] += message.wire_size();

  if (transport_ != nullptr && message.dst != local_node_) {
    // Real substrate: the wire owns loss/latency/ordering for remote
    // destinations; the simulated knobs below only shape local traffic.
    if (!transport_->send_message(message)) {
      drop(message, DropReason::TransportSend);
    }
    return;
  }

  if (!node_up_[message.src]) {
    drop(message, DropReason::SourceDown);
    return;
  }
  if (!link_up(message.src, message.dst)) {
    drop(message, DropReason::LinkCut);
    return;
  }
  if (drop_probability_ > 0.0 && rng_.bernoulli(drop_probability_)) {
    drop(message, DropReason::RandomLoss);
    if (loss_mode_ == LossMode::Retransmit) {
      if (observer_) observer_->on_transport_retransmit(message);
      // Transport-level retry: the copy re-enters send() after the RTO (and
      // may be lost again — delays stay finite with probability 1).
      sim_.schedule(retransmit_timeout_, [this, msg = std::move(message)]() mutable {
        send(std::move(msg));
      });
    }
    return;
  }

  const LinkFaults& faults = default_faults_;
  if (faults.any()) {
    // Chaos faults model an adversarial live channel: a fault drop is final
    // (protocols must carry their own retries), duplication delivers an
    // extra copy with its own latency, reordering spikes one copy's delay.
    if (faults.drop > 0.0 && rng_.bernoulli(faults.drop)) {
      ++stats_.fault_drops;
      drop(message, DropReason::FaultDrop);
      return;
    }
    if (faults.duplicate > 0.0 && rng_.bernoulli(faults.duplicate)) {
      ++stats_.fault_duplicates;
      schedule_delivery(message, faults);
    }
  }
  schedule_delivery(message, faults);
}

void Network::schedule_delivery(const Message& message, const LinkFaults& faults) {
  sim::SimTime latency =
      latency_->sample(message.src, message.dst, message.wire_size(), rng_);
  if (faults.reorder > 0.0 && rng_.bernoulli(faults.reorder)) {
    ++stats_.fault_reorders;
    latency = latency + sim::SimTime::micros(static_cast<std::int64_t>(
                            rng_.uniform(1.0, static_cast<double>(
                                                  faults.reorder_delay.as_micros()))));
  }
  // Actor tag: delivery mutates the destination's state (see simulator.hpp).
  sim_.schedule(
      latency, [this, msg = message]() mutable { deliver(std::move(msg)); },
      static_cast<sim::ActorId>(message.dst));
}

void Network::multicast(NodeId src, const std::vector<NodeId>& dsts,
                        MessageType type, const serial::Bytes& payload) {
  for (NodeId dst : dsts) {
    if (dst == src) continue;
    send(Message{src, dst, type, payload});
  }
}

void Network::broadcast(NodeId src, MessageType type, const serial::Bytes& payload) {
  for (NodeId dst = 0; dst < size(); ++dst) {
    if (dst == src) continue;
    send(Message{src, dst, type, payload});
  }
}

void Network::attach_transport(transport::Transport* transport, NodeId local_node) {
  if (transport != nullptr) {
    MARP_REQUIRE(local_node < size());
    transport_ = transport;
    local_node_ = local_node;
  } else {
    transport_ = nullptr;
    local_node_ = kInvalidNode;
  }
}

void Network::inject(Message message) {
  MARP_REQUIRE(message.dst < size());
  const auto actor = static_cast<sim::ActorId>(message.dst);
  // Zero-delay event so the handler runs on the simulator's driver thread,
  // after whatever event is executing when the frame arrives.
  sim_.schedule(
      sim::SimTime::zero(),
      [this, msg = std::move(message)]() mutable { deliver(std::move(msg)); },
      actor);
}

void Network::drop(const Message& message, DropReason reason) {
  ++stats_.messages_dropped;
  if (observer_) observer_->on_message_dropped(message, reason);
}

void Network::deliver(Message message) {
  if (!node_up_[message.dst]) {
    drop(message, DropReason::DestDown);
    return;
  }
  if (!handlers_[message.dst]) {
    MARP_LOG_WARN("net") << "message type " << message.type << " to node "
                         << message.dst << " has no handler";
    drop(message, DropReason::NoHandler);
    return;
  }
  ++stats_.messages_delivered;
  handlers_[message.dst](message);
}

}  // namespace marp::net
