#include "agent/platform.hpp"

#include "rpc/frame.hpp"
#include "transport/transport.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::agent {

AgentPlatform::AgentPlatform(net::Network& network, PlatformConfig config)
    : network_(network), config_(config), app_handlers_(network.size()) {
  hosts_.reserve(network.size());
  for (net::NodeId node = 0; node < network.size(); ++node) {
    hosts_.push_back(std::make_unique<AgentHost>(*this, node));
    network_.register_node(node, [this, node](const net::Message& message) {
      if (message.type == kAgentMessageType) {
        hosts_[node]->deliver_envelope(AgentEnvelope::decode(message.payload));
      } else if (app_handlers_[node]) {
        app_handlers_[node](message);
      } else {
        MARP_LOG_WARN("platform") << "no app handler at node " << node
                                  << " for type " << message.type;
      }
    });
  }
}

AgentHost& AgentPlatform::host(net::NodeId node) {
  MARP_REQUIRE(node < hosts_.size());
  return *hosts_[node];
}

void AgentPlatform::set_app_handler(net::NodeId node, net::Network::Handler handler) {
  MARP_REQUIRE(node < app_handlers_.size());
  app_handlers_[node] = std::move(handler);
}

void AgentPlatform::send_to_agent(net::NodeId src, net::NodeId dst_node,
                                  const AgentId& agent, net::MessageType type,
                                  serial::Bytes payload) {
  AgentEnvelope envelope{agent, type, std::move(payload)};
  network_.send(net::Message{src, dst_node, kAgentMessageType, envelope.encode()});
}

bool AgentPlatform::retract(const AgentId& id, net::NodeId to) {
  MARP_REQUIRE(to < hosts_.size());
  for (auto& host : hosts_) {
    auto it = host->agents_.find(id);
    if (it == host->agents_.end()) continue;
    if (host->node() == to) return true;  // already home
    std::unique_ptr<MobileAgent> agent = std::move(it->second.agent);
    host->agents_.erase(it);
    begin_migration(std::move(agent), host->node(), to);
    return true;
  }
  return false;
}

std::size_t AgentPlatform::live_agents() const {
  std::size_t count = 0;
  for (const auto& host : hosts_) count += host->agent_count();
  return count;
}

serial::Bytes AgentPlatform::encode_frame(const MobileAgent& agent) const {
  serial::Writer w;
  w.str(agent.type_name());
  agent.id().serialize(w);
  serial::Writer state;
  agent.serialize(state);
  w.raw(state.bytes());
  return w.take();
}

std::unique_ptr<MobileAgent> AgentPlatform::decode_frame(const serial::Bytes& bytes) const {
  serial::Reader r(bytes);
  const std::string type_name = r.str();
  const AgentId id = AgentId::deserialize(r);
  const serial::Bytes state = r.raw();
  if (!registry_.contains(type_name)) {
    throw serial::MalformedError("unknown agent type: " + type_name);
  }
  std::unique_ptr<MobileAgent> agent = registry_.create(type_name);
  serial::Reader state_reader(state);
  agent->deserialize(state_reader);
  if (!state_reader.at_end()) {
    throw serial::MalformedError("agent state not fully consumed: " + type_name);
  }
  agent->id_ = id;
  return agent;
}

AgentPlatform::RemoteTransfer AgentPlatform::receive_remote_transfer(
    const serial::Bytes& body) {
  const net::NodeId local = network_.local_node();
  MARP_REQUIRE_MSG(local != net::kInvalidNode,
                   "receive_remote_transfer needs an attached transport");
  const rpc::TransferBody transfer = rpc::decode_transfer_body(body);
  std::unique_ptr<MobileAgent> agent = decode_frame(transfer.frame);
  const AgentId id = agent->id();
  if (hosts_[local]->has_agent(id)) {
    // The agent is already live here — a replayed transfer (its ack was
    // lost or overtaken by the sender's revival). Adopting again would fork
    // the agent; drop, but still hand the token back so the sender's
    // revival timer is cancelled.
    ++stats_.remote_transfers_deduped;
    return {transfer.token, false, id};
  }
  ++stats_.migrations_completed;
  if (observer_) observer_->on_migration_completed(id, local);
  hosts_[local]->adopt(std::move(agent), /*arrival=*/true, net::kInvalidNode);
  return {transfer.token, true, id};
}

void AgentPlatform::acknowledge_remote_transfer(std::uint64_t token) {
  if (pending_transfers_.erase(token) == 0) return;  // late ack: already revived
  ++stats_.remote_transfers_acked;
}

void AgentPlatform::begin_migration(std::unique_ptr<MobileAgent> agent,
                                    net::NodeId src, net::NodeId dest) {
  MARP_REQUIRE(dest < network_.size());
  MARP_REQUIRE(dest != src);

  // True serialization round trip: the source-side object dies here and the
  // destination (or the failure path) reconstructs from bytes.
  const AgentId id = agent->id();
  const serial::Bytes frame = encode_frame(*agent);
  agent.reset();

  const std::size_t wire_bytes = frame.size() + config_.migration_overhead_bytes;
  ++stats_.migrations_started;
  stats_.migration_bytes += wire_bytes;
  if (observer_) observer_->on_migration_started(id, src, dest, wire_bytes);

  auto& simulator = network_.simulator();

  if (network_.is_remote(dest)) {
    // Real substrate: hand the token-wrapped frame to the transport (the
    // receiving process rehydrates via receive_remote_transfer()) and arm
    // the revival timer unconditionally. A successful send only means the
    // kernel took the bytes — the receiver may still checksum-reject the
    // frame, fail to rehydrate it, or die before adopting. Delivery is
    // confirmed by the transfer ack (acknowledge_remote_transfer), which
    // cancels the revival; without one this is the paper's unreachable-host
    // case — the agent is revived here after the migration timeout and
    // retries or skips the replica.
    const std::uint64_t token = ++next_transfer_token_;
    pending_transfers_.insert(token);
    network_.transport()->send_agent_frame(
        dest, rpc::encode_transfer_body(token, frame), AgentIdHash{}(id));
    simulator.schedule(config_.migration_timeout,
                       [this, frame, id, src, dest, token] {
      if (pending_transfers_.erase(token) == 0) return;  // acked — delivered
      ++stats_.migrations_failed;
      if (observer_) observer_->on_migration_failed(id, src, dest);
      hosts_[src]->adopt(decode_frame(frame), /*arrival=*/false, dest);
    }, static_cast<sim::ActorId>(src));
    return;
  }

  // A transfer across a chaos-lossy link can lose the frame even when both
  // endpoints are live: the source detects it exactly like an unreachable
  // destination (connection timeout) and the agent retries from where it was.
  const bool reachable = network_.node_up(src) && network_.node_up(dest) &&
                         network_.link_up(src, dest) &&
                         !network_.roll_transfer_loss();
  if (!reachable) {
    // Connection never establishes; source detects after the timeout.
    simulator.schedule(config_.migration_timeout, [this, frame, id, src, dest] {
      ++stats_.migrations_failed;
      if (observer_) observer_->on_migration_failed(id, src, dest);
      hosts_[src]->adopt(decode_frame(frame), /*arrival=*/false, dest);
    }, static_cast<sim::ActorId>(src));
    return;
  }

  const sim::SimTime latency = network_.sample_latency(src, dest, wire_bytes);
  simulator.schedule(latency, [this, frame, id, src, dest] {
    if (!network_.node_up(dest)) {
      // Destination died in flight; source times out and revives the agent.
      const sim::SimTime remaining = config_.migration_timeout;
      network_.simulator().schedule(remaining, [this, frame, id, src, dest] {
        ++stats_.migrations_failed;
        if (observer_) observer_->on_migration_failed(id, src, dest);
        hosts_[src]->adopt(decode_frame(frame), /*arrival=*/false, dest);
      }, static_cast<sim::ActorId>(src));
      return;
    }
    ++stats_.migrations_completed;
    if (observer_) observer_->on_migration_completed(id, dest);
    hosts_[dest]->adopt(decode_frame(frame), /*arrival=*/true, net::kInvalidNode);
  }, static_cast<sim::ActorId>(dest));
}

}  // namespace marp::agent
