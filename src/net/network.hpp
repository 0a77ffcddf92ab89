// Message-level network simulation.
//
// The network owns the topology and a latency model, delivers messages by
// scheduling simulator events, and tracks traffic statistics. Nodes register
// a handler; a node can also be marked down (fail-stop, §2 of the paper):
// messages to or from a down node are silently dropped, matching the paper's
// assumption that a failed process halts without malicious behaviour.
// Partitions cut the links between two groups while both stay alive.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace marp::transport {
class Transport;
}

namespace marp::net {

struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Link-fault accounting (chaos injection; see LinkFaults).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint64_t fault_reorders = 0;
  std::unordered_map<MessageType, std::uint64_t> sent_by_type;
  std::unordered_map<MessageType, std::uint64_t> bytes_by_type;
};

/// Probabilistic faults on a live link (chaos injection). Unlike the global
/// `drop_probability`, these model an adversarial-but-live channel: a
/// fault-dropped message is gone for good (never transport-retransmitted),
/// a duplicated one is delivered twice with independent latencies, and a
/// reordered one takes an extra delay spike so it can overtake or be
/// overtaken by later traffic. All rolls come from the network's seeded
/// stream, so a run replays bit-for-bit from its seed.
struct LinkFaults {
  double drop = 0.0;       ///< probability a message is silently lost
  double duplicate = 0.0;  ///< probability a second copy is delivered
  double reorder = 0.0;    ///< probability a copy takes a latency spike
  /// Upper bound of the reorder spike (uniform in (0, reorder_delay]).
  sim::SimTime reorder_delay = sim::SimTime::millis(20);

  bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0;
  }
};

/// Why a message never reached its destination's handler.
enum class DropReason : std::uint8_t {
  SourceDown,  ///< the sender was down at send time
  LinkCut,     ///< the directed link was cut (partition)
  RandomLoss,  ///< the global drop_probability die came up (may retransmit)
  FaultDrop,   ///< a LinkFaults chaos drop (final, never retransmitted)
  DestDown,    ///< the destination was down at delivery time
  NoHandler,   ///< delivered to a node with no registered handler
  TransportSend ///< the attached real transport could not send (peer gone)
};

const char* drop_reason_name(DropReason reason) noexcept;

/// Observer for transport-level events (tracing, debugging). Callbacks fire
/// synchronously inside send()/deliver(); default is no-op, not owned.
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void on_message_dropped(const Message& message, DropReason reason) {
    (void)message, (void)reason;
  }
  /// A RandomLoss copy was queued for transport-level retransmission
  /// (LossMode::Retransmit only).
  virtual void on_transport_retransmit(const Message& message) { (void)message; }
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(sim::Simulator& simulator, Topology topology,
          std::unique_ptr<LatencyModel> latency);

  std::size_t size() const noexcept { return topology_.size(); }
  const Topology& topology() const noexcept { return topology_; }
  sim::Simulator& simulator() noexcept { return sim_; }

  /// Install the delivery handler for `node`. One handler per node.
  void register_node(NodeId node, Handler handler);

  /// Fail-stop / recover a node. While down, a node neither sends nor
  /// receives; messages in flight to it at delivery time are dropped.
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const;

  /// Cut (or restore) the directed link src→dst.
  void set_link_up(NodeId src, NodeId dst, bool up);
  bool link_up(NodeId src, NodeId dst) const;

  /// Partition: cut every link between `group` and its complement.
  void partition(const std::vector<NodeId>& group);
  /// Restore all cut links (does not revive down nodes).
  void heal_partition();

  /// What happens to a message hit by `drop_probability`.
  enum class LossMode : std::uint8_t {
    /// The message is gone (UDP-like). Protocols need their own retries.
    Drop,
    /// The transport retransmits after `retransmit_timeout` until the loss
    /// die stops coming up — the paper's §2 model: "reliable logical
    /// communication channels whose transmission delays are unpredictable
    /// but finite". Loss adds latency, never silence (unless an endpoint
    /// is down, which still drops: fail-stop beats reliability).
    Retransmit
  };

  /// Probability that any message is lost in flight (default 0).
  void set_drop_probability(double p) { drop_probability_ = p; }
  void set_loss_mode(LossMode mode) { loss_mode_ = mode; }
  void set_retransmit_timeout(sim::SimTime timeout) { retransmit_timeout_ = timeout; }

  /// Chaos faults applied to every link.
  void set_default_link_faults(const LinkFaults& faults) { default_faults_ = faults; }
  /// Reset every link to fault-free.
  void clear_link_faults() { default_faults_ = LinkFaults{}; }

  /// One seeded loss roll for a non-message transfer (agent migration
  /// frames); true = the frame is lost in flight. Uses the links' `drop`
  /// fault probability so migrations and messages see the same loss regime.
  bool roll_transfer_loss();

  /// Send one message. Delivery is scheduled after a sampled latency; the
  /// message is dropped if the source is down, the link is cut, or the
  /// destination is down at delivery time.
  void send(Message message);

  /// Send the same payload to several destinations (independent latencies,
  /// as with N unicasts — the paper's "broadcast" is implemented this way
  /// by Aglets-style messaging).
  void multicast(NodeId src, const std::vector<NodeId>& dsts, MessageType type,
                 const serial::Bytes& payload);

  /// Multicast to every node except `src`.
  void broadcast(NodeId src, MessageType type, const serial::Bytes& payload);

  /// One-way latency sample for `bytes` between two nodes; exposed so the
  /// agent platform can charge migrations through the same model.
  sim::SimTime sample_latency(NodeId src, NodeId dst, std::size_t bytes);

  const TrafficStats& stats() const noexcept { return stats_; }

  /// Install a transport observer (nullptr to remove). Not owned.
  void set_observer(NetworkObserver* observer) noexcept { observer_ = observer; }
  NetworkObserver* observer() const noexcept { return observer_; }

  // ---- real substrate (socket / in-process transport) ----
  //
  // With a Transport attached, this Network instance belongs to ONE real
  // node (`local`): sends to any other node are handed to the transport
  // instead of being simulated, and frames received off the wire re-enter
  // through inject(). Local (loopback) traffic still flows through the
  // simulated path, so the per-process event loop — and with it every timer
  // and agent callback — stays single-threaded and deterministic given the
  // arrival order. Without a transport (the default) nothing changes:
  // the Network simulates the whole cluster exactly as before.

  /// Attach (nullptr to detach) the real substrate for this node. Not owned.
  void attach_transport(transport::Transport* transport, NodeId local_node);
  transport::Transport* transport() const noexcept { return transport_; }
  /// The node this process embodies; kInvalidNode in pure simulation.
  NodeId local_node() const noexcept { return local_node_; }
  /// True when `node` lives in another process (transport attached and not
  /// the local node).
  bool is_remote(NodeId node) const noexcept {
    return transport_ != nullptr && node != local_node_;
  }

  /// Deliver a message received from the wire to the local node's handler
  /// (scheduled as an immediate simulator event so handlers always run on
  /// the driver thread). Counts as a delivery, not a send.
  void inject(Message message);

 private:
  void drop(const Message& message, DropReason reason);
  void deliver(Message message);
  /// Schedule one delivery of `message` after the sampled latency, applying
  /// the link's reorder fault to this copy.
  void schedule_delivery(const Message& message, const LinkFaults& faults);
  std::uint64_t link_key(NodeId src, NodeId dst) const {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  sim::Simulator& sim_;
  Topology topology_;
  std::unique_ptr<LatencyModel> latency_;
  sim::Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<bool> node_up_;
  std::unordered_set<std::uint64_t> cut_links_;
  double drop_probability_ = 0.0;
  LossMode loss_mode_ = LossMode::Drop;
  sim::SimTime retransmit_timeout_ = sim::SimTime::millis(200);
  LinkFaults default_faults_;
  TrafficStats stats_;
  NetworkObserver* observer_ = nullptr;
  transport::Transport* transport_ = nullptr;
  NodeId local_node_ = kInvalidNode;
};

}  // namespace marp::net
