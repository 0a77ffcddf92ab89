// AgentPlatform: the whole-network agent runtime.
//
// Owns one AgentHost per node, the type registry, and the migration
// machinery. Migration is a true serialize → transfer → reconstruct round
// trip, charged through the network's latency model by frame size. Failure
// semantics follow the paper (§2): a migration to a down/unreachable host is
// detected after `migration_timeout` and the agent is revived where it was,
// with on_migration_failed() letting it retry or skip the replica.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "agent/host.hpp"
#include "agent/registry.hpp"
#include "net/network.hpp"

namespace marp::agent {

struct PlatformConfig {
  /// Time for the source to conclude a migration failed (connection
  /// timeout). The paper: "If a mobile agent cannot migrate to a replicated
  /// server host after certain amount of time, the protocol assumes that
  /// the replica process at the host has temporarily failed."
  sim::SimTime migration_timeout = sim::SimTime::millis(50);

  /// Fixed per-migration overhead on top of serialized state (class name,
  /// codebase reference, frame headers — Aglets transfers are not free).
  std::size_t migration_overhead_bytes = 512;
};

/// Observer for agent lifecycle events (timeline recording, debugging UIs —
/// the paper's §4 prototype had "an interface … to visualize the
/// execution"). All callbacks are optional; default is no-op.
class PlatformObserver {
 public:
  virtual ~PlatformObserver() = default;
  virtual void on_agent_created(const AgentId& id, const std::string& type,
                                net::NodeId at) {
    (void)id, (void)type, (void)at;
  }
  virtual void on_agent_disposed(const AgentId& id, net::NodeId at) {
    (void)id, (void)at;
  }
  virtual void on_migration_started(const AgentId& id, net::NodeId from,
                                    net::NodeId to, std::size_t bytes) {
    (void)id, (void)from, (void)to, (void)bytes;
  }
  virtual void on_migration_completed(const AgentId& id, net::NodeId at) {
    (void)id, (void)at;
  }
  virtual void on_migration_failed(const AgentId& id, net::NodeId from,
                                   net::NodeId to) {
    (void)id, (void)from, (void)to;
  }
};

struct PlatformStats {
  std::uint64_t agents_created = 0;
  std::uint64_t agents_disposed = 0;
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_failed = 0;
  std::uint64_t migration_bytes = 0;
  /// Remote substrate only: transfer acks that cancelled a pending revival
  /// (sender side) and duplicate transfers dropped because the agent was
  /// already live here (receiver side).
  std::uint64_t remote_transfers_acked = 0;
  std::uint64_t remote_transfers_deduped = 0;
};

class AgentPlatform {
 public:
  AgentPlatform(net::Network& network, PlatformConfig config = {});

  AgentPlatform(const AgentPlatform&) = delete;
  AgentPlatform& operator=(const AgentPlatform&) = delete;

  net::Network& network() noexcept { return network_; }
  sim::Simulator& simulator() noexcept { return network_.simulator(); }
  AgentRegistry& registry() noexcept { return registry_; }
  const PlatformConfig& config() const noexcept { return config_; }

  AgentHost& host(net::NodeId node);
  std::size_t size() const noexcept { return hosts_.size(); }

  /// Install the handler for non-agent application messages at `node`.
  /// (The platform owns the node's network registration and demuxes
  /// agent envelopes to the host, everything else to this handler.)
  void set_app_handler(net::NodeId node, net::Network::Handler handler);

  /// Send a message addressed to an agent wherever it currently is — the
  /// sender names the node it believes hosts the agent (MARP replies to
  /// the node the request came from).
  void send_to_agent(net::NodeId src, net::NodeId dst_node, const AgentId& agent,
                     net::MessageType type, serial::Bytes payload);

  const PlatformStats& stats() const noexcept { return stats_; }

  /// Install a lifecycle observer (nullptr to remove). Not owned.
  void set_observer(PlatformObserver* observer) noexcept { observer_ = observer; }
  PlatformObserver* observer() const noexcept { return observer_; }

  /// Total number of agents currently hosted anywhere (in-flight excluded).
  std::size_t live_agents() const;

  /// Aglets' "retract": forcibly pull agent `id` from whichever host holds
  /// it to `to` (it lands with on_arrival, like any migration). Returns
  /// false if the agent is not currently hosted anywhere (mid-flight or
  /// disposed); true if it was moved or is already at `to`.
  bool retract(const AgentId& id, net::NodeId to);

  // ---- migration frame codec (public: the real transport ships these) ----

  /// [str type-name][AgentId][length-prefixed state] — what actually crosses
  /// the wire (inside an rpc AgentTransfer frame on the real substrate).
  serial::Bytes encode_frame(const MobileAgent& agent) const;
  /// Rehydrate; throws serial::DecodeError subclasses on malformed frames.
  std::unique_ptr<MobileAgent> decode_frame(const serial::Bytes& bytes) const;

  /// Outcome of one transfer body arriving off the wire.
  struct RemoteTransfer {
    std::uint64_t token = 0;  ///< echo back in an AgentTransferAck
    bool adopted = false;     ///< false: duplicate — the agent was already live here
    AgentId id;
  };

  /// A token-wrapped transfer body (rpc::TransferBody) arrived off the wire:
  /// rehydrate the agent and adopt it at this process's local node
  /// (on_arrival fires there). A transfer whose agent is already hosted here
  /// is dropped instead of adopted twice, but still reports its token so the
  /// caller acks it and the sender stands down. Must run on the driver
  /// thread. Throws serial::DecodeError on malformed bodies — the caller
  /// must NOT ack then: no adoption happened, and the sender's always-armed
  /// migration timer revives the agent there.
  RemoteTransfer receive_remote_transfer(const serial::Bytes& body);

  /// A transfer ack came back: delivery is confirmed, cancel the pending
  /// revival for `token`. A late ack (the revival already fired) is a no-op.
  void acknowledge_remote_transfer(std::uint64_t token);

  /// Transfers shipped but neither acked nor revived yet. At quiescence this
  /// must be 0 on every node: each in-flight agent either arrived (ack) or
  /// came back (revival) — the crash-recovery harness asserts exactly that.
  std::size_t pending_remote_transfers() const noexcept {
    return pending_transfers_.size();
  }

 private:
  friend class AgentHost;
  friend class AgentContext;

  /// Serialize + ship an agent from `src` to `dest`.
  void begin_migration(std::unique_ptr<MobileAgent> agent, net::NodeId src,
                       net::NodeId dest);

  void note_disposed() { ++stats_.agents_disposed; }
  void note_created() { ++stats_.agents_created; }

  net::Network& network_;
  PlatformConfig config_;
  AgentRegistry registry_;
  std::vector<std::unique_ptr<AgentHost>> hosts_;
  std::vector<net::Network::Handler> app_handlers_;
  PlatformStats stats_;
  PlatformObserver* observer_ = nullptr;

  /// Remote substrate: transfer tokens sent but not yet acked. A token still
  /// present when its revival timer fires means the transfer is presumed
  /// lost and the agent is revived at the source.
  std::uint64_t next_transfer_token_ = 0;
  std::unordered_set<std::uint64_t> pending_transfers_;
};

}  // namespace marp::agent
