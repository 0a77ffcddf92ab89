// RealNode — one MARP cluster member as a real process (or thread).
//
// The trick that keeps `src/marp/` and `src/agent/` untouched: each node
// instantiates the *entire* protocol stack — Simulator, Network(N),
// AgentPlatform, MarpProtocol with all N servers — but attaches a transport,
// so only the local node's server ever sees traffic; the other N−1 are inert
// shadows. One driver thread owns every protocol object and is the node's
// only thread — it also reads the node's sockets:
//
//   driver thread
//   --------------------------------------------------------------------
//   transport.poll(next timer)   // waits on the sockets, returns frames
//   sim.run(virtual_now)         // due timers fire
//   apply each frame:
//     AppMessage       → Network::inject()
//     AgentTransfer    → receive_remote_transfer(), then ack back to sender
//     AgentTransferAck → cancel revival timer
//     Announce         → raise the peer's incarnation floor
//     ControlRequest   → serve RPC, reply on the same connection
//   sim.run(virtual_now)
//
// Virtual time is wall time: `sim.run(elapsed-µs)` advances the
// discrete-event clock in step with the wall clock, so every protocol timer
// (ack retries, COMMIT retransmission, patrols) fires on schedule without a
// single change to the timer code. Determinism is traded away exactly where
// a real network trades it away — frame arrival order — and nowhere else.
//
// The node also runs a closed-loop workload (session i+1 submitted when
// session i completes) and serves the control RPC (Ping/Status/Dump/
// Shutdown) that the cluster harness drives.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "agent/platform.hpp"
#include "checkpoint/durable.hpp"
#include "marp/protocol.hpp"
#include "net/network.hpp"
#include "rpc/control.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "trace/tracer.hpp"
#include "transport/socket_transport.hpp"

namespace marp::transport {

struct RealNodeConfig {
  net::NodeId node = 0;
  std::vector<Endpoint> endpoints;  ///< listen address per node id
  core::MarpConfig marp;            ///< reliable_commit strongly recommended
  std::uint64_t seed = 1;

  // ---- closed-loop workload ----
  std::uint64_t sessions = 0;        ///< update sessions this node originates
  std::uint64_t keys_per_origin = 2; ///< distinct keys cycled through
  /// false: each origin writes its own "nI/kJ" keys — per-key commit order
  /// is then substrate-independent (the equivalence oracle). true: every
  /// node writes the same "shared/kJ" keys — real contention, convergence
  /// asserted instead of equality with the sim.
  bool shared_keys = false;
  /// Wall-clock delay before the first session (lets every peer's listener
  /// come up so the cluster starts from a connected mesh).
  sim::SimTime start_delay = sim::SimTime::millis(300);

  // ---- wire knobs ----
  bool checksum = true;
  double send_loss = 0.0;  ///< injected socket-level loss (AppMessage only)
  /// Source-side revival window for remote migrations: if no transfer ack
  /// comes back within this (wall-clock) time the agent is revived locally.
  /// Far above the sim default — here virtual time is wall time, an ack
  /// round trip competes with scheduler noise, and a premature revival
  /// forks a delivered agent.
  sim::SimTime migration_timeout = sim::SimTime::seconds(2);

  // ---- crash recovery (PR 7) ----
  /// Directory for the durable checkpoint + journal; empty = volatile node
  /// (the pre-PR-7 behaviour). Recovery happens in the constructor, before
  /// any frame is served.
  std::string data_dir;
  /// This process's reincarnation count, assigned by the supervisor
  /// (0 = first life). Stamped into every outbound frame; peers fence
  /// frames below their per-node floor.
  std::uint16_t incarnation = 0;
  /// Shared virtual-clock epoch: microseconds on the CLOCK_MONOTONIC
  /// (steady_clock) timeline that all cluster members treat as virtual time
  /// zero. 0 = capture at driver start (single-life behaviour). The
  /// supervisor passes one captured value to every spawn AND respawn, so a
  /// reincarnated node's clock resumes *ahead* of its first life instead of
  /// restarting at zero — otherwise its commit Versions go backwards and
  /// the Thomas rule silently rejects everything it writes after rebirth.
  std::int64_t clock_epoch_us = 0;
  /// Wall time a reincarnated node spends catching up (announce + anti-
  /// entropy pull) before it resumes originating sessions.
  sim::SimTime catchup_delay = sim::SimTime::millis(500);
  /// Periodic durable checkpoint cadence (zero = journal-only; a final
  /// checkpoint is still written at clean shutdown).
  sim::SimTime checkpoint_interval = sim::SimTime::zero();
  /// Closed-loop watchdog (zero = off): if the workload makes no progress
  /// for this long — the in-flight agent died with a crashed host, so its
  /// outcome will never arrive — the current session is resubmitted.
  /// Duplicates are safe: a session writes the same value under the same
  /// writer, so the Thomas rule converges, and late REPORTs deduplicate.
  sim::SimTime session_retry_timeout = sim::SimTime::zero();

  // ---- distributed tracing (PR 8) ----
  /// Span-ring capacity for this node's Tracer; 0 = tracing off (no tracer
  /// is constructed, no TraceContext tails on the wire — byte-identical to
  /// an untraced cluster).
  std::size_t trace_capacity = 0;
  /// Injected offset added to this node's trace clock AND its exported span
  /// timestamps — a deterministic stand-in for per-host clock skew, so the
  /// merge step's pairwise alignment can be tested against a known truth.
  /// Protocol time (the virtual clock, commit Versions) is NOT affected.
  std::int64_t trace_skew_us = 0;
  /// Build the node's transport. Default (null): a SocketTransport on
  /// `endpoints`. Tests substitute an InProcMesh-backed transport to run a
  /// deterministic multi-node "cluster" in one process.
  std::function<std::unique_ptr<NodeTransport>(const RealNodeConfig&)>
      transport_factory;
};

/// The key node `origin` writes in session `i` under a workload config.
std::string workload_key(const RealNodeConfig& config, net::NodeId origin,
                         std::uint64_t i);
/// The value it writes (encodes origin and session, so stores are
/// comparable across substrates).
std::string workload_value(net::NodeId origin, std::uint64_t i);

class RealNode {
 public:
  explicit RealNode(RealNodeConfig config);
  ~RealNode();

  RealNode(const RealNode&) = delete;
  RealNode& operator=(const RealNode&) = delete;

  /// Run the node on the calling thread until Shutdown (tools/marp_node).
  void run();
  /// Run on a background thread (in-process cluster tests) …
  void start();
  /// … and wait for it to finish.
  void join();
  /// Ask the run loop to exit: sets the flag and wakes the transport's
  /// poll (thread-safe; also triggered by Shutdown RPC).
  void request_stop();

  net::NodeId node() const noexcept { return config_.node; }
  const RealNodeConfig& config() const noexcept { return config_; }

  /// Snapshot used by the Status/Dump RPCs. Thread-safe.
  rpc::NodeStatus status();
  rpc::NodeDump dump();
  /// Span ring + link clock samples (empty when tracing is off). Thread-safe.
  rpc::NodeTrace trace_dump();
  /// Full counter registry (the same namespaces marp_sim --counters prints,
  /// plus net.real.* and per-link link.*). Thread-safe.
  trace::CounterRegistry counters();

 private:
  void driver_loop();
  void apply(const NodeTransport::Inbound& inbound);
  /// Incarnation fence: true = frame accepted, floors updated; false =
  /// stale frame from a previous life of `src`, drop it.
  bool admit_incarnation(const rpc::FrameHeader& header);
  void handle_control(const rpc::Frame& frame, const NodeTransport::ReplyFn& reply);
  void submit_session(std::uint64_t i);
  void begin_workload();
  void checkpoint_now();
  void checkpoint_tick();
  void watchdog_tick();
  rpc::NodeStatus status_locked();
  rpc::NodeDump dump_locked();
  rpc::NodeTrace trace_locked();
  trace::CounterRegistry counters_locked();
  /// This node's trace-clock microseconds (virtual-time axis + trace_skew).
  std::int64_t trace_clock_now() const;

  RealNodeConfig config_;
  sim::Simulator sim_;
  net::Network network_;
  agent::AgentPlatform platform_;
  core::MarpProtocol protocol_;
  std::unique_ptr<NodeTransport> transport_;
  /// Per-node span ring (nullptr when config.trace_capacity == 0).
  std::unique_ptr<trace::Tracer> tracer_;
  /// Virtual-time origin on the steady_clock axis: min(construction time,
  /// supervisor epoch). A member (not a driver_loop local) because the
  /// transport's trace clock needs it for sends made from other threads,
  /// before and after the driver runs.
  std::chrono::steady_clock::time_point t0_;

  /// Durable state (nullptr when config.data_dir is empty).
  std::unique_ptr<checkpoint::DurableLog> durable_;
  /// What recovery found on disk (counters surface in Dump).
  checkpoint::RecoveredState recovered_;
  /// Highest incarnation seen per peer — the fence floor.
  std::vector<std::uint16_t> peer_incarnation_;
  bool catching_up_ = false;
  std::uint64_t stale_incarnation_rejected_ = 0;
  std::uint64_t catchup_pulls_ = 0;
  std::uint64_t catchup_merges_ = 0;
  std::uint64_t session_retries_ = 0;
  /// Virtual time of the last workload submit/outcome (watchdog input).
  sim::SimTime last_progress_ = sim::SimTime::zero();

  std::uint64_t sessions_completed_ = 0;
  std::uint64_t sessions_failed_ = 0;
  std::uint64_t next_request_id_ = 0;

  /// Traced-frame (send, recv) timestamp pairs per inbound link, harvested
  /// in apply(); bounded, drops counted. Guarded by state_mutex_.
  std::vector<rpc::NodeTrace::LinkSample> link_samples_;
  std::uint64_t link_samples_dropped_ = 0;

  std::atomic<bool> stop_requested_{false};

  /// Guards protocol state for the status()/dump() snapshot path; the
  /// driver thread holds it while running events.
  std::mutex state_mutex_;

  std::thread thread_;
};

}  // namespace marp::transport
