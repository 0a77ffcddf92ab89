// Cluster harness: drive N RealNodes from outside and prove the socket
// substrate computes the same thing the simulator does.
//
// The cross-substrate oracle rests on one workload property: closed-loop
// sessions (i+1 submitted only after i completed) over per-origin private
// keys make the per-key commit order deterministic — session order — on ANY
// substrate, so the simulator's result is a ground truth the socket cluster
// must reproduce exactly: same commit counts, same per-key writer order at
// every replica, same final key→value store. Version timestamps are
// excluded (virtual vs wall microseconds), everything else must match.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "marp/config.hpp"
#include "net/message.hpp"
#include "rpc/control.hpp"
#include "transport/endpoint.hpp"
#include "transport/socket_transport.hpp"

namespace marp::transport {

/// One workload/cluster parameterisation, shared by the reference sim, the
/// in-process cluster tests, and tools/marp_node / marp_cluster.
struct ClusterSpec {
  std::size_t nodes = 5;                 ///< the paper's N=5 deployment
  std::uint64_t sessions_per_node = 20;  ///< closed-loop updates per origin
  std::uint64_t keys_per_origin = 2;
  bool shared_keys = false;
  std::uint64_t seed = 1;
  double send_loss = 0.0;  ///< socket-level AppMessage loss (real only)

  // ---- dynamic membership (0 = off: the fixed fully-replicated cluster) ----
  std::uint32_t membership_rf = 0;  ///< copies per lock group
  /// Servers in the epoch-1 view; node ids >= this start as spares (idle
  /// listeners outside the view, joinable via the ViewChange RPC).
  std::size_t initial_members = 0;

  /// Protocol config both substrates run. reliable_commit is on: it is what
  /// makes commits immune to injected socket loss, and its acked fan-out
  /// doubles as the quiescence barrier (no lingering agent ⇒ all acks in).
  core::MarpConfig marp() const;
};

/// What one substrate computed, reduced to the comparable core.
struct SubstrateResult {
  std::uint64_t commits = 0;  ///< summed over nodes (sim: protocol total)
  std::uint64_t aborts = 0;
  std::uint64_t mutex_violations = 0;
  std::uint64_t commit_retransmits = 0;
  std::uint64_t loss_injected = 0;
  /// Converged store (key → value); filled from node 0.
  std::map<std::string, std::string> store;
  /// key → writer sequence in apply order, per node.
  std::vector<std::map<std::string, std::vector<std::uint32_t>>> per_key_writers;
  /// Final-store divergences between replicas — must ALWAYS be empty.
  std::vector<std::string> divergences;
  /// Per-key apply-order divergences between replicas. Must be empty at
  /// zero loss; under injected loss a retransmitted COMMIT can arrive after
  /// a newer same-key commit and be (correctly) rejected by the Thomas
  /// write rule, so apply histories may differ while stores still converge.
  std::vector<std::string> order_divergences;
};

/// Ground truth: the same ClusterSpec workload on the pure discrete-event
/// simulator (single process, no transport).
SubstrateResult run_reference_sim(const ClusterSpec& spec);

/// Reduce per-node dumps from a real cluster to a SubstrateResult
/// (computing intra-cluster divergences on the way).
SubstrateResult aggregate_cluster(const std::vector<rpc::NodeDump>& dumps);

/// Cross-substrate equivalence: every returned string is a violation.
/// Empty = the substrates agree.
std::vector<std::string> compare_substrates(const SubstrateResult& sim,
                                            const SubstrateResult& real);

/// Chaos-mode equivalence: the subset of compare_substrates that survives
/// process crashes. Commit counters and apply histories are volatile (a
/// SIGKILL resets them mid-run), so the checked invariants are: Theorem 2,
/// replica convergence, identical key sets, and per-key value equality with
/// the reference sim — exact for untouched origins, relaxed for
/// `relaxed_origins[i] == true` (origins that crashed or retried a
/// session). For those, any of the origin's own session values for the key
/// is legal: a retried session can commit *after* a later session of the
/// same key, and the Thomas rule correctly keeps the later commit
/// timestamp, so "last session wins" only holds retry-free. Requires
/// private keys (spec.shared_keys == false).
std::vector<std::string> compare_stores(const SubstrateResult& sim,
                                        const SubstrateResult& real,
                                        const ClusterSpec& spec,
                                        const std::vector<bool>& relaxed_origins);

/// How a ControlClient retries one logical RPC. Each attempt is its own
/// connection; attempt k+1 waits min(backoff x 2^k, backoff_cap) first.
struct RetryPolicy {
  int attempts = 3;
  std::chrono::milliseconds backoff{50};
  std::chrono::milliseconds backoff_cap{500};
  /// Per-attempt reply deadline. The supervisor's heartbeat probe uses a
  /// tight value with attempts = 1 — masking a hung node behind retries
  /// would defeat hang detection.
  std::chrono::milliseconds rpc_timeout{10'000};
};

/// Control-RPC client for one node (used by tools and tests).
class ControlClient {
 public:
  ControlClient(Endpoint endpoint, net::NodeId node, RetryPolicy policy = {})
      : endpoint_(std::move(endpoint)), node_(node), policy_(policy) {}

  bool ping();
  std::optional<rpc::NodeStatus> status();
  std::optional<rpc::NodeDump> dump();
  /// Pull the node's span ring + link clock samples (empty when the node
  /// runs untraced — still a valid reply, not an error).
  std::optional<rpc::NodeTrace> trace_dump();
  std::optional<rpc::HeartbeatReply> heartbeat();
  /// Ask the node to pull every live peer's store right now (convergence
  /// barrier before final dumps).
  bool sync_pull();
  bool shutdown();
  /// Nominate the node as coordinator of a membership epoch bump admitting
  /// (`join`) or retiring `target`. Returns the coordinator's newest epoch
  /// on acceptance; nullopt when the RPC failed or the change was rejected
  /// (membership off, target already in the requested state, or another
  /// view change still in flight — retry later for the last case).
  std::optional<std::uint64_t> view_change(bool join, net::NodeId target);

  /// Typed outcome of the most recent attempt of the most recent call —
  /// lets the supervisor tell "nothing listening" (restarting, normal) from
  /// "connected but silent" (hung, treat as dead).
  SocketTransport::RpcStatus last_status() const noexcept { return last_status_; }

 private:
  std::optional<serial::Bytes> call(rpc::Proc proc,
                                    const serial::Bytes& args = {});

  Endpoint endpoint_;
  net::NodeId node_;
  RetryPolicy policy_;
  SocketTransport::RpcStatus last_status_ = SocketTransport::RpcStatus::Ok;
};

/// Poll every node's Status until all report quiesced, or `timeout_ms`
/// passes. Returns true on full quiescence.
bool wait_quiesced(std::vector<ControlClient>& clients, long timeout_ms);

}  // namespace marp::transport
