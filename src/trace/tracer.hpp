// Tracer — structured, bounded-memory execution tracing.
//
// Decomposes every update session into spans on two kinds of tracks:
//
//   agent tracks   Session (created → disposed), Migration (per hop),
//                  Visit (arrival → local service done), LockWait (parked
//                  in Phase::Waiting), UpdateRound (UPDATE broadcast →
//                  quorum / demotion / abort), CommitFanout (COMMIT or
//                  RELEASE broadcast → fully acked); instants for
//                  QuorumWin, Retry, Backoff, Requeue, Abort.
//   server tracks  BatchWait (first buffered write → agent dispatch),
//                  LockListWait (Locking-List entry appended → removed,
//                  one span per (agent, server, group)); instants for
//                  AntiEntropy ticks, NetDrop and NetRetransmit events.
//
// The tracer is wired in three ways at once: as the platform's
// PlatformObserver (agent lifecycle + migrations), as the network's
// NetworkObserver (drops/retransmits), and via explicit hooks called from
// MarpServer / UpdateAgent behind `if (tracer)` guards — so a run without a
// tracer pays one pointer test per hook site and nothing else.
//
// Storage is a fixed-capacity ring of SpanRecords: a long run overwrites
// its oldest spans and counts them in dropped(), it never grows without
// bound. Matching uses an open-span map keyed by (kind, agent, node, aux);
// begin() is idempotent (first begin wins) and end() without a matching
// begin is a counted no-op, so redundant hook calls are harmless.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/platform.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace marp::trace {

enum class SpanKind : std::uint8_t {
  // Agent-track durations.
  Session,
  Migration,
  Visit,
  LockWait,
  UpdateRound,
  CommitFanout,
  // Agent-track instants.
  QuorumWin,
  Retry,
  Backoff,
  Requeue,
  Abort,
  // Server-track durations.
  BatchWait,
  LockListWait,
  // Server-track instants.
  AntiEntropy,
  NetDrop,
  NetRetransmit
};

/// Stable lowercase name used by the exporter and reports.
const char* span_name(SpanKind kind) noexcept;
/// True for the kinds drawn on an agent's track (everything the agent did);
/// the rest render on the track of the server they happened at.
bool agent_track(SpanKind kind) noexcept;
/// True for zero-duration marks (start == end by construction).
bool instant_kind(SpanKind kind) noexcept;

struct SpanRecord {
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  SpanKind kind = SpanKind::Session;
  net::NodeId node = net::kInvalidNode;  ///< server track / where it happened
  agent::AgentId agent;                  ///< invalid for pure server spans
  /// Kind-specific detail: Migration = source node (failed hops negated-1),
  /// Visit/LockWait = 0, UpdateRound = attempt (end overwrites with
  /// outcome via `aux2`), LockListWait = lock group, BatchWait = batch
  /// size, Retry = retry channel, NetDrop = message type.
  std::uint64_t aux = 0;
  /// Secondary detail filled at end(): UpdateRound outcome (0 won,
  /// 1 demoted, 2 aborted), Migration 1 = failed hop, CommitFanout
  /// 0 = commit, 1 = release.
  std::uint64_t aux2 = 0;
};

/// Retry channels recorded in Retry instants' aux.
enum : std::uint64_t {
  kRetryAck = 0,
  kRetryClaim = 1,
  kRetryMigration = 2,
  kRetryCommit = 3
};

class Tracer final : public agent::PlatformObserver, public net::NetworkObserver {
 public:
  /// `capacity` bounds retained spans (oldest evicted first); 0 is treated
  /// as 1 — a tracer always has a (possibly tiny) buffer.
  explicit Tracer(sim::Simulator& simulator, std::size_t capacity = 1 << 20);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Master switch; all hooks become no-ops when disabled.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Retained spans, oldest first (a copy: the ring stays internal).
  std::vector<SpanRecord> records() const;
  /// Spans begun but not ended, in no particular order (`end_us` is
  /// meaningless). On a real cluster node a remote migration opens here and
  /// completes on the *destination's* tracer, so the merge step needs the
  /// open half to stitch the cross-process span.
  std::vector<SpanRecord> open_records() const;
  std::size_t size() const noexcept { return ring_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Begun spans not yet ended (0 after a drained run = well-formed trace).
  std::size_t open_spans() const noexcept { return open_.size(); }
  /// end() calls that found no matching begin (diagnostic; harmless).
  std::uint64_t unmatched_ends() const noexcept { return unmatched_ends_; }
  void clear();

  // ---- PlatformObserver (Session + Migration spans) ----
  void on_agent_created(const agent::AgentId& id, const std::string& type,
                        net::NodeId at) override;
  void on_agent_disposed(const agent::AgentId& id, net::NodeId at) override;
  void on_migration_started(const agent::AgentId& id, net::NodeId from,
                            net::NodeId to, std::size_t bytes) override;
  void on_migration_completed(const agent::AgentId& id, net::NodeId at) override;
  void on_migration_failed(const agent::AgentId& id, net::NodeId from,
                           net::NodeId to) override;

  // ---- NetworkObserver (drop / retransmit instants) ----
  void on_message_dropped(const net::Message& message,
                          net::DropReason reason) override;
  void on_transport_retransmit(const net::Message& message) override;

  // ---- MARP hooks (called from server.cpp / update_agent.cpp) ----
  void visit_begin(const agent::AgentId& id, net::NodeId at);
  void visit_end(const agent::AgentId& id);
  void wait_begin(const agent::AgentId& id, net::NodeId at);
  void wait_end(const agent::AgentId& id);
  void update_round_begin(const agent::AgentId& id, net::NodeId at,
                          std::uint32_t attempt);
  void update_round_end(const agent::AgentId& id, std::uint64_t outcome);
  void quorum_win(const agent::AgentId& id, net::NodeId at);
  void commit_fanout_begin(const agent::AgentId& id, net::NodeId at, bool commit);
  void commit_fanout_end(const agent::AgentId& id);
  void retry(const agent::AgentId& id, net::NodeId at, std::uint64_t channel);
  void backoff(const agent::AgentId& id, net::NodeId at, std::int64_t delay_us);
  void requeue(const agent::AgentId& id, net::NodeId at);
  void abort_mark(const agent::AgentId& id, net::NodeId at);
  void batch_open(net::NodeId node);
  void batch_dispatch(net::NodeId node, std::size_t batch_size);
  void ll_enqueue(const agent::AgentId& id, net::NodeId node, std::uint64_t group);
  /// COMMIT/RELEASE/purge swept every Locking-List entry `id` held at
  /// `node`, whichever groups they were in.
  void ll_remove_all(const agent::AgentId& id, net::NodeId node);
  /// A crash wiped node-local coordination state: close this node's
  /// LockListWait/BatchWait spans (the waits ended, albeit violently).
  void node_reset(net::NodeId node);
  void anti_entropy(net::NodeId node);

 private:
  struct OpenKey {
    SpanKind kind;
    agent::AgentId agent;
    net::NodeId node = net::kInvalidNode;
    std::uint64_t aux = 0;
    bool operator==(const OpenKey&) const = default;
  };
  struct OpenKeyHash {
    std::size_t operator()(const OpenKey& key) const noexcept {
      std::size_t h = agent::AgentIdHash{}(key.agent);
      h ^= (static_cast<std::size_t>(key.kind) + 1) * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<std::size_t>(key.node) + 1) * 0xFF51AFD7ED558CCDULL;
      h ^= (key.aux + 1) * 0xC4CEB9FE1A85EC53ULL;
      return h;
    }
  };

  std::int64_t now_us() const { return sim_.now().as_micros(); }
  void begin(const OpenKey& key, const SpanRecord& record);
  void end(const OpenKey& key, std::uint64_t aux2 = 0);
  void mark(SpanKind kind, net::NodeId node, const agent::AgentId& agent,
            std::uint64_t aux = 0, std::uint64_t aux2 = 0);
  void push(SpanRecord record);
  /// End every open span matching `pred` (small map; scans are fine).
  template <typename Pred>
  void end_matching(Pred pred, std::uint64_t aux2 = 0);

  sim::Simulator& sim_;
  std::size_t capacity_;
  bool enabled_ = true;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;  ///< oldest element once the ring is full
  std::uint64_t dropped_ = 0;
  std::uint64_t unmatched_ends_ = 0;
  std::unordered_map<OpenKey, SpanRecord, OpenKeyHash> open_;
};

}  // namespace marp::trace
