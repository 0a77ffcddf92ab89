// cluster-uds: three RealNodes in this process, talking over real
// SocketTransport Unix-domain sockets. The only workload that runs the real
// substrate: frame codec, FNV checksum, socket I/O, agent transfer and
// rehydrate, and the server handlers carry the cost. Private keys keep lock
// contention low, so those layers dominate, and make the final store a pure
// function of session order — the reference simulation must reproduce it.
//
// The nodes run volatile (no data_dir): a node with a durable journal
// fsyncs every store apply, and on a disk shared with other tenants that
// fsync halves throughput and spreads it by a fifth from run to run. The
// journal and checkpoint costs are measured by the checkpoint probes of the
// traced run instead.
//
// The run is a sequence of rounds. Each round builds a fresh cluster, runs
// a closed loop of S sessions per node (one in flight per node), then
// quiesces, dumps and checks. A round's timed window opens once every node
// has finished its first sessions (lazy connects and cold caches stay
// outside) and closes when the first node finishes its last one, so all
// three clients are busy for the whole window. Set-up (construct, bind,
// connect) is timed for every round and for one extra cluster before each
// round that runs no sessions.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "checks.hpp"
#include "rpc/frame.hpp"
#include "trace/tracer.hpp"
#include "transport/cluster.hpp"
#include "transport/real_node.hpp"
#include "transport/socket_transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace marp;
namespace mt = marp::transport;

constexpr std::size_t kNodes = 3;
/// Keys are written round-robin, so a key's next write comes 512 sessions
/// after its last: a replica skips a write whose COMMIT is overtaken by a
/// newer one of the same key, and the lag must then exceed ~0.2 s (see
/// perfbench/README.md).
constexpr std::uint64_t kKeysPerOrigin = 512;
constexpr std::size_t kLockGroups = 8;
/// Sessions every node completes before the window opens.
constexpr std::uint64_t kWindowOpensAfter = 3;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
/// Wall time from a node's driver start to its first session: long enough
/// for the benchmark to finish binding and connecting the mesh first.
const sim::SimTime kStartDelay = sim::SimTime::millis(50);

/// Sessions per node in one round. Every round runs the same count, so the
/// reference simulation is computed once per run.
std::uint64_t round_sessions(bool tiny) { return tiny ? 12 : 2000; }

std::uint64_t counter(const rpc::NodeDump& d, const std::string& name) {
  for (const auto& [n, v] : d.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// A running three-node cluster. Construction is the timed set-up: node
/// stacks, listener bind, and a connected mesh.
class Cluster {
 public:
  Cluster(const std::string& dir, std::uint64_t seed, std::uint64_t sessions, bool traced,
          SpanLog& spans, std::vector<std::string>& problems)
      : endpoints_(mt::local_uds_cluster(dir, kNodes)), transports_(kNodes, nullptr) {
    std::filesystem::create_directories(dir);
    core::MarpConfig marp = mt::ClusterSpec{}.marp();
    marp.num_lock_groups = kLockGroups;
    marp.visit_service_time = sim::SimTime::zero();
    // One clock epoch for every node, so their span timestamps share an axis.
    const std::int64_t epoch_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                      Clock::now().time_since_epoch())
                                      .count();
    const auto t_begin = Clock::now();
    {
      auto s = spans.span("cluster.construct");
      for (net::NodeId id = 0; id < kNodes; ++id) {
        mt::RealNodeConfig config;
        config.node = id;
        config.endpoints = endpoints_;
        config.marp = marp;
        config.seed = seed + id;
        config.sessions = sessions;
        config.keys_per_origin = kKeysPerOrigin;
        config.start_delay = kStartDelay;
        config.clock_epoch_us = epoch_us;
        config.trace_capacity = traced ? kTraceCapacity : 0;
        config.transport_factory = [this](const mt::RealNodeConfig& c) {
          // The default factory's transport, kept visible so the benchmark
          // can connect the mesh before the first session.
          mt::SocketTransportConfig tc;
          tc.local = c.node;
          tc.peers = c.endpoints;
          tc.checksum = c.checksum;
          tc.loss_seed = c.seed * 7919 + c.node;
          tc.connect_jitter_seed = c.seed * 6571 + c.node;
          auto transport = std::make_unique<mt::SocketTransport>(std::move(tc));
          transports_[c.node] = transport.get();
          return transport;
        };
        nodes_.push_back(std::make_unique<mt::RealNode>(std::move(config)));
      }
    }
    {
      auto s = spans.span("cluster.bind");
      for (auto& node : nodes_) node->start();
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      for (const mt::Endpoint& e : endpoints_) {
        while (!std::filesystem::is_socket(e.path) && Clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
    }
    {
      // The socket file appears a moment before the transport counts itself
      // running, and a transport that is not running refuses to dial. A
      // control ping is answered by the node's driver thread, which starts
      // only after its transport runs.
      auto s = spans.span("cluster.connect");
      for (net::NodeId id = 0; id < kNodes; ++id) {
        if (!mt::ControlClient(endpoints_[id], id).ping()) {
          problems.push_back("node " + std::to_string(id) + " did not answer a ping");
        }
      }
      for (net::NodeId from = 0; from < kNodes; ++from) {
        for (net::NodeId to = 0; to < kNodes; ++to) {
          if (from != to && !transports_[from]->send_announce(to)) {
            problems.push_back("node " + std::to_string(from) +
                               " could not connect to node " + std::to_string(to));
          }
        }
      }
      // The mesh is connected once every listener has accepted its peers'
      // connections and the ping's. Tearing a transport down while a
      // connection still waits in its accept queue races the accept loop
      // against the stop, so no cluster is released before this holds.
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      for (mt::SocketTransport* t : transports_) {
        while (t->stats().accepts < kNodes && Clock::now() < deadline) {
          std::this_thread::yield();
        }
        if (t->stats().accepts < kNodes) {
          problems.push_back("a listener did not accept its peers in time");
        }
      }
    }
    setup_s_ = seconds_since(t_begin);
  }

  ~Cluster() {
    for (auto& node : nodes_) node->request_stop();
    nodes_.clear();  // joins every driver thread and stops every transport
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  double setup_s() const noexcept { return setup_s_; }
  std::vector<std::unique_ptr<mt::RealNode>>& nodes() { return nodes_; }

 private:
  std::vector<mt::Endpoint> endpoints_;
  /// Owned by the nodes; valid while nodes_ holds them.
  std::vector<mt::SocketTransport*> transports_;
  std::vector<std::unique_ptr<mt::RealNode>> nodes_;
  double setup_s_ = 0;
};

struct Round {
  double setup_s = 0;
  double window_s = 0;
  double window_steal_s = 0;  ///< hypervisor steal over all CPUs in the window
  std::uint64_t window_ops = 0;
  std::uint64_t commits = 0;
  std::vector<rpc::NodeDump> dumps;
  std::vector<rpc::NodeTrace> traces;
  std::vector<std::string> problems;
};

Round run_round(std::uint64_t seed, std::uint64_t sessions, bool traced,
                const std::string& dir, const mt::ClusterSpec& spec,
                const mt::SubstrateResult& reference, SpanLog& spans) {
  Round round;
  {
    auto cluster = std::make_unique<Cluster>(dir, seed, sessions, traced, spans, round.problems);
    round.setup_s = cluster->setup_s();
    auto& nodes = cluster->nodes();
    {
      auto s = spans.span("cluster.window");
      const auto completed = [&] {
        std::vector<std::uint64_t> done;
        for (auto& node : nodes) done.push_back(node->status().sessions_completed);
        return done;
      };
      const auto sum = [](const std::vector<std::uint64_t>& v) {
        std::uint64_t total = 0;
        for (std::uint64_t x : v) total += x;
        return total;
      };
      const auto deadline = Clock::now() + std::chrono::seconds(60);
      Clock::time_point t_open{};
      double steal_open = 0;
      std::uint64_t base = 0;
      bool open = false;
      while (Clock::now() < deadline) {
        const std::vector<std::uint64_t> done = completed();
        if (!open && std::all_of(done.begin(), done.end(), [](std::uint64_t d) {
              return d >= kWindowOpensAfter;
            })) {
          t_open = Clock::now();
          steal_open = steal_seconds();
          base = sum(done);
          open = true;
        }
        if (open && std::any_of(done.begin(), done.end(),
                                [&](std::uint64_t d) { return d >= sessions; })) {
          round.window_s = seconds_since(t_open);
          round.window_steal_s = steal_seconds() - steal_open;
          round.window_ops = sum(done) - base;
          break;
        }
        // Each status() takes the node's state lock; polling every 2 ms
        // keeps that off the driver threads' backs and costs at most 2 ms
        // of a ~1 s window.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (round.window_s <= 0) round.problems.push_back("timed window never closed");
    }
    {
      auto s = spans.span("cluster.quiesce");
      const auto deadline = Clock::now() + std::chrono::seconds(20);
      while (Clock::now() < deadline &&
             !std::all_of(nodes.begin(), nodes.end(),
                          [](auto& node) { return node->status().quiesced; })) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    {
      auto s = spans.span("cluster.dump");
      for (auto& node : nodes) round.dumps.push_back(node->dump());
      if (traced) {
        for (auto& node : nodes) round.traces.push_back(node->trace_dump());
      }
    }
    auto s = spans.span("cluster.stop");
    cluster.reset();
  }

  {
    auto s = spans.span("cluster.check");
    for (std::string& p : check_cluster_round(round.dumps, spec, reference)) {
      round.problems.push_back(std::move(p));
    }
  }
  for (const rpc::NodeDump& d : round.dumps) round.commits += d.status.commits;
  std::filesystem::remove_all(dir);
  return round;
}

using AgentKey = std::tuple<std::uint32_t, std::int64_t, std::uint32_t>;

AgentKey agent_key(const rpc::NodeTrace::Span& s) {
  return {s.agent_origin, s.agent_created_us, s.agent_seq};
}

/// Session, lock-wait and migration spans out of one round's node traces.
/// All nodes share one clock epoch, so timestamps from different nodes
/// compare directly.
///  * session: a node's consecutive own-agent creations — in a closed loop
///    session i+1 is created the moment session i's outcome arrives, so
///    the gap is the client-visible session latency;
///  * lock wait: closed LockWait spans;
///  * migration: a remote hop stays open on its source (destination in
///    `node`); it ends at the agent's first span on the destination.
void collect_round_spans(const std::vector<rpc::NodeTrace>& traces, LayerCounts& c) {
  constexpr auto kSession = static_cast<std::uint8_t>(trace::SpanKind::Session);
  constexpr auto kMigration = static_cast<std::uint8_t>(trace::SpanKind::Migration);
  constexpr auto kLockWait = static_cast<std::uint8_t>(trace::SpanKind::LockWait);
  std::map<std::pair<std::uint32_t, AgentKey>, std::vector<std::int64_t>> arrivals;
  for (const rpc::NodeTrace& t : traces) {
    for (const rpc::NodeTrace::Span& s : t.spans) {
      arrivals[{t.node, agent_key(s)}].push_back(s.start_us);
    }
  }
  for (auto& [key, starts] : arrivals) std::sort(starts.begin(), starts.end());
  for (const rpc::NodeTrace& t : traces) {
    std::vector<std::int64_t> own_sessions;
    for (const rpc::NodeTrace::Span& s : t.spans) {
      if (s.kind == kSession && s.agent_origin == t.node) own_sessions.push_back(s.start_us);
      if (s.kind == kLockWait && s.end_us != rpc::NodeTrace::kOpenEnd) {
        c.lock_wait_ms.push_back(static_cast<double>(s.end_us - s.start_us) / 1000.0);
      }
      if (s.kind != kMigration) continue;
      if (s.end_us != rpc::NodeTrace::kOpenEnd) {
        c.migration_ms.push_back(static_cast<double>(s.end_us - s.start_us) / 1000.0);
        continue;
      }
      const auto it = arrivals.find({s.node, agent_key(s)});
      if (it == arrivals.end()) continue;
      const auto arrival = std::lower_bound(it->second.begin(), it->second.end(), s.start_us);
      if (arrival != it->second.end()) {
        c.migration_ms.push_back(static_cast<double>(*arrival - s.start_us) / 1000.0);
      }
    }
    std::sort(own_sessions.begin(), own_sessions.end());
    for (std::size_t k = 1; k < own_sessions.size(); ++k) {
      c.session_ms.push_back(static_cast<double>(own_sessions[k] - own_sessions[k - 1]) /
                             1000.0);
    }
  }
}

/// Counter totals of one round's dumps, added to `c`. Rounds are folded
/// in as they finish, so the run's memory does not grow with its length.
void add_round_counts(const std::vector<rpc::NodeDump>& dumps, LayerCounts& c) {
  for (const rpc::NodeDump& d : dumps) {
    c.ops += static_cast<double>(d.status.commits);
    c.frames += static_cast<double>(d.frames_sent);
    c.frame_bytes += static_cast<double>(counter(d, "net.real.bytes_sent"));
    c.agent_transfers += static_cast<double>(d.agent_frames_sent);
    c.transport_retries += static_cast<double>(d.agent_transfers_revived +
                                               d.agent_transfers_deduped + d.send_failures);
    c.migrations += static_cast<double>(counter(d, "agent.migrations_started"));
    c.migration_bytes += static_cast<double>(counter(d, "agent.migration_bytes"));
    c.updates_committed += static_cast<double>(counter(d, "marp.updates_committed"));
    c.update_attempts += static_cast<double>(counter(d, "marp.update_attempts"));
    c.retransmits += static_cast<double>(d.commit_retransmits + d.report_retransmits +
                                         d.release_retransmits);
    c.messages += static_cast<double>(counter(d, "net.messages_sent"));
  }
}

struct Phase {
  explicit Phase(double budget) : windows(budget) {}
  Windows windows;            ///< one per measured round
  LayerCounts counts;         ///< measured rounds; spans only when traced
  std::size_t final_store_keys = 0;
};

/// Rounds of a fixed session count until the phase's windows add up to
/// `budget` seconds. With private keys the final store and per-key commit
/// order depend only on the session count, so every round is checked
/// against one reference simulation.
Phase run_phase(const Options& o, bool traced, double budget, const std::string& dir,
                std::vector<double>& setup, SpanLog& spans, RunReport& report) {
  Phase phase(budget);
  const std::uint64_t sessions = round_sessions(o.tiny);
  mt::ClusterSpec spec;
  spec.nodes = kNodes;
  spec.sessions_per_node = sessions;
  spec.keys_per_origin = kKeysPerOrigin;
  spec.seed = o.seed;
  mt::SubstrateResult reference;
  {
    auto s = spans.span("cluster.reference_sim");
    reference = mt::run_reference_sim(spec);
  }
  // Round 0 is a warm-up: checked like every round, but its window runs on
  // cold caches and a fresh heap at about two thirds of the steady rate, so
  // it stays out of the measurement.
  for (int r = 0; r < 200 && phase.windows.want_more(); ++r) {
    const std::uint64_t seed =
        o.seed * 1000 + (traced ? 500 : 0) + static_cast<std::uint64_t>(r);
    {
      // One more set-up sample from a cluster that runs no sessions.
      std::vector<std::string> problems;
      {
        Cluster idle(dir + "/setup", seed, 0, false, spans, problems);
        setup.push_back(idle.setup_s());
      }
      for (std::string& p : problems) report.problems.push_back("set-up: " + p);
      if (!report.correct()) break;
    }
    Round round = run_round(seed, sessions, traced, dir + "/r" + std::to_string(r), spec,
                            reference, spans);
    report.attempted += kNodes * sessions;
    report.failed += kNodes * sessions - std::min(kNodes * sessions, round.commits);
    for (std::string& p : round.problems) {
      report.problems.push_back("round " + std::to_string(r) + ": " + p);
    }
    if (!round.problems.empty()) break;
    std::cout << "round " << r << (traced ? " traced" : "") << (r == 0 ? " warm-up" : "")
              << " setup_ms " << round.setup_s * 1e3 << " window_s " << round.window_s
              << " window_ops " << round.window_ops;
    if (r == 0) {
      std::cout << "\n";
      continue;
    }
    const double steal = phase.windows.add(round.window_s,
                                           static_cast<double>(round.window_ops),
                                           round.window_steal_s);
    std::cout << " steal_pct " << 100.0 * steal << "\n";
    setup.push_back(round.setup_s);
    phase.final_store_keys = round.dumps.front().items.size();
    add_round_counts(round.dumps, phase.counts);
    collect_round_spans(round.traces, phase.counts);
  }
  return phase;
}

double rate(const Phase& phase) { return phase.windows.rate(); }

}  // namespace

RunReport run_cluster_uds(const Options& o, SpanLog& spans) {
  RunReport report;
  const std::string dir = o.work_dir + "/cluster-" + std::to_string(::getpid());

  std::vector<double> setup;
  const Phase untraced =
      run_phase(o, false, o.trace ? o.seconds / 2 : o.seconds, dir, setup, spans, report);
  std::filesystem::remove_all(dir);
  if (!report.correct()) return report;
  if (!o.trace) {
    report.set("ops_per_s", rate(untraced), "1/s");
    report.set("setup_s", median(setup), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  const Phase traced = run_phase(o, true, o.seconds / 2, dir, setup, spans, report);
  std::filesystem::remove_all(dir);
  if (!report.correct()) return report;
  // Probe sizes come from the untraced rounds: their frames carry no trace
  // tail, so bytes per frame minus the header is the mean frame body.
  const LayerCounts& plain = untraced.counts;
  ProbeShape shape;
  if (plain.frames > 0) {
    shape.frame_body_bytes =
        static_cast<std::size_t>(plain.frame_bytes / plain.frames) - rpc::kHeaderSize;
  }
  if (plain.migrations > 0) {
    shape.agent_bytes = static_cast<std::size_t>(plain.migration_bytes / plain.migrations);
  }
  shape.store_keys = untraced.final_store_keys;
  shape.scratch_dir = dir + "/probe";
  const double overhead =
      rate(untraced) > 0 ? (rate(untraced) - rate(traced)) / rate(untraced) * 100.0 : 0.0;
  add_layer_metrics(traced.counts, shape, overhead, spans, report);
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench
