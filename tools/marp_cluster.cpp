// marp_cluster — launch, drive, supervise, and verify a local multi-process
// MARP cluster over Unix-domain sockets.
//
// Forks N marp_node processes (per-node logs in the run directory), polls
// their Status RPC until every node reports quiesced, pulls a full Dump from
// each, and checks the cluster-level invariants:
//
//   * every node quiesced within the timeout (all sessions committed,
//     no agent left anywhere)
//   * total commits == nodes × sessions
//   * zero Theorem-2 mutex violations on any node
//   * all replicas converged to the same store and per-key apply order
//   * --check-sim: the whole result equals the reference simulator's
//   * --loss P --expect-retransmits: injected socket loss actually
//     happened AND the reliable-commit machinery visibly retransmitted
//
// Chaos mode (--chaos-kills K) turns the launcher into a reincarnation
// supervisor: every node gets a durable state dir and a shared virtual-clock
// epoch, a seeded schedule SIGKILLs K distinct nodes mid-workload, and the
// supervisor loop (waitpid + heartbeat probes — a live process that stops
// answering Heartbeat within --hung-ms is treated as dead and killed)
// respawns each casualty with a bumped incarnation under a per-node restart
// budget. The revived process replays its journal, announces itself, catches
// up via anti-entropy, and rejoins. Verification then checks the invariants
// that survive crashes: every session committed (per node), zero mutex
// violations, all replicas converged, final stores bit-identical to the
// reference simulator, and zero agent transfers left in limbo. Commit
// *counts* and apply orders are volatile across a SIGKILL (lost counters,
// legitimate session retries) and are deliberately not checked.
//
// Any failure prints the offending node logs and exits non-zero.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <algorithm>
#include <map>
#include <optional>

#include "fault/process_chaos.hpp"
#include "membership/placement.hpp"
#include "shard/router.hpp"
#include "trace/merge.hpp"
#include "transport/cluster.hpp"
#include "transport/node_flags.hpp"

namespace {

using marp::transport::ClusterSpec;
using marp::transport::ControlClient;
using marp::transport::RealNodeConfig;
using marp::transport::RetryPolicy;
using Clock = std::chrono::steady_clock;

std::string node_binary_path() {
  // marp_node sits next to marp_cluster in the build tree.
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "marp_node";
  buffer[n] = '\0';
  std::string path(buffer);
  const std::size_t slash = path.rfind('/');
  return (slash == std::string::npos ? "" : path.substr(0, slash + 1)) + "marp_node";
}

pid_t spawn_node(const std::string& binary, const RealNodeConfig& child,
                 const std::string& log_path) {
  std::vector<std::string> args = marp::transport::node_arguments(child);
  args.insert(args.begin(), binary);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent, or -1 on fork failure (caller checks)
  // Child: redirect both streams to the node's log, exec marp_node. A
  // reincarnation appends so the previous life's log survives.
  const int log_flags =
      O_WRONLY | O_CREAT | (child.incarnation == 0 ? O_TRUNC : O_APPEND);
  const int log_fd = ::open(log_path.c_str(), log_flags, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::close(log_fd);
  }
  ::execv(binary.c_str(), argv.data());
  std::perror("execv");
  ::_exit(127);
}

void dump_log(const std::string& log_path) {
  std::FILE* f = std::fopen(log_path.c_str(), "r");
  if (!f) return;
  std::fprintf(stderr, "---- %s ----\n", log_path.c_str());
  char line[4096];
  while (std::fgets(line, sizeof(line), f)) std::fputs(line, stderr);
  std::fclose(f);
}

/// One scripted membership change, fired over the ViewChange RPC.
struct ChurnEvent {
  marp::sim::SimTime at;  ///< wall-clock offset from cluster launch
  std::uint32_t node = 0;
  bool join = false;
  bool fired = false;
};

/// One supervised marp_node process across its lives.
struct Child {
  pid_t pid = -1;
  std::uint32_t incarnation = 0;
  std::uint32_t restarts = 0;
  Clock::time_point spawned_at{};
  Clock::time_point next_probe{};
  bool quiesced = false;  ///< last heartbeat said quiesced
};

}  // namespace

int main(int argc, char** argv) {
  ClusterSpec spec;
  long timeout_s = 120;
  bool check_sim = false;
  bool expect_retransmits = false;
  std::string dir;

  // Chaos / supervision knobs.
  std::uint32_t chaos_kills = 0;
  long chaos_window_ms = 3000;
  std::uint32_t max_restarts = 3;  ///< per node, across the whole run
  long heartbeat_ms = 300;         ///< probe cadence per node
  long hung_ms = 3000;             ///< no Heartbeat reply within this = dead
  bool durable = false;            ///< state dirs even without kills

  // Dynamic membership churn script, in command-line order.
  std::vector<ChurnEvent> churn;
  const auto churn_event = [&churn](bool join) {
    return [&churn, join](const marp::util::NodeEvent& event) {
      churn.push_back({event.at, event.node, join});
    };
  };

  // Distributed tracing.
  std::string trace_path;       ///< merged Perfetto trace file
  std::string calibration_out;  ///< per-link latency distributions (JSON)
  std::size_t trace_capacity = 1u << 18;
  std::int64_t trace_skew_step_us = 0;

  marp::util::Flags flags("marp_cluster");
  flags.add("--servers", "N", spec.nodes, "marp_node processes")
      .add("--sessions", "S", spec.sessions_per_node, "update sessions per node")
      .add("--keys-per-origin", "K", spec.keys_per_origin, "distinct keys per origin")
      .toggle("--shared", spec.shared_keys, true, "all nodes write the same shared keys")
      .add("--seed", "S", spec.seed, "workload seed (node I runs seed + I)")
      .add("--loss", "P", spec.send_loss, "socket-level AppMessage loss probability")
      .add("--timeout-s", "T", timeout_s, "fail unless the cluster settles within T s")
      .add("--dir", "DIR", dir,
           "run directory: sockets, logs, state, traces\n(default: a new /tmp/marp_cluster_XXXXXX)")
      .toggle("--check-sim", check_sim, true, "must equal the reference simulator (needs --loss 0)")
      .toggle("--expect-retransmits", expect_retransmits, true,
              "fail unless loss hit and reliable COMMIT retransmitted")
      .toggle("--durable", durable, true, "durable nodes even without --chaos-kills")
      .add("--chaos-kills", "K", chaos_kills,
           "SIGKILL K distinct nodes on a seeded schedule\nand reincarnate them (implies --durable)")
      .add("--chaos-window-ms", "W", chaos_window_ms, "kills land within W ms of launch")
      .add("--max-restarts", "R", max_restarts, "restart budget per node")
      .add("--heartbeat-ms", "H", heartbeat_ms, "heartbeat probe cadence per node")
      .add("--hung-ms", "M", hung_ms, "no heartbeat reply within M ms = hung, killed")
      .add("--replication-factor", "R", spec.membership_rf,
           "copies per lock group (0 = full replication)")
      .add("--initial-members", "N", spec.initial_members,
           "servers in the epoch-1 view, later ids are spares (0 = all)")
      .repeated<marp::util::NodeEvent>("--join-at", "NODE@MS", churn_event(true),
                                       "admit spare NODE at MS ms after launch")
      .repeated<marp::util::NodeEvent>("--leave-at", "NODE@MS", churn_event(false),
                                       "retire member NODE at MS ms, once its sessions are done")
      .add("--trace", "FILE", trace_path, "merged Perfetto trace of every node's spans")
      .add("--calibration-out", "FILE", calibration_out,
           "per-link latencies for marp_sim --net-calibration")
      .add("--trace-capacity", "N", trace_capacity, "per-node span ring when tracing")
      .add("--trace-skew-us", "STEP", trace_skew_step_us,
           "node I's trace clock runs I x STEP us off (tests the merge)");
  flags.parse(argc, argv);

  const bool chaos = chaos_kills > 0;
  if (chaos) durable = true;
  if (check_sim && spec.send_loss > 0.0) {
    flags.fail("--check-sim needs --loss 0 (apply order is only deterministic without loss)");
  }
  // Chaos mode carries its own (store-level) sim comparison, and needs
  // private keys for the final store to be substrate-independent.
  if (chaos && (check_sim || spec.shared_keys)) {
    flags.fail("--chaos-kills excludes --check-sim/--shared");
  }
  const bool membership = spec.membership_rf > 0;
  if (!membership && !churn.empty()) {
    flags.fail("--join-at/--leave-at need --replication-factor");
  }
  // The reference sim runs full replication, and the reincarnation
  // supervisor's store oracle assumes every node holds every key — both
  // compare whole stores, which partial replication legitimately breaks.
  // Membership verification is view-scoped instead (below).
  if (membership && (chaos || check_sim)) {
    flags.fail("--replication-factor excludes --chaos-kills/--check-sim");
  }
  if (membership) {
    if (spec.initial_members == 0 || spec.initial_members > spec.nodes) {
      spec.initial_members = spec.nodes;
    }
    for (const ChurnEvent& event : churn) {
      const std::string node = "node " + std::to_string(event.node);
      if (event.node >= spec.nodes) flags.fail("churn " + node + " out of range");
      if (event.join && event.node < spec.initial_members) {
        flags.fail("--join-at " + node + " is already an initial member");
      }
      if (!event.join && event.node >= spec.initial_members) {
        flags.fail("--leave-at " + node + " is not an initial member");
      }
    }
  }

  if (dir.empty()) {
    char tmpl[] = "/tmp/marp_cluster_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (!made) {
      std::perror("mkdtemp");
      return 1;
    }
    dir = made;
  } else {
    ::mkdir(dir.c_str(), 0755);
  }

  const bool tracing = !trace_path.empty() || !calibration_out.empty();
  const auto endpoints = marp::transport::local_uds_cluster(dir, spec.nodes);
  // What every marp_node runs with; child_config adds the per-node values.
  RealNodeConfig base = marp::transport::node_defaults();
  base.endpoints = endpoints;
  base.sessions = spec.sessions_per_node;
  base.keys_per_origin = spec.keys_per_origin;
  base.shared_keys = spec.shared_keys;
  base.send_loss = spec.send_loss;
  if (membership) {
    base.marp.membership.replication_factor = spec.membership_rf;
    base.marp.membership.initial_members = spec.initial_members;
  }
  if (tracing) base.trace_capacity = trace_capacity;
  const std::string state_root = dir + "/state";
  if (durable) {
    ::mkdir(state_root.c_str(), 0755);
    // One epoch for every spawn AND respawn: µs on the machine-wide
    // monotonic clock, so a reincarnated node's virtual clock resumes ahead
    // of its previous life and its post-rebirth Versions keep ascending.
    base.clock_epoch_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now().time_since_epoch())
                              .count();
    base.checkpoint_interval = marp::sim::SimTime::millis(250);
    base.session_retry_timeout = marp::sim::SimTime::millis(3000);
    base.marp.agent_lease_timeout = marp::sim::SimTime::millis(4000);
  }
  const auto child_config = [&](std::size_t node, std::uint32_t incarnation) {
    RealNodeConfig child = base;
    child.node = static_cast<marp::net::NodeId>(node);
    child.seed = spec.seed + node;
    // Spares start outside the view and originate nothing until joined;
    // their workload share would otherwise stall behind the epoch fence.
    if (membership && node >= spec.initial_members) child.sessions = 0;
    // Distinct, known trace-clock offsets, so the merged timeline
    // demonstrably comes out of the alignment, not luck.
    if (tracing) child.trace_skew_us = trace_skew_step_us * static_cast<std::int64_t>(node);
    if (durable) {
      child.data_dir = state_root + "/node" + std::to_string(node);
      child.incarnation = static_cast<std::uint16_t>(incarnation);
    }
    return child;
  };

  const std::string binary = node_binary_path();
  std::fprintf(stderr, "marp_cluster: %zu nodes x %llu sessions in %s (loss %.3f%s)\n",
               spec.nodes, static_cast<unsigned long long>(spec.sessions_per_node),
               dir.c_str(), spec.send_loss, durable ? ", durable" : "");

  std::vector<Child> children(spec.nodes);
  std::vector<std::string> logs;
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    logs.push_back(dir + "/node" + std::to_string(node) + ".log");
    const pid_t pid = spawn_node(binary, child_config(node, 0), logs.back());
    if (pid < 0) {
      // A short cluster cannot quiesce; fail now and reap what was spawned
      // rather than letting waitpid(-1) confuse the per-node reap loop.
      std::fprintf(stderr, "marp_cluster: FAIL: fork node %zu: %s\n", node,
                   std::strerror(errno));
      for (std::size_t j = 0; j < node; ++j) {
        ::kill(children[j].pid, SIGKILL);
        ::waitpid(children[j].pid, nullptr, 0);
      }
      return 1;
    }
    children[node].pid = pid;
    children[node].spawned_at = Clock::now();
  }

  std::vector<ControlClient> clients;
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    clients.emplace_back(endpoints[node], static_cast<marp::net::NodeId>(node));
  }

  bool failed = false;
  std::vector<std::string> problems;
  std::vector<marp::fault::ProcessKill> schedule;
  std::uint32_t kills_fired = 0;

  if (!chaos && churn.empty()) {
    if (!marp::transport::wait_quiesced(clients, timeout_s * 1000)) {
      problems.push_back("cluster did not quiesce within " + std::to_string(timeout_s) + "s");
      failed = true;
    }
  } else if (!chaos) {
    // ---- scripted membership churn ----
    // Fire each event through node 0 (the coordinator) at its wall-clock
    // offset, in script order; a leave additionally waits for the leaver to
    // finish originating, so its unfinished sessions cannot wedge behind
    // its own retirement. Done when every event fired, every node is
    // quiesced, and the final epoch reached every node still in the view.
    const std::uint64_t final_epoch = 1 + churn.size();
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::seconds(timeout_s);
    while (true) {
      if (Clock::now() >= deadline) {
        problems.push_back("membership cluster did not settle within " +
                           std::to_string(timeout_s) + "s");
        failed = true;
        break;
      }
      std::vector<std::optional<marp::rpc::NodeStatus>> statuses(spec.nodes);
      for (std::size_t node = 0; node < spec.nodes; ++node) {
        statuses[node] = clients[node].status();
      }

      bool all_fired = true;
      for (ChurnEvent& event : churn) {
        if (event.fired) continue;
        all_fired = false;
        if (Clock::now() - t0 < std::chrono::microseconds(event.at.as_micros())) break;
        if (!event.join) {
          const auto& leaver = statuses[event.node];
          if (!leaver || leaver->sessions_completed < leaver->sessions_target) break;
        }
        // The coordinator rejects overlapping view changes; a nullopt here
        // just means "retry next tick".
        if (const auto epoch = clients[0].view_change(event.join, event.node)) {
          event.fired = true;
          std::fprintf(stderr, "marp_cluster: %s node %u -> epoch %llu proposed\n",
                       event.join ? "join" : "leave", event.node,
                       static_cast<unsigned long long>(*epoch));
        }
        break;  // at most one view change in flight
      }

      if (all_fired) {
        bool settled = true;
        for (std::size_t node = 0; node < spec.nodes && settled; ++node) {
          const auto& s = statuses[node];
          if (!s || !s->quiesced) settled = false;
          else if (s->retired) continue;  // leaver: frozen, possibly pre-final epoch
          else if (s->epoch != final_epoch) settled = false;
        }
        if (settled) break;
      }
      ::usleep(100 * 1000);
    }
  } else {
    // ---- reincarnation supervisor ----
    schedule = marp::fault::make_kill_schedule(
        spec.seed, static_cast<std::uint32_t>(spec.nodes), chaos_kills,
        std::chrono::milliseconds(chaos_window_ms));
    std::fprintf(stderr, "marp_cluster: chaos schedule: %s\n",
                 marp::fault::describe_kill_schedule(schedule).c_str());

    // Heartbeat probes must not mask a hang behind retries, and must time
    // out fast enough to notice one: single attempt, tight deadline.
    RetryPolicy probe_policy;
    probe_policy.attempts = 1;
    probe_policy.rpc_timeout = std::chrono::milliseconds(hung_ms);
    std::vector<ControlClient> probes;
    for (std::size_t node = 0; node < spec.nodes; ++node) {
      probes.emplace_back(endpoints[node], static_cast<marp::net::NodeId>(node),
                          probe_policy);
    }
    // Fresh spawns get a grace period before hang judgement: the listener
    // comes up within milliseconds, but recovery replay happens first.
    const auto probe_grace = std::chrono::milliseconds(1000);

    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::seconds(timeout_s);
    std::size_t next_kill = 0;

    while (!failed) {
      const auto now = Clock::now();
      if (now >= deadline) {
        problems.push_back("chaos cluster did not quiesce within " +
                           std::to_string(timeout_s) + "s");
        failed = true;
        break;
      }

      // 1. Fire due kills (SIGKILL: no destructors, no final checkpoint —
      //    the whole point).
      while (next_kill < schedule.size() && now - t0 >= schedule[next_kill].at) {
        Child& victim = children[schedule[next_kill].victim];
        if (victim.pid > 0) {
          std::fprintf(stderr, "marp_cluster: chaos: SIGKILL node %u (pid %d, life %u)\n",
                       schedule[next_kill].victim, victim.pid, victim.incarnation);
          ::kill(victim.pid, SIGKILL);
          ++kills_fired;
        }
        ++next_kill;
      }

      // 2. Reap casualties and reincarnate them with a bumped incarnation.
      for (std::size_t node = 0; node < spec.nodes && !failed; ++node) {
        Child& child = children[node];
        if (child.pid <= 0) continue;
        int status = 0;
        if (::waitpid(child.pid, &status, WNOHANG) != child.pid) continue;
        if (child.restarts >= max_restarts) {
          problems.push_back("node " + std::to_string(node) +
                             ": restart budget exhausted (" +
                             std::to_string(max_restarts) + ")");
          failed = true;
          break;
        }
        ++child.restarts;
        ++child.incarnation;
        child.quiesced = false;
        child.pid = spawn_node(binary, child_config(node, child.incarnation), logs[node]);
        if (child.pid < 0) {
          problems.push_back("node " + std::to_string(node) + ": respawn failed");
          failed = true;
          break;
        }
        child.spawned_at = Clock::now();
        child.next_probe = child.spawned_at + probe_grace;
        std::fprintf(stderr,
                     "marp_cluster: reincarnated node %zu as pid %d (life %u)\n",
                     node, child.pid, child.incarnation);
      }
      if (failed) break;

      // 3. Heartbeat probes: a running process that times out is hung ==
      //    dead — kill it and let step 2 reincarnate it. ConnectFailed just
      //    means the listener is not up (restarting); leave it to waitpid.
      bool all_quiesced = true;
      for (std::size_t node = 0; node < spec.nodes; ++node) {
        Child& child = children[node];
        if (child.pid <= 0) continue;
        const auto probe_now = Clock::now();
        if (probe_now < child.next_probe) {
          all_quiesced = all_quiesced && child.quiesced;
          continue;
        }
        child.next_probe = probe_now + std::chrono::milliseconds(heartbeat_ms);
        const auto beat = probes[node].heartbeat();
        if (beat) {
          child.quiesced = beat->quiesced &&
                           beat->sessions_completed >= spec.sessions_per_node;
        } else {
          child.quiesced = false;
          if (probes[node].last_status() ==
                  marp::transport::SocketTransport::RpcStatus::Timeout &&
              probe_now - child.spawned_at > probe_grace) {
            std::fprintf(stderr,
                         "marp_cluster: node %zu hung (no heartbeat in %ldms), "
                         "killing pid %d\n",
                         node, hung_ms, child.pid);
            ::kill(child.pid, SIGKILL);
          }
        }
        all_quiesced = all_quiesced && child.quiesced;
      }

      // 4. Done once the schedule is spent and every node is quiesced.
      if (next_kill == schedule.size() && all_quiesced) break;
      ::usleep(50 * 1000);
    }

    if (!failed) {
      // Settle barrier: two anti-entropy rounds on every node so any store
      // entry a crash kept from propagating reaches all replicas before the
      // final dumps are compared.
      for (int round = 0; round < 2; ++round) {
        for (std::size_t node = 0; node < spec.nodes; ++node) {
          if (!clients[node].sync_pull()) {
            problems.push_back("node " + std::to_string(node) +
                               ": SyncPull settle barrier failed");
            failed = true;
          }
        }
        ::usleep(300 * 1000);
      }
    }
  }

  std::vector<marp::rpc::NodeDump> dumps;
  if (!failed) {
    for (std::size_t node = 0; node < spec.nodes; ++node) {
      auto dump = clients[node].dump();
      if (!dump) {
        problems.push_back("node " + std::to_string(node) + ": Dump RPC failed");
        failed = true;
        break;
      }
      dumps.push_back(std::move(*dump));
    }
  }

  // Span rings must come out before Shutdown tears the processes down.
  std::vector<marp::rpc::NodeTrace> node_traces;
  if (!failed && tracing) {
    for (std::size_t node = 0; node < spec.nodes; ++node) {
      auto trace = clients[node].trace_dump();
      if (!trace) {
        problems.push_back("node " + std::to_string(node) + ": TraceDump RPC failed");
        failed = true;
        break;
      }
      node_traces.push_back(std::move(*trace));
    }
    // Raw per-node dumps land next to the logs so tools/trace_merge can
    // re-merge (different reference node, tweaked quantiles) offline.
    for (const auto& trace : node_traces) {
      marp::serial::Writer w;
      trace.serialize(w);
      const std::string path =
          dir + "/node" + std::to_string(trace.node) + ".trace";
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(w.bytes().data()),
                static_cast<std::streamsize>(w.bytes().size()));
    }
  }

  // Tear the cluster down before judging results: Shutdown RPC, then reap
  // (SIGKILL stragglers so a wedged node cannot wedge the harness).
  for (std::size_t node = 0; node < spec.nodes; ++node) clients[node].shutdown();
  const auto reap_deadline = Clock::now() + std::chrono::seconds(10);
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    if (children[node].pid <= 0) continue;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(children[node].pid, &status, WNOHANG);
      if (r == children[node].pid) break;
      if (Clock::now() > reap_deadline) {
        ::kill(children[node].pid, SIGKILL);
        ::waitpid(children[node].pid, &status, 0);
        problems.push_back("node " + std::to_string(node) + ": killed (no shutdown)");
        failed = true;
        break;
      }
      ::usleep(50 * 1000);
    }
  }

  if (!failed) {
    const auto real = marp::transport::aggregate_cluster(dumps);
    // Under membership only the initial members originate (spares idle).
    const std::uint64_t expected_commits =
        static_cast<std::uint64_t>(membership ? spec.initial_members : spec.nodes) *
        spec.sessions_per_node;

    std::uint64_t retransmits = 0;
    for (const auto& d : dumps) {
      retransmits += d.commit_retransmits + d.report_retransmits + d.release_retransmits;
    }
    std::fprintf(stderr,
                 "marp_cluster: %llu commits (%llu expected), %llu aborts, "
                 "%llu mutex violations, %llu loss-injected, %llu retransmits\n",
                 static_cast<unsigned long long>(real.commits),
                 static_cast<unsigned long long>(expected_commits),
                 static_cast<unsigned long long>(real.aborts),
                 static_cast<unsigned long long>(real.mutex_violations),
                 static_cast<unsigned long long>(real.loss_injected),
                 static_cast<unsigned long long>(retransmits));

    if (membership) {
      // ---- view-scoped verdict: partial replication breaks whole-store
      // equality by design, so convergence is checked against the final
      // view, recomputed here (make_view is a pure function of epoch,
      // active set, rf, and group count — no protocol state needed).
      std::vector<marp::net::NodeId> active;
      for (std::size_t node = 0; node < spec.initial_members; ++node) {
        active.push_back(static_cast<marp::net::NodeId>(node));
      }
      for (const ChurnEvent& event : churn) {
        if (event.join) {
          active.push_back(static_cast<marp::net::NodeId>(event.node));
        } else {
          active.erase(std::remove(active.begin(), active.end(),
                                   static_cast<marp::net::NodeId>(event.node)),
                       active.end());
        }
      }
      const std::uint64_t final_epoch = 1 + churn.size();
      const auto view = marp::membership::make_view(
          final_epoch, active, spec.membership_rf, base.marp.num_lock_groups);
      const marp::shard::ShardRouter router(base.marp.num_lock_groups);

      if (real.commits != expected_commits) {
        problems.push_back("commit count mismatch: " + std::to_string(real.commits) +
                           " vs " + std::to_string(expected_commits) + " expected");
      }
      if (real.mutex_violations != 0) {
        problems.push_back("Theorem 2 violated: " +
                           std::to_string(real.mutex_violations) + " mutex violations");
      }

      for (const ChurnEvent& event : churn) {
        const auto& status = dumps[event.node].status;
        if (event.join) {
          if (status.retired || status.epoch != final_epoch) {
            problems.push_back("joiner " + std::to_string(event.node) +
                               " did not end up active in epoch " +
                               std::to_string(final_epoch));
          }
        } else if (!status.retired) {
          problems.push_back("leaver " + std::to_string(event.node) +
                             " never retired");
        }
      }

      // Per-key convergence across the key's replica set: every final-view
      // host of the key's group holds the same value. Non-hosts are allowed
      // stale copies (a leaver's frozen store, a pre-reshuffle replica) —
      // the view says they are no longer authoritative. Apply-order
      // equality is not checked: a joiner absorbs history via anti-entropy
      // merge, which legitimately reorders against live-commit order.
      std::vector<std::map<std::string, std::string>> stores(dumps.size());
      for (std::size_t node = 0; node < dumps.size(); ++node) {
        for (const auto& item : dumps[node].items) {
          stores[node][item.key] = item.value;
        }
      }
      std::map<std::string, bool> all_keys;
      for (const auto& store : stores) {
        for (const auto& [key, value] : store) all_keys[key] = true;
      }
      for (const auto& [key, seen] : all_keys) {
        const auto& replicas = view.replicas_of(router.group_of(key));
        const auto primary = stores[replicas.front()].find(key);
        if (primary == stores[replicas.front()].end()) {
          problems.push_back("key " + key + " missing from its primary host " +
                             std::to_string(replicas.front()) + " (group " +
                             std::to_string(router.group_of(key)) + ")");
          continue;
        }
        for (const marp::net::NodeId host : replicas) {
          const auto it = stores[host].find(key);
          if (it == stores[host].end()) {
            problems.push_back("host " + std::to_string(host) + " missing key " +
                               key + " (group " +
                               std::to_string(router.group_of(key)) + ")");
          } else if (it->second != primary->second) {
            problems.push_back("host " + std::to_string(host) +
                               " diverges on key " + key);
          }
        }
      }
      std::fprintf(stderr,
                   "marp_cluster: membership: epoch %llu, %zu active, rf %u, "
                   "%zu keys view-converged\n",
                   static_cast<unsigned long long>(final_epoch), active.size(),
                   spec.membership_rf, all_keys.size());
    } else if (!chaos) {
      if (real.commits != expected_commits) {
        problems.push_back("commit count mismatch");
      }
      if (real.mutex_violations != 0) {
        problems.push_back("Theorem 2 violated: " +
                           std::to_string(real.mutex_violations) + " mutex violations");
      }
      for (const std::string& d : real.divergences) problems.push_back(d);
      if (spec.send_loss == 0.0) {
        // Apply-order equality is only an invariant without loss: a
        // retransmitted COMMIT overtaken by a newer same-key commit is
        // rejected by the Thomas rule at some replicas and applied at others.
        for (const std::string& d : real.order_divergences) problems.push_back(d);
      }

      if (expect_retransmits) {
        if (real.loss_injected == 0) {
          problems.push_back("--expect-retransmits: no socket loss was injected");
        }
        if (retransmits == 0) {
          problems.push_back("--expect-retransmits: no reliable-commit retransmissions observed");
        }
      }

      if (check_sim) {
        const auto sim = marp::transport::run_reference_sim(spec);
        for (const std::string& v : marp::transport::compare_substrates(sim, real)) {
          problems.push_back("equivalence: " + v);
        }
        if (problems.empty()) {
          std::fprintf(stderr,
                       "marp_cluster: socket cluster matches reference sim "
                       "(%llu commits, %zu keys)\n",
                       static_cast<unsigned long long>(sim.commits), sim.store.size());
        }
      }
    } else {
      // ---- chaos verdict: the invariants that survive SIGKILL ----
      std::uint64_t pending = 0, revived = 0, deduped = 0, replayed = 0;
      std::uint64_t retries = 0, pulls = 0, merges = 0, fenced = 0, leases = 0;
      for (std::size_t node = 0; node < spec.nodes; ++node) {
        const auto& d = dumps[node];
        if (d.status.sessions_completed < spec.sessions_per_node) {
          problems.push_back("node " + std::to_string(node) + ": only " +
                             std::to_string(d.status.sessions_completed) + "/" +
                             std::to_string(spec.sessions_per_node) +
                             " sessions committed");
        }
        if (d.status.incarnation != children[node].incarnation) {
          problems.push_back("node " + std::to_string(node) +
                             ": reported incarnation " +
                             std::to_string(d.status.incarnation) + " != supervised " +
                             std::to_string(children[node].incarnation));
        }
        pending += d.agent_transfers_pending;
        revived += d.agent_transfers_revived;
        deduped += d.agent_transfers_deduped;
        replayed += d.journal_records_replayed;
        retries += d.session_retries;
        pulls += d.catchup_pulls;
        merges += d.catchup_merges;
        fenced += d.stale_incarnation_rejected;
        leases += d.agents_lease_purged;
      }
      if (kills_fired < chaos_kills) {
        problems.push_back("only " + std::to_string(kills_fired) + "/" +
                           std::to_string(chaos_kills) + " scheduled kills fired");
      }
      for (std::size_t k = 0; k < schedule.size(); ++k) {
        if (children[schedule[k].victim].incarnation == 0) {
          problems.push_back("victim node " + std::to_string(schedule[k].victim) +
                             " was never reincarnated");
        }
      }
      if (pending != 0) {
        problems.push_back(std::to_string(pending) +
                           " agent transfers still pending at quiescence "
                           "(agent lost in limbo)");
      }
      // Store oracle: strict last-session equality with the sim for origins
      // the chaos never touched; for crashed/retried origins any of their
      // own session values is legal (a retried session can commit after a
      // later one — the Thomas rule keeps the later commit time, so "last
      // session wins" only holds retry-free).
      std::vector<bool> relaxed(spec.nodes, false);
      for (std::size_t node = 0; node < spec.nodes; ++node) {
        relaxed[node] = children[node].incarnation > 0 ||
                        dumps[node].session_retries > 0;
      }
      const auto sim = marp::transport::run_reference_sim(spec);
      for (const std::string& v :
           marp::transport::compare_stores(sim, real, spec, relaxed)) {
        problems.push_back("chaos equivalence: " + v);
      }
      std::fprintf(stderr,
                   "marp_cluster: chaos recovery: %u kills, %llu journal records "
                   "replayed, %llu catch-up pulls, %llu merges, %llu session "
                   "retries, %llu stale frames fenced, %llu transfers revived, "
                   "%llu deduped, %llu lease purges\n",
                   kills_fired, static_cast<unsigned long long>(replayed),
                   static_cast<unsigned long long>(pulls),
                   static_cast<unsigned long long>(merges),
                   static_cast<unsigned long long>(retries),
                   static_cast<unsigned long long>(fenced),
                   static_cast<unsigned long long>(revived),
                   static_cast<unsigned long long>(deduped),
                   static_cast<unsigned long long>(leases));
    }
    failed = !problems.empty();
  }

  if (!failed && tracing) {
    marp::trace::MergeResult merged;
    if (!trace_path.empty()) {
      std::ofstream out(trace_path, std::ios::binary);
      if (!out) {
        problems.push_back("cannot open --trace " + trace_path);
      } else {
        merged = marp::trace::write_merged_trace(out, node_traces);
        std::fprintf(stderr,
                     "marp_cluster: merged trace: %zu spans, %zu flow events, "
                     "%zu unmatched open, %llu dropped -> %s\n",
                     merged.spans_emitted, merged.flows_emitted,
                     merged.open_unmatched,
                     static_cast<unsigned long long>(merged.spans_dropped),
                     trace_path.c_str());
        for (std::size_t node = 0; node < merged.offsets_us.size(); ++node) {
          std::fprintf(stderr,
                       "marp_cluster: clock offset node %zu: %lld us%s\n", node,
                       static_cast<long long>(merged.offsets_us[node]),
                       merged.aligned[node] ? "" : " (UNALIGNED: no samples)");
        }
      }
    } else {
      merged = marp::trace::align_clocks(node_traces);
    }
    if (!calibration_out.empty()) {
      std::ofstream out(calibration_out, std::ios::binary);
      if (!out) {
        problems.push_back("cannot open --calibration-out " + calibration_out);
      } else {
        marp::trace::write_calibration_json(out, merged.calibration);
        std::fprintf(stderr, "marp_cluster: calibration: %zu links -> %s\n",
                     merged.calibration.links.size(), calibration_out.c_str());
      }
    }
    failed = !problems.empty();
  }

  if (failed) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "marp_cluster: FAIL: %s\n", p.c_str());
    }
    for (const std::string& log : logs) dump_log(log);
    return 1;
  }
  std::fprintf(stderr, "marp_cluster: OK\n");
  return 0;
}
