#include "checks.hpp"

#include <functional>
#include <ostream>
#include <sstream>

namespace perfbench {

namespace mt = marp::transport;
namespace rpc = marp::rpc;

std::vector<std::string> check_cluster_round(const std::vector<rpc::NodeDump>& dumps,
                                             const mt::ClusterSpec& spec,
                                             const mt::SubstrateResult& reference) {
  std::vector<std::string> problems;
  const auto fail = [&](const std::string& what) { problems.push_back(what); };
  if (dumps.size() != spec.nodes) {
    fail("expected " + std::to_string(spec.nodes) + " node dumps, got " +
         std::to_string(dumps.size()));
    return problems;
  }
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    const rpc::NodeDump& d = dumps[i];
    const std::string node = "node " + std::to_string(i);
    if (!d.status.quiesced) fail(node + " did not reach quiescence");
    if (d.mutex_violations != 0) {
      fail(node + ": " + std::to_string(d.mutex_violations) + " mutex violation(s)");
    }
    if (d.agent_transfers_pending != 0) {
      fail(node + ": " + std::to_string(d.agent_transfers_pending) +
           " agent transfer(s) still pending");
    }
    if (d.checksum_rejected != 0 || d.malformed_rejected != 0) {
      fail(node + ": frames rejected on the wire (checksum " +
           std::to_string(d.checksum_rejected) + ", malformed " +
           std::to_string(d.malformed_rejected) + ")");
    }
  }

  const mt::SubstrateResult full = mt::aggregate_cluster(dumps);
  for (const std::string& d : full.divergences) fail(d);
  for (const std::string& d : full.order_divergences) fail(d);
  if (!full.order_divergences.empty()) {
    // Name the first differing key per node, so a failure says what moved.
    const auto& base = full.per_key_writers[0];
    for (std::size_t i = 1; i < full.per_key_writers.size(); ++i) {
      for (const auto& [key, writers] : full.per_key_writers[i]) {
        const auto it = base.find(key);
        const std::size_t base_applies = it == base.end() ? 0 : it->second.size();
        if (it == base.end() || it->second != writers) {
          const rpc::NodeDump& d = dumps[i];
          fail("node " + std::to_string(i) + " key '" + key + "': " +
               std::to_string(writers.size()) + " applies, node 0: " +
               std::to_string(base_applies) + " (commit retransmits " +
               std::to_string(d.commit_retransmits) + ", send failures " +
               std::to_string(d.send_failures) + ", transfers revived " +
               std::to_string(d.agent_transfers_revived) + ", session retries " +
               std::to_string(d.session_retries) + ")");
          break;
        }
      }
    }
  }
  const std::uint64_t expected = spec.nodes * spec.sessions_per_node;
  if (full.commits != expected) {
    fail("commits " + std::to_string(full.commits) + " != nodes x sessions " +
         std::to_string(expected));
  }
  for (const std::string& v : mt::compare_substrates(reference, full)) {
    fail("versus the reference simulation: " + v);
  }
  return problems;
}

std::vector<std::string> check_sim_run(const marp::runner::RunResult& result) {
  std::vector<std::string> problems;
  if (!result.consistent) {
    problems.push_back("consistency audit failed: " +
                       (result.consistency_problems.empty()
                            ? std::string("(no detail)")
                            : result.consistency_problems.front()));
  }
  if (result.mutex_violations != 0) {
    problems.push_back(std::to_string(result.mutex_violations) + " mutex violation(s)");
  }
  if (result.completed != result.generated) {
    problems.push_back("completed " + std::to_string(result.completed) +
                       " != generated " + std::to_string(result.generated));
  }
  if (result.failed_writes != 0) {
    problems.push_back(std::to_string(result.failed_writes) + " failed write(s)");
  }
  return problems;
}

std::vector<std::string> check_explore(const marp::check::ExploreReport& report,
                                       std::uint64_t cap) {
  std::vector<std::string> problems;
  if (!report.violations.empty()) {
    problems.push_back(std::to_string(report.violations.size()) +
                       " invariant violation(s), first: " +
                       report.violations.front().problem);
  }
  if (report.schedules_explored != cap) {
    problems.push_back("explored " + std::to_string(report.schedules_explored) +
                       " schedules, expected the cap " + std::to_string(cap));
  }
  return problems;
}

SimPins sim_pins(const marp::runner::RunResult& result) {
  SimPins p;
  p.completed = result.completed;
  p.messages = result.net_stats.messages_sent;
  p.migrations = result.agent_stats.migrations_started;
  p.migration_bytes = result.agent_stats.migration_bytes;
  p.alt_ms = result.alt_ms;
  p.att_ms = result.att_ms;
  return p;
}

ExplorePins explore_pins(const marp::check::ExploreReport& report) {
  return {report.schedules_explored, report.total_steps, report.sleep_blocked};
}

std::string describe(const SimPins& p) {
  std::ostringstream os;
  os.precision(17);
  os << "completed=" << p.completed << " messages=" << p.messages
     << " migrations=" << p.migrations << " migration_bytes=" << p.migration_bytes
     << " alt_ms=" << p.alt_ms << " att_ms=" << p.att_ms;
  return os.str();
}

std::string describe(const ExplorePins& p) {
  return "schedules=" + std::to_string(p.schedules) +
         " total_steps=" + std::to_string(p.total_steps) +
         " sleep_blocked=" + std::to_string(p.sleep_blocked);
}

// ---- self-test -----------------------------------------------------------

namespace {

/// Healthy dumps a 3-node cluster would report for `reference`'s workload:
/// the reference store and per-key order on every node, quiesced, clean.
std::vector<rpc::NodeDump> healthy_dumps(const mt::SubstrateResult& reference,
                                         std::size_t nodes) {
  std::vector<rpc::NodeDump> dumps(nodes);
  for (rpc::NodeDump& d : dumps) {
    d.status.quiesced = true;
    for (const auto& [key, value] : reference.store) d.items.push_back({key, value, 0});
    for (const auto& [key, writers] : reference.per_key_writers[0]) {
      for (std::uint32_t writer : writers) d.history.push_back({key, writer});
    }
  }
  dumps[0].status.commits = reference.commits;
  return dumps;
}

}  // namespace

int run_selftest(std::ostream& os) {
  int bad = 0;
  const auto expect = [&](const std::string& name, bool rejected, bool want_rejected) {
    const bool ok = rejected == want_rejected;
    os << "selftest " << name << ": " << (rejected ? "rejected" : "accepted")
       << (ok ? " (ok)" : " (WRONG)") << "\n";
    if (!ok) ++bad;
  };

  mt::ClusterSpec spec;
  spec.nodes = 3;
  spec.sessions_per_node = 4;
  spec.keys_per_origin = 8;
  spec.seed = 7;
  const mt::SubstrateResult reference = mt::run_reference_sim(spec);
  const std::vector<rpc::NodeDump> healthy = healthy_dumps(reference, spec.nodes);
  const auto cluster_rejects = [&](const std::function<void(std::vector<rpc::NodeDump>&)>& doctor) {
    std::vector<rpc::NodeDump> dumps = healthy;
    doctor(dumps);
    return !check_cluster_round(dumps, spec, reference).empty();
  };
  expect("cluster healthy dumps", cluster_rejects([](auto&) {}), false);
  expect("cluster diverging store", cluster_rejects([](auto& d) {
           d[2].items.front().value += "-doctored";
         }), true);
  expect("cluster store differs from reference on every node", cluster_rejects([](auto& d) {
           for (auto& node : d) node.items.front().value += "-doctored";
         }), true);
  expect("cluster mutex violation", cluster_rejects([](auto& d) { d[1].mutex_violations = 1; }),
         true);
  expect("cluster pending agent transfer",
         cluster_rejects([](auto& d) { d[0].agent_transfers_pending = 1; }), true);
  expect("cluster checksum rejection",
         cluster_rejects([](auto& d) { d[2].checksum_rejected = 1; }), true);
  expect("cluster not quiesced", cluster_rejects([](auto& d) { d[1].status.quiesced = false; }),
         true);
  expect("cluster lost commit", cluster_rejects([](auto& d) { d[0].status.commits -= 1; }),
         true);
  expect("cluster key missing everywhere", cluster_rejects([](auto& d) {
           for (auto& node : d) node.items.pop_back();
         }), true);
  expect("cluster apply order divergence", cluster_rejects([](auto& d) {
           d[1].history.push_back(d[1].history.front());
         }), true);

  marp::runner::RunResult run;
  run.generated = run.completed = 10;
  run.successful_writes = 5;
  expect("sim healthy result", !check_sim_run(run).empty(), false);
  {
    marp::runner::RunResult r = run;
    r.consistent = false;
    expect("sim inconsistent", !check_sim_run(r).empty(), true);
  }
  {
    marp::runner::RunResult r = run;
    r.mutex_violations = 1;
    expect("sim mutex violation", !check_sim_run(r).empty(), true);
  }
  {
    marp::runner::RunResult r = run;
    r.completed = 9;
    expect("sim incomplete", !check_sim_run(r).empty(), true);
  }

  marp::check::ExploreReport explored;
  explored.schedules_explored = 100;
  expect("explore healthy report", !check_explore(explored, 100).empty(), false);
  {
    marp::check::ExploreReport r = explored;
    r.violations.push_back({{0, 1}, "doctored violation", 3, 10});
    expect("explore violation", !check_explore(r, 100).empty(), true);
  }
  expect("explore short of the cap", !check_explore(explored, 101).empty(), true);

  SimPins pins;
  pins.messages = 10;
  SimPins drifted = pins;
  drifted.alt_ms = 1e-9;
  expect("sim pins drift", !(pins == drifted), true);
  return bad;
}

}  // namespace perfbench
