#include "check/monitor.hpp"

#include <sstream>

#include "marp/priority.hpp"
#include "marp/server.hpp"
#include "runner/consistency.hpp"

namespace marp::check {

namespace {

std::string agent_str(const agent::AgentId& id) {
  std::ostringstream os;
  os << "agent(" << id.origin << "@" << id.created_us << "#" << id.seq << ")";
  return os.str();
}

}  // namespace

InvariantMonitor::InvariantMonitor(core::MarpProtocol& protocol,
                                   agent::AgentPlatform& platform,
                                   net::Network& network, MonitorConfig config)
    : protocol_(protocol),
      platform_(platform),
      network_(network),
      config_(std::move(config)) {}

void InvariantMonitor::install() {
  chained_probe_ = protocol_.phase_probe();
  protocol_.set_phase_probe(
      [this](const core::PhaseEvent& event) { on_phase(event); });
  platform_.set_observer(this);
}

void InvariantMonitor::flag(std::string problem) {
  if (!problem_.empty()) return;  // keep the first (earliest) violation
  problem_ = std::move(problem);
  violation_step_ = current_step_;
  violation_time_us_ = network_.simulator().now().as_micros();
}

void InvariantMonitor::on_phase(const core::PhaseEvent& event) {
  if (event.phase == core::ProtocolPhase::UpdateQuorum &&
      config_.strict_agreement) {
    // Quorum-restricted and partial-replication tours give agents partial
    // views on purpose, so "everyone elects the same winner" holds only
    // under the paper's own full-tour electorate; elsewhere what must hold
    // is that only grant sets containing a true write quorum reach the
    // milestone. (Both are gated: a server can grant and then crash,
    // shrinking the live grant set below coverage.)
    if (protocol_.view_history().back()->electorate(0).counts_votes()) {
      check_quorum_agreement(event);
    } else {
      check_quorum_intersection(event);
    }
  }
  // Run the checks *before* forwarding, so a fault injector chained behind
  // us perturbs the state only after it has been judged.
  if (chained_probe_) chained_probe_(event);
}

quorum::NodeSet InvariantMonitor::grants_of(const agent::AgentId& agent,
                                            shard::GroupId g) const {
  quorum::NodeSet grants;
  for (net::NodeId node = 0; node < config_.servers; ++node) {
    if (!network_.node_up(node)) continue;
    const auto& holder = protocol_.server(node).update_holder(g);
    if (holder && *holder == agent) grants.push_back(node);
  }
  return grants;
}

void InvariantMonitor::check_quorum_agreement(const core::PhaseEvent& event) {
  // Ground truth "done" set: exactly the sessions that actually committed.
  // Built in bulk: one insertion per record would be quadratic.
  std::vector<agent::AgentId> committed;
  committed.reserve(protocol_.commit_log().size());
  for (const core::CommitRecord& record : protocol_.commit_log()) {
    committed.push_back(record.agent);
  }
  const core::DoneSet done(std::move(committed));

  for (shard::GroupId g = 0; g < config_.lock_groups; ++g) {
    // Did this quorum cover group g? A quorum in g means a majority of
    // servers granted g to the agent — grants are set before ACKs are sent,
    // so at the (synchronous) milestone the holders already reflect it.
    if (2 * grants_of(event.agent, g).size() <= config_.servers) continue;

    // Theorem 1/2: the unmutated priority rule, applied with perfect
    // information (the real Locking Lists, the real commit set), must elect
    // the agent that just assembled the quorum. In fault-free runs LL
    // entries only leave by committing, so a quorum by anyone else — or a
    // state where no winner is even decidable — is an agreement violation.
    core::LockTable table;
    const std::int64_t now_us = network_.simulator().now().as_micros();
    for (net::NodeId node = 0; node < config_.servers; ++node) {
      if (!network_.node_up(node)) continue;
      table[node] = core::LockSnapshot{
          protocol_.server(node).locking_list(g).snapshot(), now_us};
    }
    const core::Decision truth =
        core::decide(table, done, event.agent, config_.servers,
                     core::TieBreakMode::TotalOrder);
    if (truth.kind != core::Decision::Kind::Win) {
      std::ostringstream os;
      os << "Theorem 1/2 agreement violation: " << agent_str(event.agent)
         << " assembled an update quorum in group " << g
         << " but the ground-truth priority rule ";
      if (truth.kind == core::Decision::Kind::Lose && truth.winner) {
        os << "elects " << agent_str(*truth.winner);
      } else {
        os << "elects no decidable winner";
      }
      flag(os.str());
      return;
    }
  }
}

void InvariantMonitor::check_quorum_intersection(const core::PhaseEvent& event) {
  for (shard::GroupId g = 0; g < config_.lock_groups; ++g) {
    const quorum::NodeSet grants = grants_of(event.agent, g);
    if (grants.empty()) continue;  // group not part of this agent's claim

    const auto& views = protocol_.view_history();
    bool covered = false;
    for (const auto& view : views) {
      const membership::Electorate& electorate = view->electorate(g);
      // Grant state on a crashed or retired replica was destroyed, not
      // released: count those replicas as granting so churn straddling the
      // milestone cannot shrink a legitimate quorum into a false alarm.
      quorum::NodeSet candidate = grants;
      for (const net::NodeId node : electorate.replicas()) {
        if (!network_.node_up(node) || protocol_.server(node).retired()) {
          candidate.push_back(node);
        }
      }
      if (electorate.quorum().write_covered(
              quorum::make_node_set(std::move(candidate)))) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      std::ostringstream os;
      os << "Theorem 2 intersection violation: " << agent_str(event.agent)
         << " assembled an update quorum in group " << g
         << " but its grant set {";
      for (std::size_t i = 0; i < grants.size(); ++i) {
        os << (i ? "," : "") << grants[i];
      }
      const quorum::Geometry geometry =
          views.back()->electorate(g).quorum().geometry();
      os << "} covers no write quorum of group " << g << "'s "
         << quorum::geometry_name(geometry) << " electorate in any recorded view";
      flag(os.str());
      return;
    }
  }
}

void InvariantMonitor::check_commit_log_order() {
  const auto& log = protocol_.commit_log();
  if (log.size() == commit_log_checked_) return;
  commit_log_checked_ = log.size();
  runner::ConsistencyReport report =
      runner::check_commit_order(log, config_.lock_groups);
  report.merge(runner::check_per_key_order(log));
  if (!report.ok) flag("order violation: " + report.problems.front());
}

bool InvariantMonitor::after_step(std::uint64_t step) {
  current_step_ = step;
  if (!problem_.empty()) return false;
  if (protocol_.stats().mutex_violations != 0) {
    flag("Theorem 2 violation: two agents held concurrent update-grant "
         "majorities in one lock group");
    return false;
  }
  check_commit_log_order();
  return problem_.empty();
}

void InvariantMonitor::on_migration_started(const agent::AgentId& id,
                                            net::NodeId /*from*/,
                                            net::NodeId /*to*/,
                                            std::size_t /*bytes*/) {
  const std::uint64_t count = ++migrations_[id];
  if (config_.max_migrations_per_agent != 0 &&
      count > config_.max_migrations_per_agent) {
    std::ostringstream os;
    os << "Theorem 3 violation: " << agent_str(id) << " migrated " << count
       << " times (bound " << config_.max_migrations_per_agent << ")";
    flag(os.str());
  }
}

void InvariantMonitor::final_checks(const std::vector<bool>& eligible,
                                    std::size_t outcomes) {
  if (!problem_.empty()) return;

  // Grant-leak freedom: a quiesced system holds no update grants. (The
  // failure-notice purge must have reclaimed grants of crashed agents.)
  for (net::NodeId node = 0; node < config_.servers; ++node) {
    if (!network_.node_up(node)) continue;
    for (shard::GroupId g = 0; g < config_.lock_groups; ++g) {
      const auto& holder = protocol_.server(node).update_holder(g);
      if (holder) {
        std::ostringstream os;
        os << "grant leak: server " << node << " group " << g
           << " still granted to " << agent_str(*holder) << " at quiescence";
        flag(os.str());
        return;
      }
    }
  }

  if (config_.expect_completion) {
    if (outcomes != config_.expected_outcomes) {
      std::ostringstream os;
      os << "liveness violation: " << outcomes << "/"
         << config_.expected_outcomes << " requests answered within horizon";
      flag(os.str());
      return;
    }
    for (net::NodeId node = 0; node < config_.servers; ++node) {
      if (!network_.node_up(node)) continue;
      const core::MarpServer& server = protocol_.server(node);
      for (shard::GroupId g = 0; g < config_.lock_groups; ++g) {
        if (!server.locking_list(g).snapshot().empty()) {
          std::ostringstream os;
          os << "lock leak: server " << node << " group " << g
             << " Locking List non-empty at quiescence";
          flag(os.str());
          return;
        }
      }
      if (server.pending_requests() != 0) {
        std::ostringstream os;
        os << "wedged requests: server " << node << " still buffers "
           << server.pending_requests() << " requests at quiescence";
        flag(os.str());
        return;
      }
    }
    if (platform_.live_agents() != 0) {
      std::ostringstream os;
      os << "agent leak: " << platform_.live_agents()
         << " agents still alive at quiescence";
      flag(os.str());
      return;
    }
  }

  // Convergence + replica monotonicity + final order audit.
  std::vector<const replica::VersionedStore*> stores;
  for (net::NodeId node = 0; node < config_.servers; ++node) {
    stores.push_back(&protocol_.server(node).store());
  }
  // Scoped convergence: only replicas owing a key's group under the final
  // view must agree on it. Leavers keep frozen stores and spares hold
  // nothing — both exempt; a joiner that never finished catch-up shows up
  // here as a hosting replica missing its group's keys.
  runner::ConsistencyReport report = runner::check_convergence(
      stores, eligible, [&](std::size_t i, const std::string& key) {
        const net::NodeId node = static_cast<net::NodeId>(i);
        return network_.node_up(node) && protocol_.owes_copy(node, key);
      });
  for (std::size_t i = 0; i < stores.size(); ++i) {
    report.merge(runner::check_monotonic_history(*stores[i], i));
  }
  report.merge(runner::check_commit_order(protocol_.commit_log(),
                                          config_.lock_groups));
  report.merge(runner::check_per_key_order(protocol_.commit_log()));
  if (!report.ok) flag("consistency violation: " + report.problems.front());
}

}  // namespace marp::check
