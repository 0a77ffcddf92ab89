#include "marp/protocol.hpp"

#include <algorithm>
#include <numeric>

#include "marp/priority.hpp"
#include "marp/read_agent.hpp"
#include "marp/update_agent.hpp"
#include "membership/placement.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::core {

MarpProtocol::MarpProtocol(net::Network& network, agent::AgentPlatform& platform,
                           MarpConfig config)
    : network_(network),
      platform_(platform),
      config_(std::move(config)),
      router_(config_.num_lock_groups),
      quorum_(quorum::make_quorum_system(config_.quorum, network.size(),
                                         config_.votes,
                                         config_.read_quorum_votes)) {
  MARP_REQUIRE_MSG(config_.votes.empty() || config_.votes.size() == network_.size(),
                   "votes must be empty or have one entry per server");
  if (!platform_.registry().contains(kUpdateAgentType)) {
    platform_.registry().register_type<UpdateAgent>(kUpdateAgentType);
  }
  if (!platform_.registry().contains(kReadAgentType)) {
    platform_.registry().register_type<ReadAgent>(kReadAgentType);
  }
  if (config_.membership.enabled()) {
    MARP_REQUIRE_MSG(config_.votes.empty(),
                     "weighted voting and dynamic membership are exclusive");
    std::size_t members = config_.membership.initial_members;
    if (members == 0 || members > network_.size()) members = network_.size();
    std::vector<net::NodeId> active(members);
    std::iota(active.begin(), active.end(), net::NodeId{0});
    views_.push_back(membership::install_view(
        membership::make_view(1, std::move(active),
                              config_.membership.replication_factor,
                              config_.num_lock_groups, &network_.topology()),
        config_.quorum));
  } else {
    // A static deployment is the degenerate epoch-0 view: every group's
    // electorate is the whole cluster under its own geometry.
    views_.push_back(membership::install_static(quorum_, config_.num_lock_groups));
  }
  // Every node — spares included — starts knowing the initial view, so a
  // later join only has to move the epoch forward, never bootstrap it.
  servers_.reserve(network_.size());
  for (net::NodeId node = 0; node < network_.size(); ++node) {
    servers_.push_back(std::make_unique<MarpServer>(network_, platform_, node,
                                                    config_, *this, views_.front()));
    MarpServer* server = servers_.back().get();
    platform_.set_app_handler(
        node, [server](const net::Message& message) { server->handle_message(message); });
  }
}

MarpServer& MarpProtocol::server(net::NodeId node) {
  MARP_REQUIRE(node < servers_.size());
  return *servers_[node];
}

void MarpProtocol::submit(const replica::Request& request) {
  server(request.origin).submit(request);
}

void MarpProtocol::set_outcome_handler(replica::OutcomeHandler handler) {
  for (auto& server : servers_) server->set_outcome_handler(handler);
}

void MarpProtocol::fail_server(net::NodeId node) {
  MarpServer& failed = server(node);
  if (!failed.up()) return;
  // The process halts: the agents executing on it die with it.
  std::vector<agent::AgentId> dead = platform_.host(node).dispose_all();
  failed.fail();
  announce_agent_deaths(std::move(dead));
}

void MarpProtocol::announce_agent_deaths(std::vector<agent::AgentId> dead) {
  if (dead.empty()) return;
  // §2: "When a process fails, all other processes are informed of the
  // failure in a finite time" — after the notice delay, every live server
  // purges locking state owned by the dead agents so waiters can progress.
  network_.simulator().schedule(config_.failure_notice_delay,
                                [this, dead = std::move(dead)] {
    for (auto& srv : servers_) {
      if (srv->up()) srv->purge_agents(dead);
    }
  });
}

void MarpProtocol::recover_server(net::NodeId node) { server(node).recover(); }

void MarpProtocol::note_update_attempt(const agent::AgentId& agent,
                                       net::NodeId node) {
  ++stats_.update_attempts;
  if (phase_probe_) phase_probe_({ProtocolPhase::UpdateAttempt, agent, node});
}

void MarpProtocol::note_anomaly(Anomaly kind) {
  ProtocolAnomalies& a = stats_.anomalies;
  switch (kind) {
    case Anomaly::StaleAck: ++a.stale_acks; break;
    case Anomaly::StaleUpdate: ++a.stale_updates; break;
    case Anomaly::DuplicateUpdate: ++a.duplicate_updates; break;
    case Anomaly::DuplicateCommit: ++a.duplicate_commits; break;
    case Anomaly::DuplicateReport: ++a.duplicate_reports; break;
    case Anomaly::OrphanedReport: ++a.orphaned_reports; break;
    case Anomaly::CommitRetransmit: ++a.commit_retransmits; break;
    case Anomaly::ReportRetransmit: ++a.report_retransmits; break;
    case Anomaly::ReleaseRetransmit: ++a.release_retransmits; break;
    case Anomaly::FailedReadQuorum: ++a.failed_read_quorums; break;
    case Anomaly::EpochStaleUpdate: ++a.epoch_stale_updates; break;
    case Anomaly::EpochStaleAck: ++a.epoch_stale_acks; break;
    case Anomaly::JoinerRefusal: ++a.joiner_refusals; break;
  }
}

void MarpProtocol::note_update_quorum(const agent::AgentId& agent,
                                      const std::vector<shard::GroupId>& groups,
                                      net::NodeId node) {
  // Grants are exclusive per (server, group), so holder grant sets are
  // disjoint: a competing holder whose grants cover a write quorum means two
  // disjoint write quorums exist, i.e. intersection failed. Testing every
  // recorded view also catches a grant set assembled across epochs. Crashed
  // servers drop out of every set, which only makes coverage harder, so this
  // cannot false-positive.
  const std::vector<shard::GroupId> checked =
      groups.empty() ? std::vector<shard::GroupId>{0} : groups;
  for (const shard::GroupId g : checked) {
    std::map<agent::AgentId, std::vector<net::NodeId>> held;
    for (const auto& server : servers_) {
      if (server->up() && server->update_holder(g)) {
        held[*server->update_holder(g)].push_back(server->node());
      }
    }
    for (const auto& [holder, nodes] : held) {
      if (holder == agent) continue;
      const quorum::NodeSet grant_set = quorum::make_node_set(nodes);
      for (const auto& view : views_) {
        const membership::Electorate& electorate = view->electorate(g);
        if (electorate.quorum().write_covered(grant_set)) {
          ++stats_.mutex_violations;
          MARP_LOG_ERROR("marp")
              << "mutual exclusion violated in group " << g << " epoch "
              << electorate.epoch() << ": " << holder.to_string() << " and "
              << agent.to_string() << " both hold write quorums";
          break;
        }
      }
    }
  }
  if (tracer_) tracer_->quorum_win(agent, node);
  if (phase_probe_) phase_probe_({ProtocolPhase::UpdateQuorum, agent, node});
}

void MarpProtocol::note_update_commit(const agent::AgentId& agent,
                                      const std::vector<WriteOp>& ops,
                                      net::NodeId node) {
  ++stats_.updates_committed;
  CommitRecord record;
  record.agent = agent;
  record.committed = network_.simulator().now();
  record.entries.reserve(ops.size());
  for (const WriteOp& op : ops) {
    record.entries.push_back({op.key, router_.group_of(op.key), op.version});
  }
  commit_log_.push_back(std::move(record));
  if (phase_probe_) phase_probe_({ProtocolPhase::UpdateCommit, agent, node});
}

void MarpProtocol::note_update_abort(const agent::AgentId& agent,
                                     net::NodeId node) {
  ++stats_.updates_aborted;
  if (phase_probe_) phase_probe_({ProtocolPhase::UpdateAbort, agent, node});
}

void MarpProtocol::note_update_requeue(const agent::AgentId& agent) {
  (void)agent;
  ++stats_.lock_requeues;
}

const membership::MembershipView& MarpProtocol::current_view() const {
  return views_.back()->view;
}

bool MarpProtocol::owes_copy(net::NodeId node, const std::string& key) const {
  const MarpServer& holder = *servers_[node];
  return views_.back()->electorate(router_.group_of(key)).hosts(node) &&
         !holder.retired() && holder.epoch() == views_.back()->view.epoch;
}

void MarpProtocol::note_view_activated(
    std::shared_ptr<const membership::InstalledView> view) {
  // First activation of an epoch records it; later servers installing the
  // same view are catch-up, not new changes.
  const std::uint64_t epoch = view->view.epoch;
  for (const auto& recorded : views_) {
    if (recorded->view.epoch == epoch) return;
  }
  MARP_REQUIRE(epoch > views_.back()->view.epoch);
  MARP_LOG_INFO("marp") << "view epoch " << epoch << " activated with "
                        << view->view.active.size() << " members";
  views_.push_back(std::move(view));
  ++stats_.view_changes;
}

bool MarpProtocol::begin_view_change(std::vector<net::NodeId> new_active) {
  if (!config_.membership.enabled()) return false;
  // Coordinator: the lowest live member of the current view. The two-phase
  // change runs over normal protocol messages from that server.
  for (const net::NodeId member : current_view().active) {
    if (!servers_[member]->up()) continue;
    return servers_[member]->begin_view_change(std::move(new_active));
  }
  return false;
}

bool MarpProtocol::request_join(net::NodeId node) {
  if (!config_.membership.enabled() || node >= servers_.size()) return false;
  const membership::MembershipView& view = current_view();
  if (view.is_member(node)) return false;
  std::vector<net::NodeId> active = view.active;
  active.push_back(node);
  return begin_view_change(std::move(active));
}

bool MarpProtocol::request_leave(net::NodeId node) {
  if (!config_.membership.enabled()) return false;
  const membership::MembershipView& view = current_view();
  if (!view.is_member(node)) return false;
  std::vector<net::NodeId> active;
  active.reserve(view.active.size() - 1);
  for (const net::NodeId member : view.active) {
    if (member != node) active.push_back(member);
  }
  if (active.empty()) return false;
  return begin_view_change(std::move(active));
}

}  // namespace marp::core
