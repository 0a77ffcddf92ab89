#include "marp/read_agent.hpp"

#include "marp/priority.hpp"
#include "marp/protocol.hpp"
#include "marp/server.hpp"
#include "marp/wire.hpp"

namespace marp::core {

namespace {

/// Default read quorum: the minimal vote count intersecting every write
/// majority — r = V − ⌊V/2⌋ (so r + w > V with w = ⌊V/2⌋ + 1).
std::uint32_t read_quorum_for(const MarpConfig& config, std::size_t n_servers) {
  if (config.read_quorum_votes != 0) return config.read_quorum_votes;
  const std::uint32_t total = total_votes(config.votes, n_servers);
  return total - total / 2;
}

}  // namespace

ReadAgent::ReadAgent(net::NodeId origin, std::uint64_t request_id, std::string key)
    : origin_(origin), request_id_(request_id), key_(std::move(key)) {}

const membership::Electorate& ReadAgent::electorate(agent::AgentContext& ctx) const {
  MarpServer& server = server_here(ctx);
  return server.electorate(server.router().group_of(key_));
}

bool ReadAgent::covered(agent::AgentContext& ctx) const {
  const membership::Electorate& e = electorate(ctx);
  if (e.counts_votes()) return gathered_votes_ >= needed_votes_;
  return e.quorum().read_covered(quorum::make_node_set(tour_.visited()));
}

bool ReadAgent::reselect_quorum(agent::AgentContext& ctx) {
  const membership::Electorate& e = electorate(ctx);
  if (e.counts_votes()) return true;  // every replica is toured already
  const auto members = e.quorum().pick_read_quorum(tour_.down(), ctx.here());
  if (!members) {
    server_here(ctx).protocol().note_anomaly(Anomaly::FailedReadQuorum);
    finish(ctx, /*success=*/false);
    return false;
  }
  server_here(ctx).protocol().note_quorum_reselection();
  tour_.retarget(*members);
  if (covered(ctx)) {
    finish(ctx, /*success=*/true);
    return false;
  }
  return true;
}

void ReadAgent::on_created(agent::AgentContext& ctx) {
  MarpServer& server = server_here(ctx);
  needed_votes_ = read_quorum_for(server.config(), server.cluster_size());
  epoch_ = server.epoch();
  const membership::Electorate& e = electorate(ctx);
  if (e.counts_votes()) {
    tour_.begin(e.replicas());
  } else {
    // Tour one of the electorate's read quorums (a column transversal, a
    // tree quorum, a single lease holder, …). Prefer the origin so the local
    // visit counts.
    const auto members = e.quorum().pick_read_quorum({}, ctx.here());
    if (!members) {
      // No read quorum exists right now (e.g. a read-lease holder is down,
      // or the geometry is mid-reconfiguration). That is a failed read, not
      // a protocol bug: report failure to the origin instead of aborting
      // the whole process.
      server.protocol().note_anomaly(Anomaly::FailedReadQuorum);
      finish(ctx, /*success=*/false);
      return;
    }
    tour_.begin(*members);
  }
  do_visit(ctx);
}

void ReadAgent::on_arrival(agent::AgentContext& ctx) {
  tour_.reset_retries();
  do_visit(ctx);
}

void ReadAgent::do_visit(agent::AgentContext& ctx) {
  MarpServer& server = server_here(ctx);
  if (server.config().mutant != ProtocolMutant::MixedEpoch &&
      server.epoch() > epoch_) {
    // The view moved under this tour: visits made under the old epoch no
    // longer prove intersection with the current write quorums. Restart the
    // tour over the new view's replica set. best_ survives — a version
    // already observed stays a legal lower bound under the Thomas rule.
    epoch_ = server.epoch();
    tour_.forget_visits();
    if (!reselect_quorum(ctx)) return;
  }
  if (server.catching_up()) {
    // A joiner mid-catch-up may still miss committed writes for its newly
    // gained groups; counting it towards the read quorum could surface a
    // stale value. Route around it as if unreachable.
    tour_.price(server.routing_costs());
    tour_.drop(ctx.here());
    if (reselect_quorum(ctx)) move_on(ctx);
    return;
  }
  if (auto local = server.store().read(key_)) {
    if (local->version > best_.version) best_ = *local;
  }
  gathered_votes_ += vote_of(server.config().votes, ctx.here());
  tour_.price(server.routing_costs());
  tour_.visit(ctx.here());

  if (covered(ctx)) {
    finish(ctx, /*success=*/true);
    return;
  }
  move_on(ctx);
}

void ReadAgent::move_on(agent::AgentContext& ctx) {
  const net::NodeId next = tour_.next_hop(ctx.here());
  if (next == net::kInvalidNode) {
    finish(ctx, /*success=*/false);  // quorum unreachable
    return;
  }
  ctx.dispatch_to(next);
}

void ReadAgent::on_migration_failed(agent::AgentContext& ctx,
                                    net::NodeId destination) {
  MarpServer& server = server_here(ctx);
  if (tour_.failed_dispatch() <= server.config().migration_retry_limit) {
    ctx.dispatch_to(destination);
    return;
  }
  tour_.drop(destination);
  tour_.reset_retries();
  // Re-pick a read quorum around the dead member; keep the current position
  // preferred so the visits already made keep counting.
  if (reselect_quorum(ctx)) move_on(ctx);
}

void ReadAgent::finish(agent::AgentContext& ctx, bool success) {
  ReadReportPayload report;
  report.request_id = request_id_;
  report.success = success;
  report.value = best_.value;
  report.version = best_.version;
  report.servers_visited = servers_visited();
  if (origin_ == ctx.here()) {
    server_here(ctx).handle_read_report_local(report);
  } else {
    ctx.send_to_node(origin_, kMsgReadReport, report.encode());
  }
  ctx.dispose();
}

void ReadAgent::serialize(serial::Writer& w) const {
  w.varint(origin_);
  w.varint(request_id_);
  w.str(key_);
  w.varint(needed_votes_);
  w.varint(gathered_votes_);
  w.str(best_.value);
  best_.version.serialize(w);
  tour_.serialize(w);
  // Trailing optional, absent at epoch 0: a static deployment's migration
  // sizes carry no byte of it.
  if (epoch_ != 0) w.varint(epoch_);
}

void ReadAgent::deserialize(serial::Reader& r) {
  origin_ = static_cast<net::NodeId>(r.varint());
  request_id_ = r.varint();
  key_ = r.str();
  needed_votes_ = static_cast<std::uint32_t>(r.varint());
  gathered_votes_ = static_cast<std::uint32_t>(r.varint());
  best_.value = r.str();
  best_.version = replica::Version::deserialize(r);
  tour_ = Tour::deserialize(r);
  epoch_ = r.at_end() ? 0 : r.varint();
}

}  // namespace marp::core
