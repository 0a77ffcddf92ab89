#include "checkpoint/checkpoint.hpp"

#include <algorithm>

#include "marp/read_agent.hpp"
#include "marp/server.hpp"
#include "marp/update_agent.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::checkpoint {

void serialize_manifest(serial::Writer& w, const Manifest& manifest) {
  w.varint(manifest.size());
  for (const auto& [key, value] : manifest) {
    w.str(key);
    w.str(value.value);
    value.version.serialize(w);
  }
}

Manifest deserialize_manifest(serial::Reader& r) {
  Manifest manifest;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.str();
    replica::VersionedValue value;
    value.value = r.str();
    value.version = replica::Version::deserialize(r);
    manifest.emplace(std::move(key), std::move(value));
  }
  return manifest;
}

// ---------- CheckpointStore ----------

void CheckpointStore::save_local(std::uint64_t id, Manifest snapshot) {
  local_[id] = std::move(snapshot);
}

void CheckpointStore::seal(std::uint64_t id, Manifest manifest) {
  sealed_[id] = std::move(manifest);
}

const Manifest* CheckpointStore::sealed(std::uint64_t id) const {
  auto it = sealed_.find(id);
  return it == sealed_.end() ? nullptr : &it->second;
}

const Manifest* CheckpointStore::local(std::uint64_t id) const {
  auto it = local_.find(id);
  return it == local_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> CheckpointStore::sealed_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(sealed_.size());
  for (const auto& [id, manifest] : sealed_) ids.push_back(id);
  return ids;
}

// ---------- CheckpointManager ----------

CheckpointManager::CheckpointManager(core::MarpProtocol& protocol,
                                     agent::AgentPlatform& platform)
    : protocol_(protocol), platform_(platform) {
  if (!platform_.registry().contains(kCheckpointAgentType)) {
    platform_.registry().register_type<CheckpointAgent>(kCheckpointAgentType);
  }
  if (!platform_.registry().contains(kRollbackAgentType)) {
    platform_.registry().register_type<RollbackAgent>(kRollbackAgentType);
  }
  stores_.reserve(platform_.size());
  for (net::NodeId node = 0; node < platform_.size(); ++node) {
    stores_.push_back(std::make_unique<CheckpointStore>());
    platform_.host(node).set_service(kStoreServiceName, stores_.back().get());
    platform_.host(node).set_service(kManagerServiceName, this);
  }
}

CheckpointStore& CheckpointManager::store(net::NodeId node) {
  MARP_REQUIRE(node < stores_.size());
  return *stores_[node];
}

void CheckpointManager::checkpoint(std::uint64_t id, net::NodeId origin,
                                   Callback done) {
  if (done) callbacks_[id] = std::move(done);
  platform_.host(origin).create(std::make_unique<CheckpointAgent>(id, origin));
}

void CheckpointManager::rollback(std::uint64_t id, net::NodeId origin,
                                 Callback done) {
  MARP_REQUIRE_MSG(store(origin).has_sealed(id),
                   "rollback target not sealed at the origin server");
  if (done) callbacks_[id] = std::move(done);
  ++rollbacks_;
  platform_.host(origin).create(std::make_unique<RollbackAgent>(id, origin));
}

void CheckpointManager::notify(std::uint64_t id, bool ok) {
  ++completed_;
  auto it = callbacks_.find(id);
  if (it == callbacks_.end()) return;
  Callback callback = std::move(it->second);
  callbacks_.erase(it);
  callback(id, ok);
}

// ---------- shared tour helpers ----------

namespace {

std::vector<net::NodeId> all_nodes_except(std::size_t n, net::NodeId skip) {
  std::vector<net::NodeId> nodes;
  nodes.reserve(n - 1);
  for (net::NodeId node = 0; node < n; ++node) {
    if (node != skip) nodes.push_back(node);
  }
  return nodes;
}

void write_nodes(serial::Writer& w, const std::vector<net::NodeId>& nodes) {
  w.varint(nodes.size());
  for (net::NodeId node : nodes) w.varint(node);
}

std::vector<net::NodeId> read_nodes(serial::Reader& r) {
  const std::uint64_t n = r.length_prefix();
  std::vector<net::NodeId> nodes;
  nodes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    nodes.push_back(static_cast<net::NodeId>(r.varint()));
  }
  return nodes;
}

Manifest snapshot_of(const replica::VersionedStore& store) {
  Manifest snapshot;
  for (const auto& key : store.keys()) {
    snapshot.emplace(key, *store.read(key));
  }
  return snapshot;
}

}  // namespace

// ---------- CheckpointAgent ----------

CheckpointAgent::CheckpointAgent(std::uint64_t checkpoint_id, net::NodeId origin)
    : checkpoint_id_(checkpoint_id), origin_(origin) {}

void CheckpointAgent::on_created(agent::AgentContext& ctx) {
  auto* server = ctx.service<core::MarpServer>(core::kMarpServiceName);
  MARP_REQUIRE(server != nullptr);
  pending_ = all_nodes_except(server->cluster_size(), ctx.here());
  step(ctx);
}

void CheckpointAgent::on_arrival(agent::AgentContext& ctx) {
  migration_retries_ = 0;
  step(ctx);
}

void CheckpointAgent::step(agent::AgentContext& ctx) {
  auto* ckpt = ctx.service<CheckpointStore>(kStoreServiceName);
  auto* server = ctx.service<core::MarpServer>(core::kMarpServiceName);
  MARP_REQUIRE(ckpt != nullptr && server != nullptr);

  switch (phase_) {
    case Phase::Collecting: {
      // Snapshot this replica locally and fold its copies into the
      // manifest (freshest version per key wins).
      Manifest local = snapshot_of(server->store());
      for (const auto& [key, value] : local) {
        auto& best = manifest_[key];
        if (value.version > best.version) best = value;
      }
      ckpt->save_local(checkpoint_id_, std::move(local));
      if (!pending_.empty()) break;  // keep touring
      // Collection done: seal everywhere (including here), ending at home.
      phase_ = Phase::Sealing;
      ckpt->seal(checkpoint_id_, manifest_);
      pending_ = all_nodes_except(server->cluster_size(), ctx.here());
      // Visit unavailable servers last-chance? They stay skipped; sealing
      // tour covers the same reachable set.
      for (net::NodeId down : unavailable_) {
        pending_.erase(std::remove(pending_.begin(), pending_.end(), down),
                       pending_.end());
      }
      if (pending_.empty()) {
        finish(ctx, true);
        return;
      }
      break;
    }
    case Phase::Sealing: {
      ckpt->seal(checkpoint_id_, manifest_);
      if (!pending_.empty()) break;
      phase_ = Phase::Returning;
      if (ctx.here() == origin_) {
        finish(ctx, true);
        return;
      }
      ctx.dispatch_to(origin_);
      return;
    }
    case Phase::Returning: {
      finish(ctx, true);
      return;
    }
  }

  const net::NodeId next = pending_.front();
  pending_.erase(pending_.begin());
  ctx.dispatch_to(next);
}

void CheckpointAgent::on_migration_failed(agent::AgentContext& ctx,
                                          net::NodeId destination) {
  auto* server = ctx.service<core::MarpServer>(core::kMarpServiceName);
  if (++migration_retries_ <= server->config().migration_retry_limit) {
    ctx.dispatch_to(destination);
    return;
  }
  migration_retries_ = 0;
  if (destination == origin_ && phase_ == Phase::Returning) {
    // Home is gone; nobody to report to.
    ctx.dispose();
    return;
  }
  unavailable_.push_back(destination);
  step(ctx);  // continue the tour without it
}

void CheckpointAgent::finish(agent::AgentContext& ctx, bool ok) {
  if (auto* manager = ctx.service<CheckpointManager>(kManagerServiceName)) {
    manager->notify(checkpoint_id_, ok && unavailable_.empty());
  }
  ctx.dispose();
}

void CheckpointAgent::serialize(serial::Writer& w) const {
  w.varint(checkpoint_id_);
  w.varint(origin_);
  w.u8(static_cast<std::uint8_t>(phase_));
  serialize_manifest(w, manifest_);
  write_nodes(w, pending_);
  write_nodes(w, unavailable_);
  w.varint(migration_retries_);
}

void CheckpointAgent::deserialize(serial::Reader& r) {
  checkpoint_id_ = r.varint();
  origin_ = static_cast<net::NodeId>(r.varint());
  phase_ = static_cast<Phase>(r.u8());
  manifest_ = deserialize_manifest(r);
  pending_ = read_nodes(r);
  unavailable_ = read_nodes(r);
  migration_retries_ = static_cast<std::uint32_t>(r.varint());
}

// ---------- RollbackAgent ----------

RollbackAgent::RollbackAgent(std::uint64_t checkpoint_id, net::NodeId origin)
    : checkpoint_id_(checkpoint_id), origin_(origin) {}

void RollbackAgent::on_created(agent::AgentContext& ctx) {
  auto* ckpt = ctx.service<CheckpointStore>(kStoreServiceName);
  auto* server = ctx.service<core::MarpServer>(core::kMarpServiceName);
  MARP_REQUIRE(ckpt != nullptr && server != nullptr);
  const Manifest* sealed = ckpt->sealed(checkpoint_id_);
  if (sealed == nullptr) {
    finish(ctx, false);
    return;
  }
  manifest_ = *sealed;
  have_manifest_ = true;
  pending_ = all_nodes_except(server->cluster_size(), ctx.here());
  restore_here(ctx);
  step(ctx);
}

void RollbackAgent::on_arrival(agent::AgentContext& ctx) {
  migration_retries_ = 0;
  restore_here(ctx);
  step(ctx);
}

void RollbackAgent::restore_here(agent::AgentContext& ctx) {
  auto* server = ctx.service<core::MarpServer>(core::kMarpServiceName);
  MARP_REQUIRE(server != nullptr && have_manifest_);
  // Abort in-flight update sessions hosted here, wipe coordination state,
  // and restore the store to the manifest exactly.
  ctx.host().dispose_by_type(core::kUpdateAgentType);
  server->reset_coordination();
  server->store().clear_items();
  for (const auto& [key, value] : manifest_) {
    server->store().force(key, value.value, value.version);
  }
}

void RollbackAgent::step(agent::AgentContext& ctx) {
  if (!pending_.empty()) {
    const net::NodeId next = pending_.front();
    pending_.erase(pending_.begin());
    ctx.dispatch_to(next);
    return;
  }
  if (ctx.here() == origin_) {
    finish(ctx, unavailable_.empty());
    return;
  }
  ctx.dispatch_to(origin_);
  // After returning home, pending_ stays empty and here == origin, so the
  // next step() finishes. Mark the leg by leaving pending_ empty.
}

void RollbackAgent::on_migration_failed(agent::AgentContext& ctx,
                                        net::NodeId destination) {
  auto* server = ctx.service<core::MarpServer>(core::kMarpServiceName);
  if (++migration_retries_ <= server->config().migration_retry_limit) {
    ctx.dispatch_to(destination);
    return;
  }
  migration_retries_ = 0;
  if (destination == origin_) {
    ctx.dispose();
    return;
  }
  unavailable_.push_back(destination);
  step(ctx);
}

void RollbackAgent::finish(agent::AgentContext& ctx, bool ok) {
  if (auto* manager = ctx.service<CheckpointManager>(kManagerServiceName)) {
    manager->notify(checkpoint_id_, ok);
  }
  ctx.dispose();
}

void RollbackAgent::serialize(serial::Writer& w) const {
  w.varint(checkpoint_id_);
  w.varint(origin_);
  serialize_manifest(w, manifest_);
  w.boolean(have_manifest_);
  write_nodes(w, pending_);
  write_nodes(w, unavailable_);
  w.varint(migration_retries_);
}

void RollbackAgent::deserialize(serial::Reader& r) {
  checkpoint_id_ = r.varint();
  origin_ = static_cast<net::NodeId>(r.varint());
  manifest_ = deserialize_manifest(r);
  have_manifest_ = r.boolean();
  pending_ = read_nodes(r);
  unavailable_ = read_nodes(r);
  migration_retries_ = static_cast<std::uint32_t>(r.varint());
}

}  // namespace marp::checkpoint
