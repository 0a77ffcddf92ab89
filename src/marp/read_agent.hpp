// ReadAgent — quorum reads, the mobile-agent way.
//
// An extension in the spirit of §5 ("the MAW approach is a generic method,
// which can be used to implement different kinds of replication control
// algorithms"): instead of reading the possibly-stale local copy, a read
// agent tours servers — cheapest first, like the UpdateAgent — collecting
// (version, value) pairs until the servers it has visited form a read quorum
// of the key's electorate, which intersects every write quorum. Under the
// paper's static majority it tours every replica and counts votes; every
// other electorate tours one picked read quorum. It then reports the
// freshest copy to its origin server and disposes. No locks are taken:
// reads never block writes.
#pragma once

#include <string>

#include "agent/agent.hpp"
#include "marp/tour.hpp"
#include "membership/electorate.hpp"
#include "replica/versioned_store.hpp"

namespace marp::core {

class MarpServer;

/// Registry name for this agent type.
inline constexpr const char* kReadAgentType = "marp.read";

class ReadAgent final : public agent::MobileAgent {
 public:
  ReadAgent() = default;  ///< for the registry
  ReadAgent(net::NodeId origin, std::uint64_t request_id, std::string key);

  std::string type_name() const override { return kReadAgentType; }

  void on_created(agent::AgentContext& ctx) override;
  void on_arrival(agent::AgentContext& ctx) override;
  void on_migration_failed(agent::AgentContext& ctx, net::NodeId destination) override;

  void serialize(serial::Writer& w) const override;
  void deserialize(serial::Reader& r) override;

  std::uint32_t servers_visited() const noexcept { return tour_.servers_visited(); }

 private:
  void do_visit(agent::AgentContext& ctx);
  void finish(agent::AgentContext& ctx, bool success);
  /// Migrate to the cheapest server left on the tour, or report failure
  /// when none is.
  void move_on(agent::AgentContext& ctx);
  /// Electorate of the key's lock group under the local installed view: the
  /// read must cover one of its read quorums.
  const membership::Electorate& electorate(agent::AgentContext& ctx) const;
  /// Whether the servers visited so far cover a read quorum.
  bool covered(agent::AgentContext& ctx) const;
  /// Re-select a read quorum around the unavailable servers (electorates
  /// that count votes tour every replica and have nothing to re-pick). Returns false
  /// when the tour is over (no quorum left → failure reported, or the
  /// visits already cover → success reported); true to keep touring.
  bool reselect_quorum(agent::AgentContext& ctx);

  net::NodeId origin_ = net::kInvalidNode;
  std::uint64_t request_id_ = 0;
  std::string key_;
  /// Vote-counting tally (counts_votes electorates): the read threshold and
  /// the votes of the servers visited so far.
  std::uint32_t needed_votes_ = 0;
  std::uint32_t gathered_votes_ = 0;
  replica::VersionedValue best_;
  Tour tour_;
  /// Epoch of the view the current tour runs under (0 = static deployment).
  /// Serialized as a trailing optional field, so a static deployment's
  /// migrations carry no byte of it.
  std::uint64_t epoch_ = 0;
};

}  // namespace marp::core
