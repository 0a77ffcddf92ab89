#include "transport/node_flags.hpp"

namespace marp::util {

template <>
struct Text<transport::Endpoint> {
  static std::optional<transport::Endpoint> parse(std::string_view text) {
    return transport::Endpoint::parse(std::string(text));
  }
  static std::string format(const transport::Endpoint& endpoint) {
    return endpoint.to_string();
  }
  static std::string expected() { return "tcp:HOST:PORT or uds:PATH"; }
};

}  // namespace marp::util

namespace marp::transport {

RealNodeConfig node_defaults() {
  RealNodeConfig config;
  config.node = net::kInvalidNode;
  config.sessions = 20;
  config.marp.reliable_commit = true;
  return config;
}

util::Flags node_flags(RealNodeConfig& config) {
  util::Flags flags("marp_node");
  flags.add("--node", "I", config.node, "this node's id, required (default none)")
      .add("--endpoints", "LIST", config.endpoints,
           "one tcp:HOST:PORT or uds:PATH per node (default: DIR/nodeI.sock, I < --servers)")
      .add("--sessions", "S", config.sessions, "update sessions this node originates")
      .add("--keys-per-origin", "K", config.keys_per_origin, "distinct keys per origin")
      .toggle("--shared", config.shared_keys, true, "all nodes write the same shared keys")
      .add("--seed", "S", config.seed, "rng seed")
      .add("--loss", "P", config.send_loss, "socket-level AppMessage loss probability")
      .toggle("--no-checksum", config.checksum, false, "disable frame checksums")
      .toggle("--unreliable", config.marp.reliable_commit, false,
              "fire-and-forget COMMIT (paper budget)")
      .add("--start-delay-ms", "M", config.start_delay, "delay before the first session")
      .add("--replication-factor", "R", config.marp.membership.replication_factor,
           "copies per lock group (0 = full replication, no membership)")
      .add("--initial-members", "N", config.marp.membership.initial_members,
           "servers in the epoch-1 view, later ids are spares (0 = all)")
      .add("--state-dir", "DIR", config.data_dir,
           "durable checkpoint+journal directory (default: volatile)")
      .add("--incarnation", "I", config.incarnation, "reincarnation count, 0 = first life")
      .add("--epoch-us", "E", config.clock_epoch_us,
           "shared virtual-clock epoch, us on the monotonic clock (0 = now)")
      .add("--catchup-ms", "M", config.catchup_delay, "rejoin catch-up window")
      .add("--checkpoint-ms", "M", config.checkpoint_interval, "checkpoint cadence (0 = off)")
      .add("--session-retry-ms", "M", config.session_retry_timeout,
           "stalled-session watchdog (0 = off)")
      .add("--agent-lease-ms", "M", config.marp.agent_lease_timeout,
           "dead-agent lock-state lease (0 = off)")
      .add("--trace-capacity", "N", config.trace_capacity,
           "span ring served by TraceDump (0 = tracing off)")
      .add("--trace-skew-us", "U", config.trace_skew_us,
           "trace-clock offset, for testing the merge (protocol time unaffected)");
  return flags;
}

std::vector<std::string> node_arguments(const RealNodeConfig& config) {
  RealNodeConfig bound = node_defaults();
  const util::Flags flags = node_flags(bound);
  bound = config;
  return flags.render();
}

}  // namespace marp::transport
