// marp_node's command line, bound once: marp_node parses its argv with this
// binding, and marp_cluster renders each child's argv from the child's
// RealNodeConfig with it, so the two cannot disagree on a flag.
#pragma once

#include <string>
#include <vector>

#include "transport/real_node.hpp"
#include "util/flags.hpp"

namespace marp::transport {

/// What marp_node runs with where a flag is absent: no node id (--node is
/// required), 20 sessions, reliable COMMIT.
RealNodeConfig node_defaults();

/// marp_node's flags, bound to the fields of `config`; the values `config`
/// holds now are the flags' defaults.
util::Flags node_flags(RealNodeConfig& config);

/// The marp_node arguments that parse back to `config`.
std::vector<std::string> node_arguments(const RealNodeConfig& config);

}  // namespace marp::transport
