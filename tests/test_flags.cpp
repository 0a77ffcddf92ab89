// The command-line flag table (src/util/flags.hpp) and marp_node's binding
// (src/transport/node_flags.hpp): whole-value parsing, errors that name the
// flag, a usage that lists every flag, and render() as the inverse of parse.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "quorum/spec.hpp"
#include "transport/node_flags.hpp"
#include "util/flags.hpp"

namespace marp {
namespace {

using util::FlagError;
using util::Flags;

/// The FlagError message for parsing `args`, or "" when they parse.
std::string error_of(Flags& flags, const std::vector<std::string>& args) {
  try {
    flags.parse(args);
  } catch (const FlagError& error) {
    return error.what();
  }
  return "";
}

template <typename T>
void expect_integer_binder_rejects_malformed_values() {
  T value{};
  Flags flags("tool");
  flags.add("--n", "N", value, "a number");
  std::vector<std::string> bad = {"abc", "5x", "1e2", "", " 5", "5 ", "+5"};
  if (std::is_unsigned_v<T>) bad.push_back("-1");
  for (const std::string& text : bad) {
    EXPECT_EQ(error_of(flags, {"--n", text}),
              "--n: expected " + util::Text<T>::expected() + ", got '" + text + "'");
  }
  EXPECT_EQ(error_of(flags, {"--n"}),
            "--n: expected " + util::Text<T>::expected() + ", got nothing");
  EXPECT_EQ(value, T{}) << "a rejected value must not be stored";
}

TEST(Flags, IntegerBindersRejectMalformedValues) {
  expect_integer_binder_rejects_malformed_values<std::uint16_t>();
  expect_integer_binder_rejects_malformed_values<std::uint32_t>();
  expect_integer_binder_rejects_malformed_values<std::uint64_t>();
  expect_integer_binder_rejects_malformed_values<std::int64_t>();
  expect_integer_binder_rejects_malformed_values<int>();
}

TEST(Flags, TimeAndEventBindersRejectMalformedValues) {
  sim::SimTime time;
  std::optional<util::NodeEvent> event;
  Flags flags("tool");
  flags.add("--ms", "MS", time, "a time").add("--at", "NODE@MS", event, "an event");
  for (const std::string text : {"abc", "5x", "1e2", "", "-1", "1.5"}) {
    EXPECT_NE(error_of(flags, {"--ms", text}).find("--ms: expected whole milliseconds"),
              std::string::npos)
        << text;
  }
  for (const std::string text : {"4", "4:1000", "1000:4", "@5", "4@", "-1@5", "4@1e3"}) {
    EXPECT_EQ(error_of(flags, {"--at", text}), "--at: expected NODE@MS, got '" + text + "'");
  }
  EXPECT_EQ(error_of(flags, {"--at"}), "--at: expected NODE@MS, got nothing");
  EXPECT_FALSE(event.has_value());
}

TEST(Flags, ValuesParseWhole) {
  std::uint32_t count = 0;
  std::int64_t offset = 0;
  double fraction = 0.0;
  sim::SimTime delay;
  std::optional<util::NodeEvent> event;
  std::vector<std::uint32_t> votes = {9};
  std::string path;
  quorum::Geometry geometry = quorum::Geometry::Majority;
  bool on = false;
  Flags flags("tool");
  flags.add("--count", "N", count, "")
      .add("--offset", "N", offset, "")
      .add("--fraction", "F", fraction, "")
      .add("--delay", "MS", delay, "")
      .add("--at", "NODE@MS", event, "")
      .add("--votes", "LIST", votes, "")
      .add("--path", "FILE", path, "")
      .choice("--quorum", geometry, quorum::kGeometryNames, "")
      .toggle("--on", on, true, "");
  ASSERT_TRUE(flags.parse(std::vector<std::string>{
      "--count", "42", "--offset", "-7", "--fraction", "1e-2", "--delay", "1500", "--at",
      "4@1000", "--votes", "3,1,1", "--path", "", "--quorum", "read-lease", "--on"}));
  EXPECT_EQ(count, 42u);
  EXPECT_EQ(offset, -7);
  EXPECT_EQ(fraction, 0.01);
  EXPECT_EQ(delay, sim::SimTime::millis(1500));
  EXPECT_EQ(event, (util::NodeEvent{4, sim::SimTime::seconds(1)}));
  EXPECT_EQ(votes, (std::vector<std::uint32_t>{3, 1, 1}));
  EXPECT_EQ(path, "");
  EXPECT_EQ(geometry, quorum::Geometry::ReadLease);
  EXPECT_TRUE(on);

  Flags lists("tool");
  lists.add("--votes", "LIST", votes, "");
  ASSERT_TRUE(lists.parse(std::vector<std::string>{"--votes", ""}));
  EXPECT_TRUE(votes.empty());
  EXPECT_EQ(error_of(lists, {"--votes", "3,,1"}),
            "--votes: expected a comma-separated list, each an unsigned integer, got '3,,1'");

  EXPECT_EQ(error_of(flags, {"--fraction", "nan"}), "--fraction: expected a number, got 'nan'");
  EXPECT_EQ(error_of(flags, {"--quorum", "ring"}),
            "--quorum: expected one of majority|tree|grid|read-lease, got 'ring'");
}

TEST(Flags, RejectsUnknownFlagsStrayArgumentsAndRepeats) {
  std::uint64_t seed = 1;
  std::vector<util::NodeEvent> fails;
  Flags flags("tool");
  flags.add("--seed", "N", seed, "")
      .repeated<util::NodeEvent>("--fail", "NODE@MS",
                                 [&fails](const util::NodeEvent& e) { fails.push_back(e); }, "");
  EXPECT_EQ(error_of(flags, {"--nodes", "5"}), "--nodes: unknown flag");
  EXPECT_EQ(error_of(flags, {"-n"}), "-n: unknown flag");
  EXPECT_EQ(error_of(flags, {"stray"}), "unexpected argument 'stray'");
  EXPECT_EQ(error_of(flags, {"--seed", "1", "--seed", "2"}), "--seed: given twice");
  fails.clear();
  ASSERT_TRUE(flags.parse(std::vector<std::string>{"--fail", "2@5", "--fail", "1@3"}));
  EXPECT_EQ(fails, (std::vector<util::NodeEvent>{{2, sim::SimTime::millis(5)},
                                                 {1, sim::SimTime::millis(3)}}));
}

TEST(Flags, HelpStopsParsingAndPositionalsCollect) {
  std::vector<std::string> paths;
  bool merged = false;
  Flags flags("tool");
  flags.toggle("--merged", merged, true, "").positional("FILE...", paths, "inputs");
  EXPECT_FALSE(flags.parse(std::vector<std::string>{"--help"}));
  EXPECT_FALSE(flags.parse(std::vector<std::string>{"-h"}));
  ASSERT_TRUE(flags.parse(std::vector<std::string>{"a.json", "--merged", "b.json"}));
  EXPECT_EQ(paths, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_TRUE(merged);
}

TEST(Flags, UsageListsEveryBoundFlagWithItsDefault) {
  std::size_t servers = 5;
  double loss = 0.25;
  quorum::Geometry geometry = quorum::Geometry::Tree;
  bool csv = false;
  std::vector<std::string> paths;
  Flags flags("tool");
  flags.add("--servers", "N", servers, "replicas")
      .add("--loss", "P", loss, "loss (default none)")
      .choice("--quorum", geometry, quorum::kGeometryNames, "geometry")
      .toggle("--csv", csv, true, "one row")
      .repeated<util::NodeEvent>("--fail", "NODE@MS", [](const util::NodeEvent&) {}, "fail")
      .positional("FILE...", paths, "inputs");
  std::ostringstream usage;
  flags.print_usage(usage);
  const std::string text = usage.str();
  EXPECT_EQ(text.rfind("usage: tool [flags] FILE...\n", 0), 0u) << text;
  for (const char* expected :
       {"--servers N", "replicas (default 5)", "--loss P", "loss (default none)\n",
        "--quorum majority|tree|grid|read-lease", "geometry (default tree)", "--csv",
        "--fail NODE@MS", "(repeatable)", "FILE...", "--help"}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected << "\n" << text;
  }
}

/// The flags a usage text lists, "--help" aside.
std::set<std::string> listed_flags(const Flags& flags) {
  std::ostringstream usage;
  flags.print_usage(usage);
  std::set<std::string> names;
  std::istringstream lines(usage.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  --", 0) != 0) continue;
    const std::string name = line.substr(2, line.find(' ', 2) - 2);
    if (name != "--help") names.insert(name);
  }
  return names;
}

TEST(NodeFlags, RenderParsesBackToEveryBoundField) {
  transport::RealNodeConfig config = transport::node_defaults();
  config.node = 3;
  config.endpoints = {*transport::Endpoint::parse("uds:/tmp/run/node0.sock"),
                      *transport::Endpoint::parse("tcp:10.0.0.2:7001"),
                      *transport::Endpoint::parse("uds:/tmp/run/node2.sock"),
                      *transport::Endpoint::parse("tcp:localhost:65535")};
  config.sessions = 41;
  config.keys_per_origin = 512;
  config.shared_keys = true;
  config.seed = 18446744073709551615ull;
  config.send_loss = 0.1 + 0.2;  // not a short decimal: exercises round-trip formatting
  config.checksum = false;
  config.marp.reliable_commit = false;
  config.start_delay = sim::SimTime::millis(17);
  config.marp.membership.replication_factor = 3;
  config.marp.membership.initial_members = 4;
  config.data_dir = "/tmp/run/state/node3";
  config.incarnation = 65535;
  config.clock_epoch_us = 1234567890123;
  config.catchup_delay = sim::SimTime::millis(750);
  config.checkpoint_interval = sim::SimTime::millis(250);
  config.session_retry_timeout = sim::SimTime::millis(3000);
  config.marp.agent_lease_timeout = sim::SimTime::millis(4000);
  config.trace_capacity = 1u << 18;
  config.trace_skew_us = -120000;

  const std::vector<std::string> args = transport::node_arguments(config);
  transport::RealNodeConfig parsed = transport::node_defaults();
  Flags flags = transport::node_flags(parsed);
  ASSERT_TRUE(flags.parse(args));

  // Every flag of the binding was written, so the check below covers them all.
  std::set<std::string> rendered;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) rendered.insert(arg);
  }
  EXPECT_EQ(rendered, listed_flags(flags));

  EXPECT_EQ(parsed.node, config.node);
  EXPECT_EQ(parsed.endpoints, config.endpoints);
  EXPECT_EQ(parsed.sessions, config.sessions);
  EXPECT_EQ(parsed.keys_per_origin, config.keys_per_origin);
  EXPECT_EQ(parsed.shared_keys, config.shared_keys);
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.send_loss, config.send_loss);
  EXPECT_EQ(parsed.checksum, config.checksum);
  EXPECT_EQ(parsed.marp.reliable_commit, config.marp.reliable_commit);
  EXPECT_EQ(parsed.start_delay, config.start_delay);
  EXPECT_EQ(parsed.marp.membership.replication_factor,
            config.marp.membership.replication_factor);
  EXPECT_EQ(parsed.marp.membership.initial_members, config.marp.membership.initial_members);
  EXPECT_EQ(parsed.data_dir, config.data_dir);
  EXPECT_EQ(parsed.incarnation, config.incarnation);
  EXPECT_EQ(parsed.clock_epoch_us, config.clock_epoch_us);
  EXPECT_EQ(parsed.catchup_delay, config.catchup_delay);
  EXPECT_EQ(parsed.checkpoint_interval, config.checkpoint_interval);
  EXPECT_EQ(parsed.session_retry_timeout, config.session_retry_timeout);
  EXPECT_EQ(parsed.marp.agent_lease_timeout, config.marp.agent_lease_timeout);
  EXPECT_EQ(parsed.trace_capacity, config.trace_capacity);
  EXPECT_EQ(parsed.trace_skew_us, config.trace_skew_us);
}

TEST(NodeFlags, DefaultsRenderToNothing) {
  EXPECT_TRUE(transport::node_arguments(transport::node_defaults()).empty());
}

}  // namespace
}  // namespace marp
