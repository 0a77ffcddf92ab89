// Runner tests: the experiment driver (all protocols, determinism,
// consistency audit), the parallel sweep machinery, the thread pool, and
// randomized cross-protocol invariant checks.
#include <gtest/gtest.h>

#include <atomic>

#include "runner/consistency.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep.hpp"
#include "util/thread_pool.hpp"

namespace marp::runner {
namespace {

ExperimentConfig small_config(ProtocolKind protocol, std::uint64_t seed = 1) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.servers = 5;
  config.seed = seed;
  config.workload.mean_interarrival_ms = 60.0;
  config.workload.duration = sim::SimTime::seconds(3);
  config.drain = sim::SimTime::seconds(20);
  return config;
}

class AllProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocols, RunsToCompletionConsistently) {
  const RunResult result = run_experiment(small_config(GetParam()));
  EXPECT_GT(result.generated, 0u);
  EXPECT_GT(result.successful_writes, 0u);
  // Every generated request must be accounted for: success or failure.
  EXPECT_EQ(result.completed, result.generated);
  EXPECT_TRUE(result.consistent)
      << (result.consistency_problems.empty() ? ""
                                              : result.consistency_problems[0]);
  EXPECT_EQ(result.mutex_violations, 0u);
  EXPECT_GT(result.att_ms, 0.0);
  EXPECT_LE(result.alt_ms, result.att_ms);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocols,
    ::testing::Values(ProtocolKind::Marp, ProtocolKind::MpMcv,
                      ProtocolKind::WeightedVoting, ProtocolKind::AvailableCopy,
                      ProtocolKind::PrimaryCopy, ProtocolKind::Tsae),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return std::string(protocol_name(info.param)) == "MP-MCV"
                 ? std::string("MpMcv")
                 : std::string(protocol_name(info.param));
    });

TEST(Experiment, SameSeedSameResult) {
  const RunResult a = run_experiment(small_config(ProtocolKind::Marp, 77));
  const RunResult b = run_experiment(small_config(ProtocolKind::Marp, 77));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.successful_writes, b.successful_writes);
  EXPECT_DOUBLE_EQ(a.alt_ms, b.alt_ms);
  EXPECT_DOUBLE_EQ(a.att_ms, b.att_ms);
  EXPECT_EQ(a.net_stats.messages_sent, b.net_stats.messages_sent);
  EXPECT_EQ(a.agent_stats.migrations_started, b.agent_stats.migrations_started);
}

TEST(Experiment, SameSeedIsByteIdenticalPerRequest) {
  // The model checker (src/check/) and chaos replay both stand on this:
  // a run is a pure function of its config + seed, down to every
  // per-request timestamp — not just the aggregates the test above pins.
  // Faults and link-level chaos are included to cover the RNG draws on
  // those paths too.
  auto config = small_config(ProtocolKind::Marp, 91);
  config.keep_outcomes = true;
  config.link_faults.drop = 0.05;
  config.failures.push_back({sim::SimTime::seconds(1), 2, true});
  config.failures.push_back({sim::SimTime::seconds(2), 2, false});

  const RunResult a = run_experiment(config);
  const RunResult b = run_experiment(config);

  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.successful_writes, b.successful_writes);
  EXPECT_EQ(a.failed_writes, b.failed_writes);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_DOUBLE_EQ(a.alt_ms, b.alt_ms);
  EXPECT_DOUBLE_EQ(a.att_ms, b.att_ms);
  EXPECT_DOUBLE_EQ(a.client_latency_ms, b.client_latency_ms);
  EXPECT_DOUBLE_EQ(a.att_p99_ms, b.att_p99_ms);
  EXPECT_EQ(a.prk, b.prk);
  EXPECT_EQ(a.net_stats.messages_sent, b.net_stats.messages_sent);
  EXPECT_EQ(a.net_stats.messages_delivered, b.net_stats.messages_delivered);
  EXPECT_EQ(a.net_stats.bytes_sent, b.net_stats.bytes_sent);
  EXPECT_EQ(a.net_stats.fault_drops, b.net_stats.fault_drops);
  EXPECT_EQ(a.agent_stats.migrations_started, b.agent_stats.migrations_started);
  EXPECT_EQ(a.marp_stats.updates_committed, b.marp_stats.updates_committed);
  EXPECT_EQ(a.marp_stats.updates_aborted, b.marp_stats.updates_aborted);
  EXPECT_EQ(a.marp_stats.update_attempts, b.marp_stats.update_attempts);
  EXPECT_EQ(a.mutex_violations, b.mutex_violations);
  EXPECT_EQ(a.consistent, b.consistent);
  EXPECT_EQ(a.consistency_problems, b.consistency_problems);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const replica::Outcome& x = a.outcomes[i];
    const replica::Outcome& y = b.outcomes[i];
    EXPECT_EQ(x.request_id, y.request_id) << "outcome " << i;
    EXPECT_EQ(x.kind, y.kind) << "outcome " << i;
    EXPECT_EQ(x.origin, y.origin) << "outcome " << i;
    EXPECT_EQ(x.success, y.success) << "outcome " << i;
    EXPECT_EQ(x.value, y.value) << "outcome " << i;
    EXPECT_EQ(x.submitted, y.submitted) << "outcome " << i;
    EXPECT_EQ(x.completed, y.completed) << "outcome " << i;
    EXPECT_EQ(x.dispatched, y.dispatched) << "outcome " << i;
    EXPECT_EQ(x.lock_obtained, y.lock_obtained) << "outcome " << i;
    EXPECT_EQ(x.servers_visited, y.servers_visited) << "outcome " << i;
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  const RunResult a = run_experiment(small_config(ProtocolKind::Marp, 1));
  const RunResult b = run_experiment(small_config(ProtocolKind::Marp, 2));
  // Arrival processes differ, so the workloads should too.
  EXPECT_NE(a.net_stats.messages_sent, b.net_stats.messages_sent);
}

TEST(Experiment, MarpSendsFewerMessagesThanMcv) {
  // The paper's headline claim (§1, §5): mobile agents avoid the message
  // rounds of conventional quorum protocols.
  const RunResult marp = run_experiment(small_config(ProtocolKind::Marp, 5));
  const RunResult mcv = run_experiment(small_config(ProtocolKind::MpMcv, 5));
  ASSERT_GT(marp.successful_writes, 0u);
  ASSERT_GT(mcv.successful_writes, 0u);
  EXPECT_LT(marp.messages_per_write(), mcv.messages_per_write());
}

TEST(Experiment, WanRunsWork) {
  ExperimentConfig config = small_config(ProtocolKind::Marp);
  config.network = NetworkKind::Wan;
  config.workload.duration = sim::SimTime::seconds(2);
  config.drain = sim::SimTime::seconds(60);
  config.workload.mean_interarrival_ms = 200.0;
  const RunResult result = run_experiment(config);
  EXPECT_GT(result.successful_writes, 0u);
  EXPECT_TRUE(result.consistent);
}

TEST(Experiment, FailureScheduleIsHonoured) {
  ExperimentConfig config = small_config(ProtocolKind::Marp);
  config.failures.push_back({sim::SimTime::millis(500), 4, true});
  config.failures.push_back({sim::SimTime::millis(1500), 4, false});
  const RunResult result = run_experiment(config);
  EXPECT_GT(result.successful_writes, 0u);
  EXPECT_EQ(result.mutex_violations, 0u);
  // Convergence is only audited on servers untouched by the schedule, so the
  // run must still be consistent.
  EXPECT_TRUE(result.consistent)
      << (result.consistency_problems.empty() ? ""
                                              : result.consistency_problems[0]);
}

TEST(Sweep, ReplicatedRunsAggregate) {
  ThreadPool pool(4);
  const Aggregate aggregate =
      run_replicated(small_config(ProtocolKind::Marp), 4, pool);
  EXPECT_EQ(aggregate.alt_ms.count(), 4u);
  EXPECT_GT(aggregate.successful_writes, 0u);
  EXPECT_TRUE(aggregate.all_consistent);
  EXPECT_EQ(aggregate.mutex_violations, 0u);
  EXPECT_GT(aggregate.att_ms.mean(), aggregate.alt_ms.mean());
}

TEST(Sweep, SweepAlignsWithConfigs) {
  ThreadPool pool(4);
  std::vector<ExperimentConfig> configs;
  for (std::size_t servers : {3u, 5u}) {
    ExperimentConfig config = small_config(ProtocolKind::Marp);
    config.servers = servers;
    configs.push_back(config);
  }
  const auto aggregates = run_sweep(configs, 2, pool);
  ASSERT_EQ(aggregates.size(), 2u);
  for (const Aggregate& aggregate : aggregates) {
    EXPECT_EQ(aggregate.alt_ms.count(), 2u);
    EXPECT_TRUE(aggregate.all_consistent);
  }
  // More servers → more work per lock → higher ALT.
  EXPECT_LT(aggregates[0].alt_ms.mean(), aggregates[1].alt_ms.mean());
}

TEST(ThreadPool, RunsAllTasksAndPropagatesExceptions) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  parallel_for(pool, 100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);

  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);

  auto value = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(value.get(), 42);
  pool.wait_idle();
}

// ---------- consistency checker unit tests ----------

TEST(Consistency, DetectsDivergence) {
  replica::VersionedStore a, b;
  a.apply("k", "same", {1, 0});
  b.apply("k", "different", {2, 0});
  const auto report = check_convergence({&a, &b}, {true, true});
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.problems.empty());
}

TEST(Consistency, IgnoresIneligibleReplicas) {
  replica::VersionedStore a, b;
  a.apply("k", "v", {1, 0});
  b.apply("k", "stale", {0, 5});
  const auto report = check_convergence({&a, &b}, {true, false});
  EXPECT_TRUE(report.ok);
}

TEST(Consistency, DetectsMissingKey) {
  replica::VersionedStore a, b;
  a.apply("k", "v", {1, 0});
  const auto report = check_convergence({&a, &b}, {true, true});
  EXPECT_FALSE(report.ok);
}

// Partial replication: the winner (replica 0) applied a commit, lost its
// COMMIT to the other owner (replica 1) and crashed. Replica 2 does not
// host the key's group. The crashed store holds the only copy, and the
// replica owing it must still be reported missing it.
TEST(Consistency, KeyHeldOnlyByAnIneligibleStoreIsStillOwed) {
  replica::VersionedStore winner, owner, spare;
  winner.apply("k", "v", {1, 0});
  const auto owes = [](std::size_t i, const std::string&) { return i != 2; };
  const auto report =
      check_convergence({&winner, &owner, &spare}, {false, true, true}, owes);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems.front().find("replica 1 is missing key 'k'"),
            std::string::npos);

  owner.apply("k", "v", {1, 0});
  EXPECT_TRUE(
      check_convergence({&winner, &owner, &spare}, {false, true, true}, owes).ok);
}

TEST(Consistency, AcceptsIdenticalStores) {
  replica::VersionedStore a, b;
  a.apply("k", "v", {1, 0});
  b.apply("k", "v", {1, 0});
  EXPECT_TRUE(check_convergence({&a, &b}, {true, true}).ok);
}

TEST(Consistency, CommitOrderViolationDetected) {
  std::vector<core::CommitRecord> log;
  log.push_back(
      {agent::AgentId{0, 1, 0}, sim::SimTime::millis(1), {{"k", 0, {10, 0}}}});
  log.push_back(
      {agent::AgentId{0, 2, 0}, sim::SimTime::millis(2), {{"k", 0, {5, 0}}}});
  EXPECT_FALSE(check_commit_order(log).ok);
  EXPECT_FALSE(check_per_key_order(log).ok);
  std::vector<core::CommitRecord> good;
  good.push_back(
      {agent::AgentId{0, 1, 0}, sim::SimTime::millis(1), {{"k", 0, {5, 0}}}});
  good.push_back(
      {agent::AgentId{0, 2, 0}, sim::SimTime::millis(2), {{"k", 0, {10, 0}}}});
  EXPECT_TRUE(check_commit_order(good).ok);
  EXPECT_TRUE(check_per_key_order(good).ok);

  // Version regressions across *different* groups are legal (independent
  // consensus instances)…
  std::vector<core::CommitRecord> cross_group;
  cross_group.push_back(
      {agent::AgentId{0, 1, 0}, sim::SimTime::millis(1), {{"a", 0, {10, 0}}}});
  cross_group.push_back(
      {agent::AgentId{0, 2, 0}, sim::SimTime::millis(2), {{"b", 1, {5, 0}}}});
  EXPECT_TRUE(check_commit_order(cross_group, 2).ok);
  EXPECT_TRUE(check_per_key_order(cross_group).ok);
  // …but a group id outside the configured shard count is flagged.
  EXPECT_FALSE(check_commit_order(cross_group, 1).ok);
}

TEST(Consistency, MonotonicHistoryChecker) {
  replica::VersionedStore store;
  store.apply("k", "a", {1, 0});
  store.apply("k", "b", {2, 0});
  EXPECT_TRUE(check_monotonic_history(store, 0).ok);
}

class RandomizedInvariants
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::uint64_t>> {};

TEST_P(RandomizedInvariants, HighContentionRunStaysConsistent) {
  const auto [protocol, seed] = GetParam();
  ExperimentConfig config = small_config(protocol, seed);
  config.workload.mean_interarrival_ms = 8.0;  // heavy contention
  config.workload.duration = sim::SimTime::seconds(1);
  config.drain = sim::SimTime::seconds(30);
  const RunResult result = run_experiment(config);
  EXPECT_TRUE(result.consistent)
      << (result.consistency_problems.empty() ? ""
                                              : result.consistency_problems[0]);
  EXPECT_EQ(result.mutex_violations, 0u);
  EXPECT_EQ(result.completed, result.generated);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RandomizedInvariants,
    ::testing::Combine(::testing::Values(ProtocolKind::Marp, ProtocolKind::MpMcv,
                                         ProtocolKind::WeightedVoting,
                                         ProtocolKind::Tsae),
                       ::testing::Values(11, 22, 33)),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, std::uint64_t>>&
           info) {
      std::string name = protocol_name(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace marp::runner
