// Golden pins: exact counts of fixed runs, recorded as constants.
//
// Each pinned run_experiment config is reduced to one fingerprint string —
// request, message, byte and migration counts, the paper's ALT/ATT/PRK at
// full double precision, quorum re-selections, epoch re-tours, the anomaly
// total, the Theorem-2 counter and the audit verdict. Each pinned model-check
// space is reduced to its schedule, step and sleep-blocked counts. Every
// session mode is covered: the paper's static majority (plain and weighted
// votes, one and eight lock groups), the static tree/grid/read-lease
// geometries, partial replication with a majority and a grid inner geometry
// under join and leave, and one crash + message-drop plan per mode so the
// re-selection, unavailable-server and re-tour paths run.
//
// Simulated time is set by migration byte sizes, so a change to what any
// session visits, sends or serializes moves these numbers. A change meant
// to alter protocol behaviour re-pins them in the same change, on purpose;
// a refactor must leave every one of them untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "check/explorer.hpp"
#include "fault/plan.hpp"
#include "runner/experiment.hpp"

namespace marp {
namespace {

using quorum::Geometry;

std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string fingerprint(const runner::RunResult& r) {
  std::ostringstream os;
  os << "gen=" << r.generated << " done=" << r.completed
     << " ok=" << r.successful_writes << " fail=" << r.failed_writes
     << " reads=" << r.reads << " msgs=" << r.net_stats.messages_sent
     << " bytes=" << r.net_stats.bytes_sent
     << " mig=" << r.agent_stats.migrations_started
     << " migB=" << r.agent_stats.migration_bytes << " alt=" << exact(r.alt_ms)
     << " att=" << exact(r.att_ms) << " prk=";
  for (const auto& [visits, pct] : r.prk) os << visits << ':' << exact(pct) << ',';
  os << " resel=" << r.marp_stats.quorum_reselections
     << " retour=" << r.marp_stats.epoch_retours
     << " anom=" << r.marp_stats.anomalies.total()
     << " mutex=" << r.mutex_violations << " consistent=" << r.consistent;
  return os.str();
}

std::string run(const runner::ExperimentConfig& config) {
  return fingerprint(runner::run_experiment(config));
}

// ---------- static majority (the paper's deployment) ----------

runner::ExperimentConfig paper_literal(std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.servers = 5;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = seed;
  config.workload.mean_interarrival_ms = 40.0;
  config.workload.write_fraction = 0.8;
  config.workload.duration = sim::SimTime::seconds(2);
  config.marp.batch_size = 2;
  config.marp.read_mode = core::ReadMode::QuorumAgent;
  return config;
}

TEST(GoldenEquivalence, ExplicitMajorityMatchesSeedOnPaperLiteral) {
  // N = 5, two contending writers per batch, quorum-agent reads. The default
  // config and an explicit --quorum majority are the same deployment; both
  // must replay the recorded counts down to every virtual timestamp.
  const std::pair<std::uint64_t, const char*> pins[] = {
      {1,
          "gen=230 done=230 ok=180 fail=0 reads=50"
          " msgs=1764 bytes=223190 mig=420 migB=427020"
          " alt=16.741122222222224 att=24.053483333333347"
          " prk=3:46.111111111111114,4:25,5:28.888888888888889,"
          " resel=0 retour=0 anom=30 mutex=0 consistent=1"},
      {7,
          "gen=256 done=256 ok=210 fail=0 reads=46"
          " msgs=2016 bytes=258627 mig=455 migB=481906"
          " alt=17.811585714285716 att=25.143861904761938"
          " prk=3:48.095238095238095,4:16.666666666666668,"
          "5:35.238095238095241,"
          " resel=0 retour=0 anom=45 mutex=0 consistent=1"},
      {42,
          "gen=255 done=255 ok=204 fail=0 reads=51"
          " msgs=2135 bytes=265927 mig=506 migB=541551"
          " alt=20.335720588235311 att=27.607916666666689"
          " prk=3:32.352941176470587,4:20.098039215686274,"
          "5:47.549019607843135,"
          " resel=0 retour=0 anom=63 mutex=0 consistent=1"},
  };
  for (const auto& [seed, expected] : pins) {
    runner::ExperimentConfig defaulted = paper_literal(seed);
    runner::ExperimentConfig explicit_majority = defaulted;
    explicit_majority.marp.quorum.geometry = Geometry::Majority;
    EXPECT_EQ(run(defaulted), expected) << "seed " << seed;
    EXPECT_EQ(run(explicit_majority), expected) << "seed " << seed;
  }
}

TEST(GoldenEquivalence, ExplicitMajorityMatchesSeedOnShardedRegression) {
  // 8 lock groups, two-key writes: multi-group claims and requeues.
  runner::ExperimentConfig config;
  config.servers = 5;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = 3;
  config.marp.num_lock_groups = 8;
  config.marp.batch_size = 2;
  config.workload.mean_interarrival_ms = 20.0;
  config.workload.num_keys = 16;
  config.workload.writes_per_update = 2;
  config.workload.duration = sim::SimTime::seconds(2);
  config.workload.max_requests_per_server = 20;
  config.drain = sim::SimTime::seconds(120);
  EXPECT_EQ(run(config),
          "gen=200 done=200 ok=200 fail=0 reads=0"
          " msgs=2120 bytes=286620 mig=390 migB=512988"
          " alt=110.97251000000006 att=118.28061999999993"
          " prk=3:4,4:2,5:94,"
          " resel=0 retour=0 anom=168 mutex=0 consistent=1");
  config.marp.quorum.geometry = Geometry::Majority;
  EXPECT_EQ(run(config),
          "gen=200 done=200 ok=200 fail=0 reads=0"
          " msgs=2120 bytes=286620 mig=390 migB=512988"
          " alt=110.97251000000006 att=118.28061999999993"
          " prk=3:4,4:2,5:94,"
          " resel=0 retour=0 anom=168 mutex=0 consistent=1");
}

TEST(GoldenPins, WeightedVotes) {
  runner::ExperimentConfig config = paper_literal(5);
  config.marp.votes = {3, 2, 1, 1, 1};
  EXPECT_EQ(run(config),
          "gen=233 done=233 ok=188 fail=0 reads=45"
          " msgs=1841 bytes=231860 mig=339 migB=363997"
          " alt=14.869069148936171 att=22.172356382978734"
          " prk=2:21.808510638297872,3:38.297872340425535,"
          "4:13.297872340425531,5:26.595744680851062,"
          " resel=0 retour=0 anom=32 mutex=0 consistent=1");
}

// ---------- static geometries over the whole cluster ----------

runner::ExperimentConfig geometry_config(Geometry geometry) {
  runner::ExperimentConfig config;
  config.servers = 9;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = 11;
  config.marp.quorum.geometry = geometry;
  config.workload.mean_interarrival_ms = 60.0;
  config.workload.write_fraction = 0.7;
  config.workload.duration = sim::SimTime::seconds(2);
  config.marp.read_mode = core::ReadMode::QuorumAgent;
  return config;
}

TEST(GoldenPins, StaticGeometries) {
  EXPECT_EQ(run(geometry_config(Geometry::Tree)),
          "gen=295 done=295 ok=207 fail=0 reads=88"
          " msgs=4851 bytes=501910 mig=688 migB=807893"
          " alt=41.845724637681144 att=49.806830917874386"
          " prk=3:67.149758454106276,4:32.850241545893716,"
          " resel=0 retour=0 anom=228 mutex=0 consistent=1");
  EXPECT_EQ(run(geometry_config(Geometry::Grid)),
          "gen=295 done=295 ok=207 fail=0 reads=88"
          " msgs=5200 bytes=543146 mig=1012 migB=1443232"
          " alt=106.31249758454108 att=114.61384541062797"
          " prk=4:0.48309178743961351,5:99.516908212560381,"
          " resel=0 retour=0 anom=291 mutex=0 consistent=1");
  EXPECT_EQ(run(geometry_config(Geometry::ReadLease)),
          "gen=295 done=295 ok=207 fail=0 reads=88"
          " msgs=5589 bytes=576969 mig=887 migB=1278539"
          " alt=63.436710144927531 att=71.768444444444427"
          " prk=5:100,"
          " resel=0 retour=0 anom=380 mutex=0 consistent=1");
}

// ---------- partial replication ----------

runner::ExperimentConfig partial_config(std::uint32_t rf, Geometry inner) {
  runner::ExperimentConfig config;
  config.servers = 6;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = 13;
  config.marp.quorum.geometry = inner;
  config.marp.membership.replication_factor = rf;
  config.marp.num_lock_groups = 4;
  config.marp.read_mode = core::ReadMode::QuorumAgent;
  config.workload.num_keys = 16;
  config.workload.mean_interarrival_ms = 50.0;
  config.workload.write_fraction = 0.7;
  config.workload.duration = sim::SimTime::seconds(2);
  config.drain = sim::SimTime::seconds(30);
  return config;
}

fault::Action timed(fault::ActionKind kind, net::NodeId node, double at_s) {
  fault::Action action;
  action.kind = kind;
  action.node = node;
  action.at = sim::SimTime::seconds(at_s);
  return action;
}

TEST(GoldenPins, PartialReplicationMajorityInner) {
  EXPECT_EQ(run(partial_config(3, Geometry::Majority)),
          "gen=226 done=226 ok=163 fail=0 reads=63"
          " msgs=1919 bytes=210375 mig=363 migB=365412"
          " alt=10.134466257668713 att=17.206288343558281"
          " prk=2:42.944785276073617,3:50.306748466257666,"
          "4:6.7484662576687118,"
          " resel=0 retour=0 anom=7 mutex=0 consistent=1");
}

TEST(GoldenPins, PartialReplicationGridInnerWithJoinAndLeave) {
  runner::ExperimentConfig config = partial_config(4, Geometry::Grid);
  config.marp.membership.initial_members = 5;
  config.marp.anti_entropy_interval = sim::SimTime::millis(250);
  config.fault_plan.actions.push_back(
      timed(fault::ActionKind::JoinServer, 5, 0.5));
  config.fault_plan.actions.push_back(
      timed(fault::ActionKind::LeaveServer, 1, 1.0));
  EXPECT_EQ(run(config),
          "gen=226 done=226 ok=163 fail=0 reads=63"
          " msgs=3840 bytes=1109749 mig=477 migB=519850"
          " alt=13.835085889570548 att=21.200950920245404"
          " prk=1:1.2269938650306749,3:58.895705521472394,"
          "4:36.196319018404907,5:3.6809815950920246,"
          " resel=0 retour=4 anom=14 mutex=0 consistent=1");
}

// ---------- one crash + drop plan per mode ----------

/// chaos_sim's hardening knobs, a crash/recover pair and a lossy window.
void add_crash_and_drop(runner::ExperimentConfig& config, net::NodeId victim) {
  config.marp.reliable_commit = true;
  config.marp.migration_retry_limit = 4;
  config.marp.migration_retry_backoff = sim::SimTime::millis(20);
  config.marp.anti_entropy_interval = sim::SimTime::millis(250);
  config.drain = sim::SimTime::seconds(20);
  config.fault_plan.actions.push_back(
      timed(fault::ActionKind::CrashServer, victim, 0.4));
  config.fault_plan.actions.push_back(
      timed(fault::ActionKind::RecoverServer, victim, 1.2));
  fault::Action drop = timed(fault::ActionKind::SetLinkFaults,
                             net::kInvalidNode, 0.1);
  drop.faults.drop = 0.05;
  config.fault_plan.actions.push_back(drop);
  config.fault_plan.actions.push_back(
      timed(fault::ActionKind::ClearLinkFaults, net::kInvalidNode, 1.6));
}

TEST(GoldenPins, CrashAndDropPerMode) {
  runner::ExperimentConfig majority = paper_literal(9);
  majority.workload.write_fraction = 1.0;
  add_crash_and_drop(majority, 2);
  EXPECT_EQ(run(majority),
          "gen=264 done=247 ok=247 fail=0 reads=0"
          " msgs=4092 bytes=449254 mig=1085 migB=2304887"
          " alt=813.80614170040519 att=822.89096761133612"
          " prk=3:0.80971659919028338,4:16.599190283400809,"
          "5:82.591093117408903,"
          " resel=0 retour=0 anom=456 mutex=0 consistent=1");

  const std::pair<Geometry, const char*> geometries[] = {
      {Geometry::Tree,
          "gen=295 done=275 ok=275 fail=0 reads=0"
          " msgs=9990 bytes=909851 mig=2157 migB=6917949"
          " alt=1312.5024072727281 att=1320.7830181818179"
          " prk=3:62.545454545454547,4:37.454545454545453,"
          " resel=29 retour=0 anom=880 mutex=0 consistent=1"},
      {Geometry::Grid,
          "gen=295 done=277 ok=277 fail=0 reads=0"
          " msgs=12257 bytes=1122636 mig=3041 migB=13137981"
          " alt=1588.7595848375443 att=1597.1693826714804"
          " prk=5:99.638989169675085,6:0.36101083032490977,"
          " resel=47 retour=0 anom=1528 mutex=0 consistent=1"},
      {Geometry::ReadLease,
          "gen=295 done=278 ok=229 fail=49 reads=0"
          " msgs=11998 bytes=1057966 mig=2457 migB=8728269"
          " alt=1298.1129912663753 att=1306.327222707424"
          " prk=5:100,"
          " resel=0 retour=0 anom=1633 mutex=0 consistent=1"},
  };
  for (const auto& [geometry, expected] : geometries) {
    runner::ExperimentConfig config = geometry_config(geometry);
    config.workload.write_fraction = 1.0;
    add_crash_and_drop(config, 1);
    EXPECT_EQ(run(config), expected) << quorum::geometry_name(geometry);
  }

  runner::ExperimentConfig partial = partial_config(3, Geometry::Majority);
  partial.workload.write_fraction = 1.0;
  partial.marp.membership.initial_members = 5;
  add_crash_and_drop(partial, 2);
  partial.fault_plan.actions.push_back(
      timed(fault::ActionKind::JoinServer, 5, 0.3));
  EXPECT_EQ(run(partial),
          "gen=226 done=200 ok=200 fail=0 reads=0"
          " msgs=4827 bytes=748742 mig=596 migB=739900"
          " alt=180.98906999999988 att=192.07259500000012"
          " prk=1:2.5,2:27,3:48,4:22.5,"
          " resel=0 retour=8 anom=484 mutex=0 consistent=1");
}

// ---------- model-check spaces ----------

std::string explored(const check::ScenarioConfig& scenario,
                     std::uint64_t max_schedules = 200000) {
  check::ExploreLimits limits;
  limits.max_schedules = max_schedules;
  const check::ExploreReport report = check::explore(scenario, limits);
  std::ostringstream os;
  os << report.schedules_explored << '/' << report.total_steps << '/'
     << report.sleep_blocked << " violations=" << report.violations.size();
  return os.str();
}

check::ScenarioConfig space(std::size_t servers, std::size_t agents,
                            Geometry geometry = Geometry::Majority) {
  check::ScenarioConfig scenario;
  scenario.servers = servers;
  scenario.agents = agents;
  scenario.quorum.geometry = geometry;
  return scenario;
}

TEST(GoldenPins, ExploreCleanSpaces) {
  EXPECT_EQ(explored(space(3, 2)), "4183/126300/2455 violations=0");
  EXPECT_EQ(explored(space(4, 2, Geometry::Grid)),
            "7843/276044/6947 violations=0");
  check::ScenarioConfig tree_crash = space(7, 2, Geometry::Tree);
  tree_crash.fault = check::FaultKind::Crash;
  EXPECT_EQ(explored(tree_crash), "4327/100188/3751 violations=0");

  check::ScenarioConfig churn = space(5, 2, Geometry::Grid);
  churn.membership_rf = 4;
  churn.initial_members = 4;
  churn.join_node = 4;
  churn.join_at = sim::SimTime::millis(3);
  churn.leave_node = 1;
  churn.leave_at = sim::SimTime::millis(12);
  EXPECT_EQ(explored(churn, 6000), "6000/457635/5570 violations=0");
}

TEST(GoldenPins, ExploreMutantKills) {
  check::ScenarioConfig majority = space(3, 2);
  majority.mutant = core::ProtocolMutant::MajorityOffByOne;
  EXPECT_EQ(explored(majority, 20000), "18/291/10 violations=8");

  check::ScenarioConfig tiebreak = space(3, 3);
  tiebreak.mutant = core::ProtocolMutant::TieBreakLargestId;
  EXPECT_EQ(explored(tiebreak, 20000), "11/151/3 violations=8");

  check::ScenarioConfig split = space(4, 2, Geometry::Grid);
  split.mutant = core::ProtocolMutant::SplitQuorum;
  EXPECT_EQ(explored(split), "4/20/3 violations=1");

  check::ScenarioConfig mixed = space(4, 3);
  mixed.membership_rf = 3;
  mixed.initial_members = 4;
  mixed.leave_node = 1;
  mixed.leave_at = sim::SimTime::millis(1);
  mixed.agent_stagger = sim::SimTime::millis(2);
  mixed.mutant = core::ProtocolMutant::MixedEpoch;
  EXPECT_EQ(explored(mixed, 20000), "15/458/7 violations=8");
}

}  // namespace
}  // namespace marp
