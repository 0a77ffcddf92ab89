// chaos_sim — seeded randomized fault sweeps over the hardened MARP stack.
//
// Three modes:
//
//   chaos_sim --seeds 1000                 # randomized chaos sweep
//   chaos_sim --matrix --seeds 3           # message-fault matrix (drop × dup × reorder)
//   chaos_sim --replay 1729                # re-run one scenario, verbosely
//
// Every scenario is a pure function of its seed: the workload, the fault
// plan (crashes, partitions — timed or sprung at a protocol phase — link
// faults, agent kills) and every in-run roll derive from it, so a failing
// seed printed by the sweep replays bit-for-bit with --replay.
//
// Per run the full invariant battery is checked: the per-group Theorem-2
// monitor, commit-order and per-key-order audits, convergence of every
// never-crashed replica after heal, and — when the plan cannot lose client
// answers outright — completeness (every generated request answered).
// Output is a JSON report; exit status 1 on any violation, with the minimal
// failing seed on stderr.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "quorum/spec.hpp"
#include "runner/experiment.hpp"
#include "trace/json.hpp"
#include "util/flags.hpp"

namespace {

using namespace marp;

/// The chaos scenario for `seed`: a short write-heavy workload with the
/// hardening knobs on, plus a random fault plan whose destructive actions
/// all end by 0.8 x duration. Pure in (seed, servers).
runner::ExperimentConfig make_chaos_config(std::uint64_t seed,
                                           std::size_t servers,
                                           quorum::QuorumSpec quorum = {},
                                           bool membership = false) {
  runner::ExperimentConfig config;
  config.servers = servers;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = seed;
  config.marp.quorum = quorum;

  sim::RngFactory factory(seed);
  sim::Rng rng = factory.stream("chaos-scenario");
  // Load sits well under MARP's single-lock throughput so every answer can
  // drain before the deadline: completeness violations must mean answers
  // were *lost*, not merely late behind a backlog.
  config.workload.duration =
      sim::SimTime::millis(1500 + static_cast<std::int64_t>(rng.bounded(2500)));
  config.workload.mean_interarrival_ms = rng.uniform(60.0, 150.0);
  config.workload.write_fraction = 1.0;
  config.workload.num_keys = 1 + rng.bounded(4);
  config.marp.num_lock_groups = rng.bernoulli(0.3) ? 2 : 1;

  // The hardening under test: acked COMMIT/REPORT with retransmits, spaced
  // migration retries, and background anti-entropy as the last-resort
  // convergence path (commit retransmit window: 50 x 100 ms, longer than
  // any partition a plan can produce).
  config.marp.reliable_commit = true;
  config.marp.migration_retry_limit = 4;
  config.marp.migration_retry_backoff = sim::SimTime::millis(20);
  config.marp.anti_entropy_interval = sim::SimTime::millis(250);

  // Quiet tail: faults end by 0.8 x duration; retransmits, recovery sync
  // and anti-entropy get the remainder plus the drain to close every gap
  // (and the contention backlog a partition leaves behind gets to drain).
  config.drain = sim::SimTime::seconds(20);
  if (membership) {
    // Join/leave churn sweep: rf=3 partial replication over all but one
    // server (the spare is the join candidate), and the fault plan becomes
    // seeded two-phase view changes racing the workload. Crash/partition
    // plans are deliberately not mixed in: a change stalled on a dead
    // acker would wedge the epoch fence, and that failure mode has its own
    // (future) timeout story — here the oracle is Theorems 1–3 plus scoped
    // convergence under churn alone.
    const std::size_t members = servers - 1;
    config.marp.membership.replication_factor = 3;
    config.marp.membership.initial_members = members;
    config.fault_plan =
        fault::make_churn_plan(seed, servers, members, config.workload.duration);
  } else {
    config.fault_plan =
        fault::make_random_plan(seed, servers, config.workload.duration);
  }
  return config;
}

struct RunVerdict {
  bool ok = true;
  std::vector<std::string> problems;
};

/// The invariant battery for one finished run.
RunVerdict judge(const runner::ExperimentConfig& config,
                 const runner::RunResult& result) {
  RunVerdict verdict;
  if (!result.consistent) {
    verdict.ok = false;
    verdict.problems = result.consistency_problems;
  }
  if (result.mutex_violations != 0) {
    verdict.ok = false;
    verdict.problems.push_back("Theorem 2 monitor tripped");
  }
  // Completeness: unless the plan can eat answers outright (crash clears
  // buffered requests, kills lose in-flight reports), every generated
  // request must be answered — success or failure, never silence.
  if (!config.fault_plan.lossy() && result.completed != result.generated) {
    verdict.ok = false;
    std::ostringstream out;
    out << "lost answers: " << result.generated << " generated, "
        << result.completed << " answered";
    verdict.problems.push_back(out.str());
  }
  return verdict;
}

void emit_anomalies(std::ostream& os, const core::ProtocolAnomalies& a) {
  os << "{\"stale_acks\":" << a.stale_acks
     << ",\"stale_updates\":" << a.stale_updates
     << ",\"duplicate_updates\":" << a.duplicate_updates
     << ",\"duplicate_commits\":" << a.duplicate_commits
     << ",\"duplicate_reports\":" << a.duplicate_reports
     << ",\"orphaned_reports\":" << a.orphaned_reports
     << ",\"commit_retransmits\":" << a.commit_retransmits
     << ",\"report_retransmits\":" << a.report_retransmits
     << ",\"release_retransmits\":" << a.release_retransmits
     << ",\"failed_read_quorums\":" << a.failed_read_quorums
     << ",\"epoch_stale_updates\":" << a.epoch_stale_updates
     << ",\"epoch_stale_acks\":" << a.epoch_stale_acks
     << ",\"joiner_refusals\":" << a.joiner_refusals
     << ",\"total\":" << a.total() << "}";
}

void accumulate(core::ProtocolAnomalies& into, const core::ProtocolAnomalies& a) {
  into.stale_acks += a.stale_acks;
  into.stale_updates += a.stale_updates;
  into.duplicate_updates += a.duplicate_updates;
  into.duplicate_commits += a.duplicate_commits;
  into.duplicate_reports += a.duplicate_reports;
  into.orphaned_reports += a.orphaned_reports;
  into.commit_retransmits += a.commit_retransmits;
  into.report_retransmits += a.report_retransmits;
  into.release_retransmits += a.release_retransmits;
  into.failed_read_quorums += a.failed_read_quorums;
  into.epoch_stale_updates += a.epoch_stale_updates;
  into.epoch_stale_acks += a.epoch_stale_acks;
  into.joiner_refusals += a.joiner_refusals;
}

int run_sweep(std::uint64_t start_seed, std::uint64_t seeds,
              std::size_t servers, quorum::QuorumSpec quorum,
              bool expect_reselection, bool membership, std::ostream& out) {
  std::uint64_t violations = 0;
  std::int64_t first_failing = -1;
  std::uint64_t lossy_plans = 0;
  std::uint64_t reselections = 0;
  std::uint64_t view_changes = 0, epoch_retours = 0;
  std::uint64_t generated = 0, completed = 0, ok_writes = 0, failed_writes = 0;
  fault::InjectorStats fault_totals;
  core::ProtocolAnomalies anomaly_totals;
  net::TrafficStats net_totals;
  std::ostringstream failures;
  bool first_failure = true;

  for (std::uint64_t seed = start_seed; seed < start_seed + seeds; ++seed) {
    const runner::ExperimentConfig config =
        make_chaos_config(seed, servers, quorum, membership);
    const runner::RunResult result = runner::run_experiment(config);
    const RunVerdict verdict = judge(config, result);

    if (config.fault_plan.lossy()) ++lossy_plans;
    reselections += result.marp_stats.quorum_reselections;
    view_changes += result.marp_stats.view_changes;
    epoch_retours += result.marp_stats.epoch_retours;
    generated += result.generated;
    completed += result.completed;
    ok_writes += result.successful_writes;
    failed_writes += result.failed_writes;
    fault_totals.crashes += result.fault_stats.crashes;
    fault_totals.recoveries += result.fault_stats.recoveries;
    fault_totals.partitions += result.fault_stats.partitions;
    fault_totals.heals += result.fault_stats.heals;
    fault_totals.link_fault_changes += result.fault_stats.link_fault_changes;
    fault_totals.agents_killed += result.fault_stats.agents_killed;
    fault_totals.phase_triggers_fired += result.fault_stats.phase_triggers_fired;
    fault_totals.joins_requested += result.fault_stats.joins_requested;
    fault_totals.leaves_requested += result.fault_stats.leaves_requested;
    accumulate(anomaly_totals, result.marp_stats.anomalies);
    net_totals.fault_drops += result.net_stats.fault_drops;
    net_totals.fault_duplicates += result.net_stats.fault_duplicates;
    net_totals.fault_reorders += result.net_stats.fault_reorders;

    if (!verdict.ok) {
      ++violations;
      if (first_failing < 0) first_failing = static_cast<std::int64_t>(seed);
      failures << (first_failure ? "" : ",") << "{\"seed\":" << seed
               << ",\"plan\":\"" << trace::json_escape(config.fault_plan.describe())
               << "\",\"problems\":[";
      for (std::size_t i = 0; i < verdict.problems.size(); ++i) {
        failures << (i ? "," : "") << "\"" << trace::json_escape(verdict.problems[i])
                 << "\"";
      }
      failures << "]}";
      first_failure = false;
      std::cerr << "CHAOS VIOLATION seed=" << seed
                << " (replay: chaos_sim --replay " << seed << " --servers "
                << servers << ")\n";
      for (const std::string& problem : verdict.problems) {
        std::cerr << "  ! " << problem << "\n";
      }
    }
  }

  out << "{\"mode\":\"sweep\",\"start_seed\":" << start_seed
      << ",\"seeds\":" << seeds << ",\"servers\":" << servers
      << ",\"quorum\":\"" << quorum::geometry_name(quorum.geometry) << "\""
      << ",\"membership\":" << (membership ? "true" : "false")
      << ",\"view_changes\":" << view_changes
      << ",\"epoch_retours\":" << epoch_retours
      << ",\"joins_requested\":" << fault_totals.joins_requested
      << ",\"leaves_requested\":" << fault_totals.leaves_requested
      << ",\"violations\":" << violations
      << ",\"first_failing_seed\":" << first_failing
      << ",\"lossy_plans\":" << lossy_plans
      << ",\"quorum_reselections\":" << reselections
      << ",\"totals\":{\"generated\":" << generated
      << ",\"answered\":" << completed
      << ",\"successful_writes\":" << ok_writes
      << ",\"failed_writes\":" << failed_writes
      << ",\"crashes\":" << fault_totals.crashes
      << ",\"recoveries\":" << fault_totals.recoveries
      << ",\"partitions\":" << fault_totals.partitions
      << ",\"heals\":" << fault_totals.heals
      << ",\"link_fault_changes\":" << fault_totals.link_fault_changes
      << ",\"agents_killed\":" << fault_totals.agents_killed
      << ",\"phase_triggers_fired\":" << fault_totals.phase_triggers_fired
      << ",\"fault_drops\":" << net_totals.fault_drops
      << ",\"fault_duplicates\":" << net_totals.fault_duplicates
      << ",\"fault_reorders\":" << net_totals.fault_reorders
      << ",\"anomalies\":";
  emit_anomalies(out, anomaly_totals);
  out << "},\"failures\":[" << failures.str() << "]}\n";
  if (expect_reselection && reselections == 0) {
    std::cerr << "expected at least one quorum re-selection across the sweep, "
                 "saw none\n";
    return 1;
  }
  return violations == 0 ? 0 : 1;
}

int run_matrix(std::uint64_t start_seed, std::uint64_t runs_per_cell,
               std::size_t servers, std::ostream& out) {
  const double drops[] = {0.0, 0.01, 0.05};
  const double dups[] = {0.0, 0.03};
  const double reorders[] = {0.0, 0.10};
  std::uint64_t violations = 0;
  bool first_cell = true;

  out << "{\"mode\":\"matrix\",\"runs_per_cell\":" << runs_per_cell
      << ",\"servers\":" << servers << ",\"cells\":[";
  for (double drop : drops) {
    for (double dup : dups) {
      for (double reorder : reorders) {
        std::uint64_t generated = 0, completed = 0, ok_writes = 0,
                      failed_writes = 0, cell_violations = 0;
        core::ProtocolAnomalies anomalies;
        net::TrafficStats faults;
        for (std::uint64_t i = 0; i < runs_per_cell; ++i) {
          runner::ExperimentConfig config;
          config.servers = servers;
          config.protocol = runner::ProtocolKind::Marp;
          config.seed = start_seed + i;
          config.workload.duration = sim::SimTime::seconds(5);
          config.workload.mean_interarrival_ms = 80.0;
          config.workload.write_fraction = 1.0;
          config.workload.num_keys = 3;
          config.marp.reliable_commit = true;
          config.marp.migration_retry_limit = 4;
          config.marp.migration_retry_backoff = sim::SimTime::millis(20);
          config.marp.anti_entropy_interval = sim::SimTime::millis(250);
          config.drain = sim::SimTime::seconds(12);
          config.link_faults.drop = drop;
          config.link_faults.duplicate = dup;
          config.link_faults.reorder = reorder;

          const runner::RunResult result = runner::run_experiment(config);
          const RunVerdict verdict = judge(config, result);
          generated += result.generated;
          completed += result.completed;
          ok_writes += result.successful_writes;
          failed_writes += result.failed_writes;
          accumulate(anomalies, result.marp_stats.anomalies);
          faults.fault_drops += result.net_stats.fault_drops;
          faults.fault_duplicates += result.net_stats.fault_duplicates;
          faults.fault_reorders += result.net_stats.fault_reorders;
          if (!verdict.ok) {
            ++cell_violations;
            std::cerr << "MATRIX VIOLATION drop=" << drop << " dup=" << dup
                      << " reorder=" << reorder << " seed=" << config.seed
                      << "\n";
            for (const std::string& problem : verdict.problems) {
              std::cerr << "  ! " << problem << "\n";
            }
          }
        }
        violations += cell_violations;
        out << (first_cell ? "" : ",") << "{\"drop\":" << drop
            << ",\"duplicate\":" << dup << ",\"reorder\":" << reorder
            << ",\"generated\":" << generated << ",\"answered\":" << completed
            << ",\"successful_writes\":" << ok_writes
            << ",\"failed_writes\":" << failed_writes
            << ",\"fault_drops\":" << faults.fault_drops
            << ",\"fault_duplicates\":" << faults.fault_duplicates
            << ",\"fault_reorders\":" << faults.fault_reorders
            << ",\"violations\":" << cell_violations << ",\"anomalies\":";
        emit_anomalies(out, anomalies);
        out << "}";
        first_cell = false;
      }
    }
  }
  out << "],\"violations\":" << violations << "}\n";
  return violations == 0 ? 0 : 1;
}

int run_replay(std::uint64_t seed, std::size_t servers,
               quorum::QuorumSpec quorum, bool membership, std::ostream& out) {
  const runner::ExperimentConfig config =
      make_chaos_config(seed, servers, quorum, membership);
  std::cerr << "seed " << seed << ": duration "
            << config.workload.duration.as_millis() << " ms, plan: "
            << (config.fault_plan.empty() ? "(none)"
                                          : config.fault_plan.describe())
            << "\n";
  const runner::RunResult result = runner::run_experiment(config);
  const RunVerdict verdict = judge(config, result);

  out << "{\"mode\":\"replay\",\"seed\":" << seed << ",\"servers\":" << servers
      << ",\"quorum\":\"" << quorum::geometry_name(quorum.geometry) << "\""
      << ",\"membership\":" << (membership ? "true" : "false")
      << ",\"view_changes\":" << result.marp_stats.view_changes
      << ",\"epoch_retours\":" << result.marp_stats.epoch_retours
      << ",\"quorum_reselections\":" << result.marp_stats.quorum_reselections
      << ",\"plan\":\"" << trace::json_escape(config.fault_plan.describe())
      << "\",\"lossy_plan\":" << (config.fault_plan.lossy() ? "true" : "false")
      << ",\"generated\":" << result.generated
      << ",\"answered\":" << result.completed
      << ",\"successful_writes\":" << result.successful_writes
      << ",\"failed_writes\":" << result.failed_writes
      << ",\"crashes\":" << result.fault_stats.crashes
      << ",\"partitions\":" << result.fault_stats.partitions
      << ",\"agents_killed\":" << result.fault_stats.agents_killed
      << ",\"phase_triggers_fired\":" << result.fault_stats.phase_triggers_fired
      << ",\"fault_drops\":" << result.net_stats.fault_drops
      << ",\"fault_duplicates\":" << result.net_stats.fault_duplicates
      << ",\"fault_reorders\":" << result.net_stats.fault_reorders
      << ",\"anomalies\":";
  emit_anomalies(out, result.marp_stats.anomalies);
  out << ",\"ok\":" << (verdict.ok ? "true" : "false") << ",\"problems\":[";
  for (std::size_t i = 0; i < verdict.problems.size(); ++i) {
    out << (i ? "," : "") << "\"" << trace::json_escape(verdict.problems[i]) << "\"";
  }
  out << "]}\n";
  return verdict.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 200;
  std::uint64_t start_seed = 1;
  std::size_t servers = 5;
  quorum::QuorumSpec quorum;
  bool expect_reselection = false;
  bool membership = false;
  bool matrix = false;
  std::optional<std::uint64_t> replay_seed;
  std::string out_path;

  util::Flags flags("chaos_sim");
  flags.add("--seeds", "N", seeds, "scenarios in the sweep / runs per matrix cell")
      .add("--start-seed", "N", start_seed, "first seed of the sweep")
      .add("--servers", "N", servers, "replicas per scenario")
      .choice("--quorum", quorum.geometry, quorum::kGeometryNames, "quorum geometry")
      .toggle("--expect-reselection", expect_reselection, true,
              "fail unless some quorum fallback re-selection fired")
      .toggle("--membership", membership, true,
              "rf=3 with one spare server; the faults become join/leave churn")
      .toggle("--matrix", matrix, true, "run the drop x duplicate x reorder fault matrix")
      .add("--replay", "SEED", replay_seed, "re-run one sweep scenario and print its plan")
      .add("--out", "FILE", out_path, "write the JSON report to FILE (default stdout)");
  flags.parse(argc, argv);

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "cannot open " << out_path << "\n";
      return 2;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  if (replay_seed) return run_replay(*replay_seed, servers, quorum, membership, out);
  if (matrix) return run_matrix(start_seed, seeds, servers, out);
  return run_sweep(start_seed, seeds, servers, quorum, expect_reselection,
                   membership, out);
}
