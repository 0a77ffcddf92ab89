// marp_sim — command-line experiment driver.
//
// Runs one experiment from flags and prints a summary (or CSV / per-request
// trace), so sweeps can be scripted without writing C++:
//
//   marp_sim --protocol marp --servers 5 --interarrival 45 --seed 7
//   marp_sim --protocol mcv --network wan --writes 0.3 --duration 30
//   marp_sim --protocol marp --batch 4 --quorum-reads --csv
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "metrics/report.hpp"
#include "net/latency.hpp"
#include "quorum/spec.hpp"
#include "runner/experiment.hpp"
#include "trace/export.hpp"
#include "trace/merge.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace marp;
  runner::ExperimentConfig config;
  config.workload.mean_interarrival_ms = 100.0;
  double duration_s = config.workload.duration.as_seconds();
  bool csv = false;
  bool trace_csv = false;
  bool dump_counters = false;
  std::string trace_path;
  std::string calibration_path;
  bool calibration_check = false;
  const auto failure = [&config](bool fail) {
    return [&config, fail](const util::NodeEvent& event) {
      config.failures.push_back({event.at, event.node, fail});
    };
  };

  util::Flags flags("marp_sim");
  flags.choice("--protocol", config.protocol, runner::kProtocolNames, "replication protocol")
      .add("--servers", "N", config.servers, "replicas")
      .choice("--network", config.network, runner::kNetworkNames, "topology/latency model")
      .add("--interarrival", "MS", config.workload.mean_interarrival_ms, "mean request gap")
      .add("--writes", "F", config.workload.write_fraction, "write fraction 0..1")
      .add("--keys", "N", config.workload.num_keys, "key-space size")
      .add("--zipf", "S", config.workload.zipf_s, "key skew (0 = uniform)")
      .add("--writes-per-update", "N", config.workload.writes_per_update, "keys per write-set")
      .add("--duration", "S", duration_s, "workload duration, seconds")
      .add("--max-requests", "N", config.workload.max_requests_per_server,
           "cap per server (default unlimited)")
      .add("--seed", "N", config.seed, "run seed")
      .add("--batch", "N", config.marp.batch_size, "MARP batch size")
      .add("--lock-groups", "N", config.marp.num_lock_groups, "MARP lock groups")
      .add("--replication-factor", "R", config.marp.membership.replication_factor,
           "copies per lock group (0 = full replication)")
      .add("--votes", "A,B,...", config.marp.votes, "MARP weighted votes (default uniform)")
      .choice("--quorum", config.marp.quorum.geometry, quorum::kGeometryNames, "geometry")
      .add("--tree-degree", "D", config.marp.quorum.tree_degree, "tree geometry branching")
      .add("--grid-cols", "C", config.marp.quorum.grid_cols,
           "grid geometry columns (0 = about sqrt N)")
      .toggle("--quorum-reads", config.marp.read_mode, core::ReadMode::QuorumAgent,
              "MARP agent-based quorum reads")
      .toggle("--no-gossip", config.marp.gossip, false, "disable MARP information sharing")
      .add("--migration-retries", "N", config.marp.migration_retry_limit,
           "retries before a replica is declared unavailable")
      .toggle("--reliable-commit", config.marp.reliable_commit, true,
              "acked COMMIT/REPORT with retransmits")
      .add("--drop", "P", config.link_faults.drop, "per-link message drop probability")
      .repeated<util::NodeEvent>("--fail", "NODE@MS", failure(true),
                                 "fail-stop a server at a time")
      .repeated<util::NodeEvent>("--recover", "NODE@MS", failure(false),
                                 "recover a server at a time")
      .toggle("--csv", csv, true, "one CSV row instead of the summary")
      .toggle("--request-trace", trace_csv, true, "per-request CSV trace")
      .add("--trace", "FILE", trace_path,
           "write a Chrome/Perfetto trace (summary adds the phase breakdown)")
      .toggle("--counters", dump_counters, true, "dump the unified counter registry")
      .add("--net-calibration", "FILE", calibration_path,
           "replay marp_cluster --calibration-out link delays,\n"
           "reporting sampled vs target medians")
      .toggle("--calibration-check", calibration_check, true,
              "fail unless each well-sampled link's median closes\n"
              "within 10% (10us on sub-100us UDS-class links)");
  flags.parse(argc, argv);
  config.workload.duration = sim::SimTime::seconds(duration_s);

  config.keep_outcomes = trace_csv;
  if (!trace_path.empty()) config.trace_capacity = 1u << 20;
  if (!calibration_path.empty()) {
    std::ifstream in(calibration_path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open calibration file: " << calibration_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      config.net_calibration = trace::parse_calibration_json(buffer.str());
    } catch (const std::exception& error) {
      std::cerr << "bad calibration file: " << error.what() << "\n";
      return 2;
    }
  }
  const runner::RunResult result = runner::run_experiment(config);

  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open trace file: " << trace_path << "\n";
      return 2;
    }
    const trace::CounterRegistry registry = runner::build_counter_registry(result);
    trace::write_chrome_trace(out, *result.trace, &registry);
  }

  if (trace_csv) {
    std::cout << "request_id,kind,origin,success,submitted_ms,dispatched_ms,"
                 "lock_ms,completed_ms,visits\n";
    for (const auto& outcome : result.outcomes) {
      std::cout << outcome.request_id << ','
                << (outcome.kind == replica::RequestKind::Read ? "read" : "write")
                << ',' << outcome.origin << ',' << (outcome.success ? 1 : 0) << ','
                << metrics::Table::num(outcome.submitted.as_millis(), 3) << ','
                << metrics::Table::num(outcome.dispatched.as_millis(), 3) << ','
                << metrics::Table::num(outcome.lock_obtained.as_millis(), 3) << ','
                << metrics::Table::num(outcome.completed.as_millis(), 3) << ','
                << outcome.servers_visited << '\n';
    }
    return result.consistent ? 0 : 1;
  }
  if (csv) {
    std::cout << "protocol,seed,generated,completed,ok_writes,failed_writes,"
                 "reads,alt_ms,att_ms,client_ms,att_p99_ms,msgs_per_write,"
                 "migrations_per_write,wire_bytes_per_write,consistent\n"
              << result.protocol << ',' << result.seed << ',' << result.generated
              << ',' << result.completed << ',' << result.successful_writes << ','
              << result.failed_writes << ',' << result.reads << ','
              << metrics::Table::num(result.alt_ms, 3) << ','
              << metrics::Table::num(result.att_ms, 3) << ','
              << metrics::Table::num(result.client_latency_ms, 3) << ','
              << metrics::Table::num(result.att_p99_ms, 3) << ','
              << metrics::Table::num(result.messages_per_write(), 2) << ','
              << metrics::Table::num(result.migrations_per_write(), 2) << ','
              << metrics::Table::num(result.wire_bytes_per_write(), 1) << ','
              << (result.consistent ? "yes" : "NO") << '\n';
    return result.consistent ? 0 : 1;
  }

  std::cout << "protocol:            " << result.protocol << " (seed "
            << result.seed << ")\n";
  std::cout << "requests:            " << result.generated << " generated, "
            << result.completed << " completed (" << result.successful_writes
            << " writes ok, " << result.failed_writes << " failed, "
            << result.reads << " reads)\n";
  std::cout << "ALT / ATT:           " << metrics::Table::num(result.alt_ms, 2)
            << " / " << metrics::Table::num(result.att_ms, 2) << " ms (p99 "
            << metrics::Table::num(result.att_p99_ms, 2) << ")\n";
  std::cout << "client latency:      "
            << metrics::Table::num(result.client_latency_ms, 2) << " ms\n";
  if (!result.prk.empty()) {
    std::cout << "PRK:                 ";
    for (const auto& [visits, pct] : result.prk) {
      std::cout << "K=" << visits << ": " << metrics::Table::num(pct, 1) << "%  ";
    }
    std::cout << "\n";
  }
  std::cout << "messages:            " << result.net_stats.messages_sent << " ("
            << metrics::Table::num(result.messages_per_write(), 1)
            << " per write)\n";
  if (result.agent_stats.migrations_started != 0) {
    std::cout << "agent migrations:    " << result.agent_stats.migrations_started
              << " (" << metrics::Table::num(result.migrations_per_write(), 2)
              << " per write, "
              << result.agent_stats.migration_bytes / 1024 << " KiB)\n";
  }
  if (result.marp_stats.anomalies.total() != 0) {
    const auto& a = result.marp_stats.anomalies;
    std::cout << "protocol anomalies:  " << a.total() << " absorbed ("
              << a.stale_acks << " stale acks, " << a.stale_updates
              << " stale updates, " << a.duplicate_updates << " dup updates, "
              << a.duplicate_commits << " dup commits, " << a.duplicate_reports
              << " dup reports, " << a.orphaned_reports << " orphaned reports, "
              << a.commit_retransmits << " commit rexmit, "
              << a.report_retransmits << " report rexmit, "
              << a.release_retransmits << " release rexmit)\n";
  }
  if (result.trace) {
    std::cout << "trace:               " << result.trace->size() << " spans ("
              << result.trace->dropped() << " dropped) -> " << trace_path << "\n";
    if (!result.phase_latencies.empty()) {
      std::cout << "phase latencies (ms, mean/p50/p95/p99/max):\n";
      for (const auto& phase : result.phase_latencies) {
        std::cout << "  " << phase.phase << " (n=" << phase.count << "): "
                  << metrics::Table::num(phase.mean_ms, 2) << " / "
                  << metrics::Table::num(phase.p50_ms, 2) << " / "
                  << metrics::Table::num(phase.p95_ms, 2) << " / "
                  << metrics::Table::num(phase.p99_ms, 2) << " / "
                  << metrics::Table::num(phase.max_ms, 2) << "\n";
      }
    }
    trace::critical_path(*result.trace).print(std::cout);
  }
  bool calibration_closed = true;
  if (!result.calibration_report.empty()) {
    // Closure check: the sim replaying the wire it was calibrated from
    // (net::calibration_closed). The gate only judges links the workload
    // actually exercised: the empirical median of a handful of draws is
    // noise, not a model error.
    constexpr std::uint64_t kMinSamplesForGate = 50;
    std::cout << "calibration (per link, target p50 -> sampled p50 us):\n";
    for (const auto& link : result.calibration_report) {
      const double err =
          link.target_p50_us == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(link.sampled_p50_us - link.target_p50_us) /
                    static_cast<double>(link.target_p50_us);
      const bool gated = calibration_check && link.samples >= kMinSamplesForGate;
      const bool closed = net::calibration_closed(link);
      if (gated && !closed) calibration_closed = false;
      std::cout << "  " << link.src << "->" << link.dst << ": "
                << link.target_p50_us << " -> " << link.sampled_p50_us << " ("
                << metrics::Table::num(err, 1) << "%, n=" << link.samples << ")"
                << (gated && !closed ? "  <-- OUT OF BAND" : "") << "\n";
    }
    if (calibration_check && !calibration_closed) {
      std::cout << "calibration check:   FAILED (see links above)\n";
    } else if (calibration_check) {
      std::cout << "calibration check:   ok\n";
    }
  }
  if (dump_counters) {
    std::cout << "counters:\n";
    runner::build_counter_registry(result).print(std::cout);
  }
  std::cout << "consistent:          " << (result.consistent ? "yes" : "NO");
  for (const auto& problem : result.consistency_problems) {
    std::cout << "\n  ! " << problem;
  }
  std::cout << "\n";
  return result.consistent && calibration_closed ? 0 : 1;
}
