// marp_sim — command-line experiment driver.
//
// Runs one experiment from flags and prints a summary (or CSV / per-request
// trace), so sweeps can be scripted without writing C++:
//
//   marp_sim --protocol marp --servers 5 --interarrival 45 --seed 7
//   marp_sim --protocol mcv --network wan --writes 0.3 --duration 30
//   marp_sim --protocol marp --batch 4 --quorum-reads --csv
#include <cstdlib>
#include <cstring>
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

namespace {

using namespace marp;

[[noreturn]] void usage(const char* argv0, int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << argv0 << " [flags]\n"
     << "  --protocol marp|mcv|wv|ac|pc|tsae  replication protocol (default marp)\n"
     << "  --servers N                    replicas (default 5)\n"
     << "  --network lan|wan              topology/latency model (default lan)\n"
     << "  --interarrival MS              mean request gap per server (default 100)\n"
     << "  --writes F                     write fraction 0..1 (default 1.0)\n"
     << "  --keys N                       key-space size (default 1)\n"
     << "  --zipf S                       key skew (default 0 = uniform)\n"
     << "  --writes-per-update N          keys per write-set (default 1)\n"
     << "  --duration S                   workload duration, seconds (default 10)\n"
     << "  --max-requests N               cap per server (default unlimited)\n"
     << "  --seed N                       run seed (default 1)\n"
     << "  --batch N                      MARP batch size (default 1)\n"
     << "  --lock-groups N                MARP lock groups (default 1)\n"
     << "  --replication-factor R         copies per lock group (default 0 =\n"
        "                                 static full replication)\n"
     << "  --votes a,b,c,...              MARP weighted votes (default uniform)\n"
     << "  --quorum GEOM                  majority|tree|grid|read-lease quorum\n"
     << "                                 geometry (default majority)\n"
     << "  --tree-degree D                tree geometry branching (default 2)\n"
     << "  --grid-cols C                  grid geometry columns (default: ~sqrt N)\n"
     << "  --quorum-reads                 MARP agent-based quorum reads\n"
     << "  --no-gossip                    disable MARP information sharing\n"
     << "  --migration-retries N          retries before a replica is declared\n"
     << "                                 unavailable (default 2)\n"
     << "  --reliable-commit              acked COMMIT/REPORT with retransmits\n"
     << "  --drop P                       per-link message drop probability\n"
     << "  --fail NODE@SEC [repeatable]   fail-stop a server at a time\n"
     << "  --recover NODE@SEC             recover a server at a time\n"
     << "  --csv                          one CSV row instead of the summary\n"
     << "  --request-trace                per-request CSV trace\n"
     << "  --trace FILE                   write a Chrome/Perfetto trace of the run\n"
     << "                                 (summary adds the per-phase breakdown)\n"
     << "  --counters                     dump the unified counter registry\n"
     << "  --net-calibration FILE         replay a real cluster's measured per-link\n"
     << "                                 delays (from marp_cluster --calibration-out)\n"
     << "                                 and report sampled vs target medians\n"
     << "  --calibration-check            fail unless every well-sampled link's\n"
     << "                                 median closes within 10% (or 10us on\n"
     << "                                 sub-100us UDS-class links)\n";
  std::exit(code);
}

runner::ProtocolKind parse_protocol(const std::string& name, const char* argv0) {
  if (name == "marp") return runner::ProtocolKind::Marp;
  if (name == "mcv") return runner::ProtocolKind::MpMcv;
  if (name == "wv") return runner::ProtocolKind::WeightedVoting;
  if (name == "ac") return runner::ProtocolKind::AvailableCopy;
  if (name == "pc") return runner::ProtocolKind::PrimaryCopy;
  if (name == "tsae") return runner::ProtocolKind::Tsae;
  std::cerr << "unknown protocol: " << name << "\n";
  usage(argv0, 2);
}

quorum::Geometry parse_geometry(const std::string& name, const char* argv0) {
  if (name == "majority") return quorum::Geometry::Majority;
  if (name == "tree") return quorum::Geometry::Tree;
  if (name == "grid") return quorum::Geometry::Grid;
  if (name == "read-lease") return quorum::Geometry::ReadLease;
  std::cerr << "unknown quorum geometry: " << name << "\n";
  usage(argv0, 2);
}

std::vector<std::uint32_t> parse_votes(const std::string& spec) {
  std::vector<std::uint32_t> votes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(pos, comma - pos);
    votes.push_back(static_cast<std::uint32_t>(std::stoul(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return votes;
}

}  // namespace

int main(int argc, char** argv) {
  runner::ExperimentConfig config;
  config.workload.mean_interarrival_ms = 100.0;
  bool csv = false;
  bool trace_csv = false;
  bool dump_counters = false;
  std::string trace_path;
  std::string calibration_path;
  bool calibration_check = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], 2);
    return argv[++i];
  };
  auto parse_event = [&](const char* spec, bool fail) {
    const char* at = std::strchr(spec, '@');
    if (!at) usage(argv[0], 2);
    runner::FailureEvent event;
    event.node = static_cast<net::NodeId>(std::stoul(std::string(spec, at)));
    event.at = sim::SimTime::seconds(std::stod(at + 1));
    event.fail = fail;
    config.failures.push_back(event);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(argv[0], 0);
    else if (flag == "--protocol") config.protocol = parse_protocol(need_value(i), argv[0]);
    else if (flag == "--servers") config.servers = std::stoul(need_value(i));
    else if (flag == "--network") {
      const std::string name = need_value(i);
      if (name == "lan") config.network = runner::NetworkKind::Lan;
      else if (name == "wan") config.network = runner::NetworkKind::Wan;
      else usage(argv[0], 2);
    }
    else if (flag == "--interarrival") config.workload.mean_interarrival_ms = std::stod(need_value(i));
    else if (flag == "--writes") config.workload.write_fraction = std::stod(need_value(i));
    else if (flag == "--keys") config.workload.num_keys = std::stoul(need_value(i));
    else if (flag == "--zipf") config.workload.zipf_s = std::stod(need_value(i));
    else if (flag == "--writes-per-update") config.workload.writes_per_update = std::stoul(need_value(i));
    else if (flag == "--duration") config.workload.duration = sim::SimTime::seconds(std::stod(need_value(i)));
    else if (flag == "--max-requests") config.workload.max_requests_per_server = std::stoull(need_value(i));
    else if (flag == "--seed") config.seed = std::stoull(need_value(i));
    else if (flag == "--batch") config.marp.batch_size = std::stoul(need_value(i));
    else if (flag == "--lock-groups") config.marp.num_lock_groups = std::stoul(need_value(i));
    else if (flag == "--replication-factor")
      config.marp.membership.replication_factor =
          static_cast<std::uint32_t>(std::stoul(need_value(i)));
    else if (flag == "--votes") config.marp.votes = parse_votes(need_value(i));
    else if (flag == "--quorum")
      config.marp.quorum.geometry = parse_geometry(need_value(i), argv[0]);
    else if (flag == "--tree-degree")
      config.marp.quorum.tree_degree = static_cast<std::uint32_t>(std::stoul(need_value(i)));
    else if (flag == "--grid-cols")
      config.marp.quorum.grid_cols = std::stoul(need_value(i));
    else if (flag == "--quorum-reads") config.marp.read_mode = core::ReadMode::QuorumAgent;
    else if (flag == "--no-gossip") config.marp.gossip = false;
    else if (flag == "--migration-retries") config.marp.migration_retry_limit = static_cast<std::uint32_t>(std::stoul(need_value(i)));
    else if (flag == "--reliable-commit") config.marp.reliable_commit = true;
    else if (flag == "--drop") config.link_faults.drop = std::stod(need_value(i));
    else if (flag == "--fail") parse_event(need_value(i), true);
    else if (flag == "--recover") parse_event(need_value(i), false);
    else if (flag == "--csv") csv = true;
    else if (flag == "--request-trace") trace_csv = true;
    else if (flag == "--trace") trace_path = need_value(i);
    else if (flag == "--counters") dump_counters = true;
    else if (flag == "--net-calibration") calibration_path = need_value(i);
    else if (flag == "--calibration-check") calibration_check = true;
    else {
      std::cerr << "unknown flag: " << flag << "\n";
      usage(argv[0], 2);
    }
  }

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
