// Single-experiment driver: builds a simulator + network + protocol stack
// from a declarative config, runs the workload to completion, and returns
// the paper's metrics together with traffic accounting and the result of
// the consistency audit.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agent/platform.hpp"
#include "fault/injector.hpp"
#include "marp/config.hpp"
#include "marp/protocol.hpp"
#include "net/network.hpp"
#include "trace/counters.hpp"
#include "trace/critical_path.hpp"
#include "workload/generator.hpp"

namespace marp::runner {

enum class ProtocolKind : std::uint8_t {
  Marp,
  MpMcv,
  WeightedVoting,
  AvailableCopy,
  PrimaryCopy,
  Tsae  ///< weak consistency (timestamped anti-entropy, Golding '92)
};

const char* protocol_name(ProtocolKind kind);

/// Command-line names (marp_sim --protocol); protocol_name() is the
/// display name reports print.
inline constexpr std::array<std::pair<ProtocolKind, std::string_view>, 6>
    kProtocolNames{{
        {ProtocolKind::Marp, "marp"},
        {ProtocolKind::MpMcv, "mcv"},
        {ProtocolKind::WeightedVoting, "wv"},
        {ProtocolKind::AvailableCopy, "ac"},
        {ProtocolKind::PrimaryCopy, "pc"},
        {ProtocolKind::Tsae, "tsae"},
    }};

enum class NetworkKind : std::uint8_t { Lan, Wan };

inline constexpr std::array<std::pair<NetworkKind, std::string_view>, 2>
    kNetworkNames{{{NetworkKind::Lan, "lan"}, {NetworkKind::Wan, "wan"}}};

struct FailureEvent {
  sim::SimTime at;
  net::NodeId node = 0;
  bool fail = true;  ///< false = recover
};

struct ExperimentConfig {
  std::size_t servers = 5;
  ProtocolKind protocol = ProtocolKind::Marp;
  std::uint64_t seed = 1;

  NetworkKind network = NetworkKind::Lan;
  /// Non-empty: ignore `network` and replay a measured per-link delay
  /// distribution (marp_sim --net-calibration, produced by a real cluster
  /// run) through net::CalibratedLatency.
  net::CalibrationTable net_calibration;
  /// LAN: one-way base propagation + exponential jitter + bandwidth.
  sim::SimTime lan_base = sim::SimTime::millis(2);
  double lan_jitter_mean_us = 500.0;
  double lan_bytes_per_us = 12.5;  ///< ~100 Mbit/s
  /// WAN: clustered topology + heavy-tailed jitter + transient spikes.
  std::size_t wan_clusters = 3;
  sim::SimTime wan_intra = sim::SimTime::millis(2);
  sim::SimTime wan_inter = sim::SimTime::millis(40);
  net::WanLatency::Params wan_params;

  workload::WorkloadConfig workload;
  core::MarpConfig marp;
  /// WAN runs scale MARP's reactive timers (patrol, ack retry, claim retry,
  /// defer timeout) to the inter-site round-trip so waiting agents do not
  /// thrash; set false to use `marp`'s timers verbatim.
  bool scale_marp_timers_for_wan = true;

  std::vector<FailureEvent> failures;

  /// Chaos schedule (MARP only): crash/recover, partitions, link-fault
  /// windows, agent kills — timed or phase-triggered, executed by a
  /// FaultInjector. Replaces nothing: `failures` above still works and the
  /// two compose.
  fault::FaultPlan fault_plan;
  /// Message faults on every live link from t = 0 (drop/duplicate/reorder);
  /// the plan can override them mid-run via SetLinkFaults.
  net::LinkFaults link_faults;

  /// Extra virtual time after generation stops, letting in-flight requests
  /// finish before metrics are read.
  sim::SimTime drain = sim::SimTime::seconds(20);

  /// Keep every per-request Outcome in RunResult::outcomes (off by default;
  /// sweeps only need the aggregates).
  bool keep_outcomes = false;

  /// Span-ring capacity for the execution tracer; 0 (default) disables
  /// tracing entirely — no Tracer is constructed and every hook site reduces
  /// to one null-pointer test. MARP runs get the full span set; baselines
  /// still get network drop/retransmit marks.
  std::size_t trace_capacity = 0;
};

struct RunResult {
  std::string protocol;
  std::uint64_t seed = 0;

  // Workload accounting.
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t successful_writes = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t reads = 0;

  // Paper metrics (§4).
  double alt_ms = 0.0;                 ///< avg time to obtain the lock
  double att_ms = 0.0;                 ///< avg total update time
  double client_latency_ms = 0.0;      ///< submission → completion
  double att_p99_ms = 0.0;
  std::map<std::uint32_t, double> prk; ///< visits → % of requests

  // Cost accounting.
  net::TrafficStats net_stats;
  agent::PlatformStats agent_stats;    ///< zeros for message-passing runs
  std::uint64_t mutex_violations = 0;  ///< MARP runs: Theorem 2 monitor
  core::MarpStats marp_stats;          ///< MARP runs: incl. anomaly counters
  fault::InjectorStats fault_stats;    ///< what the fault plan actually did

  // Consistency audit.
  bool consistent = true;
  std::vector<std::string> consistency_problems;

  /// Per-request outcomes; populated only with config.keep_outcomes.
  std::vector<replica::Outcome> outcomes;

  /// The execution tracer, set when config.trace_capacity > 0. Read-only
  /// after the run: the simulator it timestamps against died with
  /// run_experiment, so records()/export are fine but hook calls are not.
  std::shared_ptr<trace::Tracer> trace;
  /// Per-phase latency percentiles over the traced spans (empty untraced).
  std::vector<trace::PhaseLatency> phase_latencies;
  /// Calibrated-run closure check: per measured link, the calibration
  /// table's median delay vs the median this run actually sampled (empty
  /// unless config.net_calibration was set).
  std::vector<net::CalibratedLatency::LinkReport> calibration_report;

  double messages_per_write() const {
    return successful_writes == 0
               ? 0.0
               : static_cast<double>(net_stats.messages_sent) /
                     static_cast<double>(successful_writes);
  }
  double migrations_per_write() const {
    return successful_writes == 0
               ? 0.0
               : static_cast<double>(agent_stats.migrations_started) /
                     static_cast<double>(successful_writes);
  }
  double wire_bytes_per_write() const {
    return successful_writes == 0
               ? 0.0
               : static_cast<double>(net_stats.bytes_sent +
                                     agent_stats.migration_bytes) /
                     static_cast<double>(successful_writes);
  }
};

/// Build, run, audit. Deterministic in `config` (including its seed).
RunResult run_experiment(const ExperimentConfig& config);

/// Fold every counter a run produced — network traffic, platform stats,
/// MARP protocol stats including the anomaly table, and the workload
/// accounting — into one named registry (the `--counters` dump and the
/// trace export's otherData block).
trace::CounterRegistry build_counter_registry(const RunResult& result);

}  // namespace marp::runner
