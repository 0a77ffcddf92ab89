#include "runner/experiment.hpp"

#include <memory>
#include <optional>

#include "baseline/available_copy.hpp"
#include "baseline/mcv.hpp"
#include "baseline/primary_copy.hpp"
#include "baseline/tsae.hpp"
#include "baseline/weighted_voting.hpp"
#include "marp/protocol.hpp"
#include "runner/consistency.hpp"
#include "util/assert.hpp"
#include "workload/trace.hpp"

namespace marp::runner {

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::Marp: return "MARP";
    case ProtocolKind::MpMcv: return "MP-MCV";
    case ProtocolKind::WeightedVoting: return "WeightedVoting";
    case ProtocolKind::AvailableCopy: return "AvailableCopy";
    case ProtocolKind::PrimaryCopy: return "PrimaryCopy";
    case ProtocolKind::Tsae: return "TSAE";
  }
  return "?";
}

namespace {

std::unique_ptr<net::LatencyModel> make_latency(const ExperimentConfig& config,
                                                const net::Topology& topology) {
  if (!config.net_calibration.empty()) {
    return std::make_unique<net::CalibratedLatency>(config.net_calibration);
  }
  if (config.network == NetworkKind::Lan) {
    return std::make_unique<net::LanLatency>(topology.delays,
                                             config.lan_jitter_mean_us,
                                             config.lan_bytes_per_us);
  }
  return std::make_unique<net::WanLatency>(topology.delays, config.wan_params);
}

net::Topology make_topology(const ExperimentConfig& config) {
  if (config.network == NetworkKind::Lan) {
    return net::make_lan_mesh(config.servers, config.lan_base);
  }
  return net::make_wan_clusters(config.servers, config.wan_clusters,
                                config.wan_intra, config.wan_inter);
}

}  // namespace

RunResult run_experiment(const ExperimentConfig& config) {
  MARP_REQUIRE(config.servers >= 1);
  sim::Simulator simulator(config.seed);
  net::Topology topology = make_topology(config);
  std::unique_ptr<net::LatencyModel> latency = make_latency(config, topology);
  // Keep a typed view for the end-of-run closure report; the Network owns
  // the model either way.
  const auto* calibrated =
      config.net_calibration.empty()
          ? nullptr
          : static_cast<const net::CalibratedLatency*>(latency.get());
  net::Network network(simulator, topology, std::move(latency));

  // The MARP stack needs the agent platform; message-passing baselines
  // register directly with the network.
  std::unique_ptr<agent::AgentPlatform> platform;
  std::unique_ptr<replica::ReplicationProtocol> protocol;
  core::MarpProtocol* marp = nullptr;

  std::vector<const replica::VersionedStore*> stores;
  core::MarpConfig marp_config = config.marp;
  if (config.network == NetworkKind::Wan && config.scale_marp_timers_for_wan) {
    // LAN defaults assume millisecond round trips; on the WAN a waiting
    // agent that patrols every 250 ms migrates several times per update
    // session, which is pure churn. Scale the reactive timers to the
    // inter-site delay.
    const std::int64_t rtt_us = 2 * config.wan_inter.as_micros();
    auto at_least = [](sim::SimTime current, std::int64_t us) {
      return std::max(current, sim::SimTime::micros(us));
    };
    marp_config.patrol_interval = at_least(marp_config.patrol_interval, 10 * rtt_us);
    marp_config.ack_retry_interval = at_least(marp_config.ack_retry_interval, 4 * rtt_us);
    marp_config.defer_timeout = at_least(marp_config.defer_timeout, 4 * rtt_us);
    marp_config.claim_retry_delay = at_least(marp_config.claim_retry_delay, rtt_us / 4);
  }

  switch (config.protocol) {
    case ProtocolKind::Marp: {
      platform = std::make_unique<agent::AgentPlatform>(network);
      auto owned = std::make_unique<core::MarpProtocol>(network, *platform,
                                                        marp_config);
      marp = owned.get();
      for (net::NodeId node = 0; node < config.servers; ++node) {
        stores.push_back(&owned->server(node).store());
      }
      protocol = std::move(owned);
      break;
    }
    case ProtocolKind::MpMcv: {
      auto owned = std::make_unique<baseline::McvProtocol>(network);
      for (net::NodeId node = 0; node < config.servers; ++node) {
        stores.push_back(&owned->server(node).store());
      }
      protocol = std::move(owned);
      break;
    }
    case ProtocolKind::WeightedVoting: {
      auto owned = std::make_unique<baseline::WeightedVotingProtocol>(network);
      for (net::NodeId node = 0; node < config.servers; ++node) {
        stores.push_back(&owned->server(node).store());
      }
      protocol = std::move(owned);
      break;
    }
    case ProtocolKind::AvailableCopy: {
      auto owned = std::make_unique<baseline::AvailableCopyProtocol>(network);
      for (net::NodeId node = 0; node < config.servers; ++node) {
        stores.push_back(&owned->server(node).store());
      }
      protocol = std::move(owned);
      break;
    }
    case ProtocolKind::PrimaryCopy: {
      auto owned = std::make_unique<baseline::PrimaryCopyProtocol>(network);
      for (net::NodeId node = 0; node < config.servers; ++node) {
        stores.push_back(&owned->server(node).store());
      }
      protocol = std::move(owned);
      break;
    }
    case ProtocolKind::Tsae: {
      auto owned = std::make_unique<baseline::TsaeProtocol>(network);
      for (net::NodeId node = 0; node < config.servers; ++node) {
        stores.push_back(&owned->server(node).store());
      }
      protocol = std::move(owned);
      break;
    }
  }

  std::shared_ptr<trace::Tracer> tracer;
  if (config.trace_capacity > 0) {
    tracer = std::make_shared<trace::Tracer>(simulator, config.trace_capacity);
    network.set_observer(tracer.get());
    if (platform) platform->set_observer(tracer.get());
    if (marp) marp->set_tracer(tracer.get());
  }

  if (config.link_faults.any()) {
    network.set_default_link_faults(config.link_faults);
  }
  std::optional<fault::FaultInjector> injector;
  if (!config.fault_plan.empty()) {
    MARP_REQUIRE_MSG(marp != nullptr && platform != nullptr,
                     "fault plans require the MARP stack");
    injector.emplace(network, *platform, *marp, config.fault_plan);
    injector->arm();
  }

  workload::TraceCollector trace;
  protocol->set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });

  workload::RequestGenerator generator(
      simulator, config.servers, config.workload,
      [&protocol](const replica::Request& request) { protocol->submit(request); });
  generator.start();

  std::vector<bool> stayed_up(config.servers, true);
  for (const FailureEvent& event : config.failures) {
    MARP_REQUIRE(event.node < config.servers);
    stayed_up[event.node] = false;  // touched by the failure schedule
    simulator.schedule_at(event.at, [&protocol, event] {
      if (event.fail) {
        protocol->fail_server(event.node);
      } else {
        protocol->recover_server(event.node);
      }
    });
  }

  simulator.run(config.workload.duration + config.drain);

  RunResult result;
  result.protocol = protocol->name();
  result.seed = config.seed;
  result.generated = generator.generated();
  result.completed = trace.completed();
  result.successful_writes = trace.successful_writes();
  result.failed_writes = trace.failed_writes();
  result.reads = trace.reads();
  result.alt_ms = trace.average_lock_time_ms();
  result.att_ms = trace.average_total_time_ms();
  result.client_latency_ms = trace.average_client_latency_ms();
  result.att_p99_ms = trace.total_time_percentile_ms(99.0);
  result.prk = trace.prk();
  result.net_stats = network.stats();
  if (platform) result.agent_stats = platform->stats();
  if (marp) {
    result.mutex_violations = marp->stats().mutex_violations;
    result.marp_stats = marp->stats();
  }
  if (injector) {
    result.fault_stats = injector->stats();
    // Crashed replicas are exempt from the convergence audit (their agents
    // and buffered requests died with them); partitioned-but-live replicas
    // stay on the hook — the hardened protocol must bring them back.
    for (std::size_t i = 0; i < config.servers; ++i) {
      if (injector->crashed()[i]) stayed_up[i] = false;
    }
  }

  // Consistency audit. Under MARP only the replicas hosting a key's group
  // in the final view owe a copy — leavers and spares are exempt, as is any
  // server whose installed epoch lags the final view (it was mid-change
  // when the run ended). A static deployment's view hosts everything.
  ConsistencyReport audit = check_convergence(
      stores, stayed_up, [&](std::size_t node, const std::string& key) {
        return marp == nullptr || marp->owes_copy(static_cast<net::NodeId>(node), key);
      });
  for (std::size_t i = 0; i < stores.size(); ++i) {
    audit.merge(check_monotonic_history(*stores[i], i));
  }
  if (marp) {
    audit.merge(check_commit_order(marp->commit_log(),
                                   marp_config.num_lock_groups));
    audit.merge(check_per_key_order(marp->commit_log()));
    if (marp->stats().mutex_violations != 0) {
      audit.fail("Theorem 2 monitor observed concurrent updaters");
    }
  }
  result.consistent = audit.ok;
  result.consistency_problems = std::move(audit.problems);
  if (config.keep_outcomes) result.outcomes = trace.outcomes();
  if (tracer) {
    result.phase_latencies = trace::phase_latencies(*tracer);
    result.trace = std::move(tracer);
  }
  if (calibrated != nullptr) result.calibration_report = calibrated->report();
  return result;
}

trace::CounterRegistry build_counter_registry(const RunResult& result) {
  trace::CounterRegistry reg;
  reg.set("run.generated", result.generated);
  reg.set("run.completed", result.completed);
  reg.set("run.successful_writes", result.successful_writes);
  reg.set("run.failed_writes", result.failed_writes);
  reg.set("run.reads", result.reads);

  const net::TrafficStats& net = result.net_stats;
  reg.set("net.messages_sent", net.messages_sent);
  reg.set("net.messages_delivered", net.messages_delivered);
  reg.set("net.messages_dropped", net.messages_dropped);
  reg.set("net.bytes_sent", net.bytes_sent);
  reg.set("net.fault_drops", net.fault_drops);
  reg.set("net.fault_duplicates", net.fault_duplicates);
  reg.set("net.fault_reorders", net.fault_reorders);

  const agent::PlatformStats& ag = result.agent_stats;
  reg.set("agent.created", ag.agents_created);
  reg.set("agent.disposed", ag.agents_disposed);
  reg.set("agent.migrations_started", ag.migrations_started);
  reg.set("agent.migrations_completed", ag.migrations_completed);
  reg.set("agent.migrations_failed", ag.migrations_failed);
  reg.set("agent.migration_bytes", ag.migration_bytes);

  const core::MarpStats& marp = result.marp_stats;
  reg.set("marp.updates_committed", marp.updates_committed);
  reg.set("marp.updates_aborted", marp.updates_aborted);
  reg.set("marp.update_attempts", marp.update_attempts);
  reg.set("marp.reads_served", marp.reads_served);
  reg.set("marp.lock_requeues", marp.lock_requeues);
  reg.set("marp.mutex_violations", marp.mutex_violations);

  const core::ProtocolAnomalies& anomaly = marp.anomalies;
  reg.set("marp.anomaly.stale_acks", anomaly.stale_acks);
  reg.set("marp.anomaly.stale_updates", anomaly.stale_updates);
  reg.set("marp.anomaly.duplicate_updates", anomaly.duplicate_updates);
  reg.set("marp.anomaly.duplicate_commits", anomaly.duplicate_commits);
  reg.set("marp.anomaly.duplicate_reports", anomaly.duplicate_reports);
  reg.set("marp.anomaly.orphaned_reports", anomaly.orphaned_reports);
  reg.set("marp.anomaly.commit_retransmits", anomaly.commit_retransmits);
  reg.set("marp.anomaly.report_retransmits", anomaly.report_retransmits);
  reg.set("marp.anomaly.release_retransmits", anomaly.release_retransmits);

  const fault::InjectorStats& fault = result.fault_stats;
  reg.set("fault.crashes", fault.crashes);
  reg.set("fault.recoveries", fault.recoveries);
  reg.set("fault.agents_killed", fault.agents_killed);

  if (result.trace) {
    reg.set("trace.spans_recorded", result.trace->size());
    reg.set("trace.spans_dropped", result.trace->dropped());
    reg.set("trace.open_spans", result.trace->open_spans());
    reg.set("trace.unmatched_ends", result.trace->unmatched_ends());
  }
  return reg;
}

}  // namespace marp::runner
