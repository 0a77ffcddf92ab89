// Tracer tests: span well-formedness over the paper-literal scenario,
// disabled-tracer behaviour, ring eviction, the Chrome-trace exporter
// round-tripped through the bundled JSON parser, and the run_experiment /
// counter-registry integration.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "marp/protocol.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/json.hpp"
#include "trace/tracer.hpp"

namespace marp {
namespace {

using namespace marp::sim::literals;
using trace::SpanKind;
using trace::SpanRecord;

struct TracedStack {
  explicit TracedStack(std::size_t n, std::size_t capacity = 1 << 16,
                       std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform),
        tracer(simulator, capacity) {
    network.set_observer(&tracer);
    platform.set_observer(&tracer);
    protocol.set_tracer(&tracer);
  }

  void write(std::uint64_t id, net::NodeId origin, const std::string& value) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = "item";
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  core::MarpProtocol protocol;
  trace::Tracer tracer;
};

std::map<agent::AgentId, std::map<SpanKind, std::vector<SpanRecord>>>
by_agent_kind(const std::vector<SpanRecord>& records) {
  std::map<agent::AgentId, std::map<SpanKind, std::vector<SpanRecord>>> out;
  for (const SpanRecord& record : records) {
    if (record.agent.valid()) out[record.agent][record.kind].push_back(record);
  }
  return out;
}

// Paper-literal scenario: N = 5 replicas, two concurrent update agents for
// the same key from different origins — the contention case Figures 1-2
// illustrate. Every structural property the exporter depends on must hold.
TEST(Tracer, GoldenPaperScenarioIsWellFormed) {
  TracedStack stack(5);
  stack.write(1, 0, "from-0");
  stack.write(2, 1, "from-1");
  stack.simulator.run();

  EXPECT_EQ(stack.protocol.stats().updates_committed, 2u);
  // Every begin got an end: a drained run leaves nothing open.
  EXPECT_EQ(stack.tracer.open_spans(), 0u);
  EXPECT_EQ(stack.tracer.dropped(), 0u);

  const std::vector<SpanRecord> records = stack.tracer.records();
  ASSERT_FALSE(records.empty());
  std::int64_t previous_end = 0;
  for (const SpanRecord& record : records) {
    EXPECT_GE(record.start_us, 0);
    EXPECT_LE(record.start_us, record.end_us);
    if (trace::instant_kind(record.kind)) {
      EXPECT_EQ(record.start_us, record.end_us);
    }
    // Records are pushed at end() time: the ring is end-time ordered.
    EXPECT_GE(record.end_us, previous_end);
    previous_end = record.end_us;
  }

  const auto per_agent = by_agent_kind(records);
  std::size_t sessions = 0;
  for (const auto& [agent, kinds] : per_agent) {
    if (!kinds.contains(SpanKind::Session)) continue;
    ++sessions;
    ASSERT_EQ(kinds.at(SpanKind::Session).size(), 1u);
    const SpanRecord& session = kinds.at(SpanKind::Session).front();

    // The span taxonomy of one update session (acceptance criterion).
    EXPECT_GE(kinds.count(SpanKind::Migration), 1u) << "no migration hops";
    EXPECT_GE(kinds.count(SpanKind::Visit), 1u) << "no server visits";
    ASSERT_TRUE(kinds.contains(SpanKind::UpdateRound));
    ASSERT_TRUE(kinds.contains(SpanKind::QuorumWin));
    EXPECT_EQ(kinds.at(SpanKind::QuorumWin).size(), 1u);
    ASSERT_TRUE(kinds.contains(SpanKind::CommitFanout));
    EXPECT_EQ(kinds.at(SpanKind::CommitFanout).front().aux, 0u) << "commit, not release";
    // The final update round won.
    EXPECT_EQ(kinds.at(SpanKind::UpdateRound).back().aux2, 0u);

    // Everything the agent did lies within its session. Locking-List wait
    // spans are server-track: the entry is removed when the COMMIT/RELEASE
    // message *arrives*, one network hop after the agent disposed, so those
    // legitimately end past the session — only their start is bounded.
    for (const auto& [kind, spans] : kinds) {
      if (kind == SpanKind::Session) continue;
      for (const SpanRecord& span : spans) {
        EXPECT_GE(span.start_us, session.start_us) << trace::span_name(kind);
        if (kind != SpanKind::LockListWait) {
          EXPECT_LE(span.end_us, session.end_us) << trace::span_name(kind);
        }
      }
    }
  }
  EXPECT_EQ(sessions, 2u);

  // Locking-List wait spans appeared on a majority of servers (the tour
  // appends the agent on at least (N+1)/2 replicas before it can win).
  std::set<net::NodeId> ll_servers;
  for (const SpanRecord& record : records) {
    if (record.kind == SpanKind::LockListWait) ll_servers.insert(record.node);
  }
  EXPECT_GE(ll_servers.size(), 3u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  TracedStack stack(5);
  stack.tracer.set_enabled(false);
  stack.write(1, 0, "v");
  stack.write(2, 3, "w");
  stack.simulator.run();
  EXPECT_EQ(stack.protocol.stats().updates_committed, 2u);
  EXPECT_EQ(stack.tracer.size(), 0u);
  EXPECT_EQ(stack.tracer.open_spans(), 0u);
  EXPECT_EQ(stack.tracer.dropped(), 0u);
  EXPECT_TRUE(stack.tracer.records().empty());
}

TEST(Tracer, RingEvictsOldestAtCapacity) {
  TracedStack stack(5, /*capacity=*/8);
  for (std::uint64_t i = 0; i < 6; ++i) {
    stack.write(i + 1, static_cast<net::NodeId>(i % 5), "v");
  }
  stack.simulator.run();
  EXPECT_EQ(stack.tracer.size(), 8u);
  EXPECT_GT(stack.tracer.dropped(), 0u);
  // Still end-time ordered after wrapping.
  const auto records = stack.tracer.records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].end_us, records[i - 1].end_us);
  }
  stack.tracer.clear();
  EXPECT_EQ(stack.tracer.size(), 0u);
  EXPECT_EQ(stack.tracer.dropped(), 0u);
}

TEST(Tracer, ExportRoundTripsThroughJsonParser) {
  TracedStack stack(5);
  stack.write(1, 0, "a");
  stack.write(2, 2, "b");
  stack.simulator.run();

  std::ostringstream out;
  trace::write_chrome_trace(out, stack.tracer);
  const trace::JsonValue root = trace::parse_json(out.str());

  ASSERT_TRUE(root.is_object());
  const trace::JsonValue* unit = root.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const trace::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  std::size_t complete = 0;
  std::set<std::string> names;
  for (const trace::JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const trace::JsonValue* name = event.find("name");
    const trace::JsonValue* ph = event.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    names.insert(name->str);
    if (ph->str == "X") {
      ++complete;
      const trace::JsonValue* dur = event.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
  }
  EXPECT_GT(complete, 0u);
  for (const char* required : {"session", "migration", "update-round",
                               "commit-fanout", "quorum-win", "ll-wait"}) {
    EXPECT_TRUE(names.contains(required)) << required;
  }
  // One complete event per recorded duration span.
  std::size_t durations = 0;
  for (const SpanRecord& record : stack.tracer.records()) {
    if (!trace::instant_kind(record.kind)) ++durations;
  }
  EXPECT_EQ(complete, durations);
}

TEST(Tracer, CriticalPathAccountsForEverySession) {
  TracedStack stack(5);
  stack.write(1, 0, "a");
  stack.write(2, 1, "b");
  stack.simulator.run();

  const trace::CriticalPathReport report = trace::critical_path(stack.tracer);
  ASSERT_EQ(report.sessions.size(), 2u);
  for (const auto& session : report.sessions) {
    EXPECT_TRUE(session.committed);
    EXPECT_GT(session.total_ms, 0.0);
    EXPECT_GE(session.hops, 1u);
    const double accounted = session.migration_ms + session.visit_ms +
                             session.lock_wait_ms + session.update_round_ms +
                             session.commit_ms + session.other_ms;
    EXPECT_NEAR(accounted, session.total_ms, 1e-6);
  }
  const double share_sum = report.migration_pct + report.visit_pct +
                           report.lock_wait_pct + report.update_round_pct +
                           report.commit_pct + report.other_pct;
  EXPECT_NEAR(share_sum, 100.0, 1e-6);

  const auto phases = trace::phase_latencies(stack.tracer);
  ASSERT_FALSE(phases.empty());
  for (const auto& phase : phases) {
    EXPECT_GT(phase.count, 0u);
    EXPECT_GE(phase.p50_ms, 0.0);
    EXPECT_LE(phase.p50_ms, phase.max_ms + 1e-9);
  }
}

TEST(Tracer, RunExperimentWiresTracingAndCounters) {
  runner::ExperimentConfig config;
  config.servers = 5;
  config.seed = 7;
  config.workload.duration = sim::SimTime::seconds(1);
  config.workload.mean_interarrival_ms = 120.0;
  config.trace_capacity = 1 << 16;

  const runner::RunResult result = runner::run_experiment(config);
  ASSERT_TRUE(result.consistent);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_GT(result.trace->size(), 0u);
  EXPECT_EQ(result.trace->open_spans(), 0u);
  ASSERT_FALSE(result.phase_latencies.empty());

  const trace::CounterRegistry registry = runner::build_counter_registry(result);
  EXPECT_EQ(registry.get("net.messages_sent"), result.net_stats.messages_sent);
  EXPECT_EQ(registry.get("agent.created"), result.agent_stats.agents_created);
  EXPECT_EQ(registry.get("marp.updates_committed"),
            result.marp_stats.updates_committed);
  EXPECT_EQ(registry.get("marp.mutex_violations"), 0u);
  EXPECT_EQ(registry.get("trace.spans_recorded"), result.trace->size());
  EXPECT_TRUE(registry.contains("marp.anomaly.stale_acks"));

  // The same config without tracing produces identical protocol results —
  // tracing must not perturb the simulation.
  runner::ExperimentConfig untraced = config;
  untraced.trace_capacity = 0;
  const runner::RunResult baseline = runner::run_experiment(untraced);
  EXPECT_EQ(baseline.trace, nullptr);
  EXPECT_TRUE(baseline.phase_latencies.empty());
  EXPECT_EQ(baseline.generated, result.generated);
  EXPECT_EQ(baseline.successful_writes, result.successful_writes);
  EXPECT_EQ(baseline.net_stats.messages_sent, result.net_stats.messages_sent);
  EXPECT_EQ(baseline.marp_stats.updates_committed,
            result.marp_stats.updates_committed);
}

TEST(TraceJson, ParserHandlesEscapesAndRejectsGarbage) {
  const trace::JsonValue value = trace::parse_json(
      R"({"s":"a\"b\\c\u0041\n","n":-12.5e2,"b":true,"z":null,"a":[1,2,3]})");
  ASSERT_TRUE(value.is_object());
  EXPECT_EQ(value.find("s")->str, "a\"b\\cA\n");
  EXPECT_DOUBLE_EQ(value.find("n")->number, -1250.0);
  EXPECT_TRUE(value.find("b")->boolean);
  EXPECT_EQ(value.find("a")->array.size(), 3u);
  EXPECT_THROW(trace::parse_json("{"), std::runtime_error);
  EXPECT_THROW(trace::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(trace::parse_json("{} trailing"), std::runtime_error);
  // JSON forbids a raw control byte inside a string.
  EXPECT_THROW(trace::parse_json("\"a\tb\""), std::runtime_error);
}

// Every JSON writer escapes through json_escape, so every ASCII byte must
// come back out of parse_json unchanged, and no control byte may stay raw.
TEST(TraceJson, EscapeRoundTripsEveryAsciiByte) {
  std::string all;
  for (int byte = 0; byte < 0x80; ++byte) {
    const std::string raw = "<" + std::string(1, static_cast<char>(byte)) + ">";
    const std::string escaped = trace::json_escape(raw);
    for (const char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "byte " << byte;
    }
    EXPECT_EQ(trace::parse_json("\"" + escaped + "\"").str, raw) << "byte " << byte;
    all += raw;
  }
  EXPECT_EQ(trace::parse_json("\"" + trace::json_escape(all) + "\"").str, all);
}

}  // namespace
}  // namespace marp
