// Multi-node trace merge tests: the distributed-tracing pipeline from raw
// per-node TraceDumps to one aligned Perfetto timeline plus the calibration
// feedback loop into the simulator's link model.
//
// The unit suites drive align_clocks / write_merged_trace on synthetic
// NodeTraces where the ground-truth offsets and delays are chosen by the
// test; the cluster suites run real RealNode stacks over an InProcMesh with
// deliberately skewed trace clocks and assert the merge undoes the skew —
// and that turning tracing on changes nothing about the protocol's result.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/latency.hpp"
#include "rpc/control.hpp"
#include "sim/random.hpp"
#include "trace/json.hpp"
#include "trace/merge.hpp"
#include "trace/tracer.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/real_node.hpp"

namespace marp::trace {
namespace {

constexpr std::uint8_t kMigration = static_cast<std::uint8_t>(SpanKind::Migration);
constexpr std::uint8_t kVisit = static_cast<std::uint8_t>(SpanKind::Visit);
constexpr std::uint8_t kSession = static_cast<std::uint8_t>(SpanKind::Session);

rpc::NodeTrace::Span agent_span(std::uint8_t kind, std::int64_t start,
                                std::int64_t end, std::uint32_t node,
                                std::uint32_t agent_origin = 0,
                                std::uint64_t aux = 0) {
  rpc::NodeTrace::Span s;
  s.start_us = start;
  s.end_us = end;
  s.kind = kind;
  s.node = node;
  s.agent_origin = agent_origin;
  s.agent_created_us = 1000;
  s.agent_seq = 0;
  s.aux = aux;
  return s;
}

// ---- pairwise clock alignment ----

TEST(AlignClocks, RecoversAConstantOffsetFromSymmetricSamples) {
  // Ground truth: node 1's trace clock runs 5000 us ahead of node 0's, and
  // every frame takes 40 us one-way. A frame 1→0 sent at true time t is
  // stamped send = t + 5000 (sender clock) and lands at recv = t + 40
  // (receiver clock); the reverse direction mirrors it.
  rpc::NodeTrace n0, n1;
  n0.node = 0;
  n1.node = 1;
  for (std::int64_t t = 10000; t < 10500; t += 100) {
    n0.link_samples.push_back({1, t + 5000, t + 40});        // 1 → 0
    n1.link_samples.push_back({0, t + 50, t + 50 + 40 + 5000});  // 0 → 1
  }
  const MergeResult result = align_clocks({n0, n1});
  ASSERT_EQ(result.offsets_us.size(), 2u);
  EXPECT_EQ(result.offsets_us[0], 0);
  EXPECT_EQ(result.offsets_us[1], 5000);
  EXPECT_TRUE(result.aligned[0]);
  EXPECT_TRUE(result.aligned[1]);

  // The aligned one-way delay distils to the true 40 us in both directions.
  EXPECT_EQ(result.calibration.median_us(0, 1), 40);
  EXPECT_EQ(result.calibration.median_us(1, 0), 40);
}

TEST(AlignClocks, OffsetsPropagateTransitivelyOverTheSampleGraph) {
  // Node 2 never exchanged frames with the reference, only with node 1:
  // its offset must still resolve through the 0↔1↔2 chain.
  rpc::NodeTrace n0, n1, n2;
  n0.node = 0;
  n1.node = 1;
  n2.node = 2;
  for (std::int64_t t = 0; t < 300; t += 100) {
    n0.link_samples.push_back({1, t + 3000, t + 20});  // 1 → 0, offset 3000
    n1.link_samples.push_back({0, t, t + 20 + 3000});
    n1.link_samples.push_back({2, t + 7000 - 3000, t + 30});  // 2 → 1
    n2.link_samples.push_back({1, t + 3000 - 7000, t + 30});  // 1 → 2
  }
  const MergeResult result = align_clocks({n0, n1, n2});
  ASSERT_EQ(result.offsets_us.size(), 3u);
  EXPECT_EQ(result.offsets_us[1], 3000);
  EXPECT_EQ(result.offsets_us[2], 7000);
  EXPECT_TRUE(result.aligned[2]);
}

TEST(AlignClocks, NodeWithoutSamplesIsReportedUnaligned) {
  rpc::NodeTrace n0, n1, n2;
  n0.node = 0;
  n1.node = 1;
  n2.node = 2;  // silent: no traced frames either way
  n0.link_samples.push_back({1, 100, 160});
  n1.link_samples.push_back({0, 100, 160});
  const MergeResult result = align_clocks({n0, n1, n2});
  EXPECT_TRUE(result.aligned[0]);
  EXPECT_TRUE(result.aligned[1]);
  EXPECT_FALSE(result.aligned[2]);
  EXPECT_EQ(result.offsets_us[2], 0);
}

// ---- migration stitching + emission ----

TEST(WriteMergedTrace, StitchesOpenMigrationsAndDrawsFlows) {
  // Node 0 launched a migration to node 1 that never completed locally (the
  // real cross-process shape); node 1 holds the agent's first span after
  // arrival. The merge must close the migration against that span's start
  // and pair the two tracks with one s/f flow.
  rpc::NodeTrace n0, n1;
  n0.node = 0;
  n1.node = 1;
  n0.spans.push_back(agent_span(kSession, 50, 400, 0, /*agent_origin=*/0));
  n0.spans.push_back(
      agent_span(kMigration, 100, rpc::NodeTrace::kOpenEnd, /*node=dest*/ 1,
                 /*agent_origin=*/0, /*aux=from*/ 0));
  n1.spans.push_back(agent_span(kVisit, 180, 320, 1, /*agent_origin=*/0));

  std::ostringstream out;
  const MergeResult result = write_merged_trace(out, {n0, n1});
  EXPECT_EQ(result.spans_emitted, 3u);
  EXPECT_EQ(result.flows_emitted, 2u);
  EXPECT_EQ(result.open_unmatched, 0u);

  const JsonValue root = parse_json(out.str());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_stitched = false, saw_s = false, saw_f = false;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ph = ev.find("ph");
    const JsonValue* ts = ev.find("ts");
    if (ts) EXPECT_GE(ts->number, 0.0);  // rebase leaves nothing negative
    if (!ph || !ph->is_string()) continue;
    if (ph->str == "X") {
      const JsonValue* args = ev.find("args");
      const JsonValue* stitched = args ? args->find("stitched") : nullptr;
      if (stitched != nullptr) {
        saw_stitched = true;
        // Departure 100, first span on the destination at 180 → 80 us.
        EXPECT_EQ(ev.find("dur")->number, 80.0);
      }
    } else if (ph->str == "s") {
      saw_s = true;
    } else if (ph->str == "f") {
      saw_f = true;
      EXPECT_NE(ev.find("bp"), nullptr);  // binding point, or Perfetto
                                          // refuses to attach the arrow
    }
  }
  EXPECT_TRUE(saw_stitched);
  EXPECT_TRUE(saw_s);
  EXPECT_TRUE(saw_f);
}

TEST(WriteMergedTrace, UnstitchableOpenSpansAreCountedNotEmitted) {
  // The agent never surfaced on the destination (e.g. the homecoming hop
  // right before disposal): the open migration is honest bookkeeping, not a
  // drawable span.
  rpc::NodeTrace n0, n1;
  n0.node = 0;
  n1.node = 1;
  n0.spans.push_back(
      agent_span(kMigration, 100, rpc::NodeTrace::kOpenEnd, 1, 0, 0));

  std::ostringstream out;
  const MergeResult result = write_merged_trace(out, {n0, n1});
  EXPECT_EQ(result.spans_emitted, 0u);
  EXPECT_EQ(result.flows_emitted, 0u);
  EXPECT_EQ(result.open_unmatched, 1u);
}

// ---- calibration file round trip + the simulator's replay model ----

TEST(CalibrationJson, RoundTripsThroughWriteAndParse) {
  net::CalibrationTable table;
  table.links.push_back({0, 1, 120, {5, 8, 11, 14, 30}});
  table.links.push_back({1, 0, 98, {6, 9, 12, 15, 44}});

  std::ostringstream out;
  write_calibration_json(out, table);
  const net::CalibrationTable parsed = parse_calibration_json(out.str());
  ASSERT_EQ(parsed.links.size(), 2u);
  EXPECT_EQ(parsed.links[0].src, 0u);
  EXPECT_EQ(parsed.links[0].dst, 1u);
  EXPECT_EQ(parsed.links[0].count, 120u);
  EXPECT_EQ(parsed.links[0].quantiles_us, table.links[0].quantiles_us);
  EXPECT_EQ(parsed.links[1].quantiles_us, table.links[1].quantiles_us);

  // Round trip again: write(parse(write(t))) is byte-stable.
  std::ostringstream out2;
  write_calibration_json(out2, parsed);
  EXPECT_EQ(out2.str(), out.str());
}

TEST(CalibrationJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_calibration_json(""), std::runtime_error);
  EXPECT_THROW(parse_calibration_json("{"), std::runtime_error);
  EXPECT_THROW(parse_calibration_json("{}"), std::runtime_error);
  EXPECT_THROW(parse_calibration_json(R"({"version":1,"links":3})"),
               std::runtime_error);
  EXPECT_THROW(
      parse_calibration_json(R"({"version":1,"links":[{"src":0}]})"),
      std::runtime_error);
}

TEST(CalibratedLatency, ManyDrawsReproduceTheTableMedian) {
  // The closure property the cluster gate relies on: draws from the
  // inverse-CDF replay land their median on the measured table's median.
  net::CalibrationTable table;
  std::vector<std::int64_t> quantiles;
  for (int i = 0; i < 33; ++i) quantiles.push_back(200 + 25 * i);
  table.links.push_back({0, 1, 500, quantiles});
  const std::int64_t target = table.median_us(0, 1);
  ASSERT_GT(target, 0);

  net::CalibratedLatency model(table);
  sim::Rng rng(99);
  for (int i = 0; i < 4000; ++i) model.sample(0, 1, 64, rng);

  const auto report = model.report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].target_p50_us, target);
  EXPECT_EQ(report[0].samples, 4000u);
  const double err = static_cast<double>(report[0].sampled_p50_us - target) /
                     static_cast<double>(target);
  EXPECT_LT(std::abs(err), 0.10) << "sampled " << report[0].sampled_p50_us
                                 << " vs target " << target;
}

TEST(CalibratedLatency, TiedEvenTableClosesOnItsExactBelowShare) {
  // A 16-sample table, so the table is the raw samples: a step from 170 to
  // a three-way tie at the target 240 = q[8]. Eight of the 15 segments a
  // draw picks from start below the target, so 8/15 of the draws fall
  // below it, not half, and the replayed median (about 205) misses the
  // target by 15%. A Binomial(n, 1/2) fallback rejects this faithful
  // replay; the exact share accepts it.
  net::CalibrationTable table;
  table.links.push_back({0, 1, 16,
                         {120, 130, 135, 140, 150, 160, 165, 170, 240, 240, 240,
                          250, 260, 280, 300, 420}});
  net::CalibratedLatency model(table);
  sim::Rng rng(2024);
  for (int i = 0; i < 4000; ++i) model.sample(0, 1, 64, rng);

  const auto report = model.report();
  ASSERT_EQ(report.size(), 1u);
  const net::CalibratedLatency::LinkReport& link = report[0];
  EXPECT_EQ(link.target_p50_us, 240);
  EXPECT_DOUBLE_EQ(link.below_share, 8.0 / 15.0);
  EXPECT_GT(std::abs(link.sampled_p50_us - 240), 24);  // outside both point bands
  const double n = static_cast<double>(link.samples);
  const bool old_rule =
      std::abs(static_cast<double>(link.below_target) - n / 2.0) <= 1.5 * std::sqrt(n);
  EXPECT_FALSE(old_rule) << link.below_target << " of " << link.samples;
  EXPECT_TRUE(net::calibration_closed(link)) << link.below_target << " of "
                                             << link.samples;
}

TEST(CalibratedLatency, ShiftedModelStillFailsClosure) {
  // Replaying a model 20% slower than the measured table must fail: the
  // median leaves the 10% band and far fewer draws than the exact share
  // predicts fall below the measured target.
  std::vector<std::int64_t> measured;
  std::vector<std::int64_t> shifted;
  for (int i = 0; i < 16; ++i) {
    measured.push_back(100 + 10 * i);
    shifted.push_back((100 + 10 * i) * 6 / 5);
  }
  net::CalibrationTable table;
  table.links.push_back({0, 1, 16, measured});
  const net::CalibratedLatency::LinkReport expected =
      net::CalibratedLatency(table).report().at(0);

  net::CalibrationTable slower;
  slower.links.push_back({0, 1, 16, shifted});
  net::CalibratedLatency model(slower);
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) model.sample(0, 1, 64, rng);
  net::CalibratedLatency::LinkReport link = model.report().at(0);
  // Judge the shifted draws against the measured table.
  link.target_p50_us = expected.target_p50_us;
  link.below_share = expected.below_share;
  link.below_target = 0;
  sim::Rng replay(7);
  for (int i = 0; i < 1000; ++i) {
    if (model.sample(0, 1, 64, replay).as_micros() < link.target_p50_us) {
      ++link.below_target;
    }
  }
  EXPECT_GT(link.sampled_p50_us, link.target_p50_us * 11 / 10);
  EXPECT_FALSE(net::calibration_closed(link))
      << link.below_target << " of " << link.samples << " below "
      << link.target_p50_us << ", expected share " << link.below_share;
}

TEST(CalibratedLatency, UnmeasuredLinksFallBackToTheMeshMedian) {
  net::CalibrationTable table;
  table.links.push_back({0, 1, 50, {100, 100, 100}});
  net::CalibratedLatency model(table);
  sim::Rng rng(7);
  // 2→3 was never measured: the model must still produce a sane positive
  // delay (median of the measured links' medians), not zero or a crash.
  for (int i = 0; i < 32; ++i) {
    EXPECT_GT(model.sample(2, 3, 64, rng).as_micros(), 0);
  }
}

// ---- real protocol stacks over a mesh with skewed trace clocks ----

/// Non-owning adapter: RealNode wants to own its transport, InProcMesh owns
/// the real ones. Forwards every virtual.
class MeshProxy final : public transport::NodeTransport {
 public:
  explicit MeshProxy(transport::InProcTransport& inner) : inner_(inner) {}
  void open() override { inner_.open(); }
  void poll(Deadline deadline, std::vector<Inbound>& out) override {
    inner_.poll(deadline, out);
  }
  void wake() override { inner_.wake(); }
  void stop() override { inner_.stop(); }
  bool send_message(const net::Message& message) override {
    return inner_.send_message(message);
  }
  bool send_agent_frame(net::NodeId dst, const serial::Bytes& frame,
                        std::uint64_t trace_session = 0) override {
    return inner_.send_agent_frame(dst, frame, trace_session);
  }
  bool send_agent_ack(net::NodeId dst, std::uint64_t token) override {
    return inner_.send_agent_ack(dst, token);
  }
  bool reachable(net::NodeId dst) override { return inner_.reachable(dst); }
  transport::TransportStats stats() const override { return inner_.stats(); }
  bool send_announce(net::NodeId dst) override {
    return inner_.send_announce(dst);
  }
  void set_trace_clock(transport::Transport::TraceClock clock) override {
    inner_.set_trace_clock(std::move(clock));
  }

 private:
  transport::InProcTransport& inner_;
};

struct MeshRun {
  std::vector<rpc::NodeDump> dumps;
  std::vector<rpc::NodeTrace> traces;
};

/// A 3-node cluster of full RealNode stacks over an InProcMesh. `skew_step`
/// offsets node i's trace clock by i × skew_step microseconds; all nodes
/// share one clock epoch so the injected skew is the whole inter-node
/// offset (modulo in-process delivery jitter).
MeshRun run_mesh_cluster(std::size_t nodes, std::uint64_t sessions,
                         std::size_t trace_capacity, std::int64_t skew_step) {
  transport::InProcMesh mesh(nodes);
  const std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();

  std::vector<std::unique_ptr<transport::RealNode>> cluster;
  for (net::NodeId id = 0; id < nodes; ++id) {
    transport::RealNodeConfig config;
    config.node = id;
    // Addresses are never dialed (the factory supplies the mesh transport);
    // the endpoint list still sizes the cluster.
    config.endpoints = transport::local_uds_cluster("/tmp/unused-mesh", nodes);
    config.seed = 11 + id;
    config.sessions = sessions;
    config.start_delay = sim::SimTime::millis(100);
    config.marp.reliable_commit = true;
    config.trace_capacity = trace_capacity;
    config.trace_skew_us = skew_step * static_cast<std::int64_t>(id);
    config.clock_epoch_us = epoch;
    config.transport_factory =
        [&mesh](const transport::RealNodeConfig& c)
        -> std::unique_ptr<transport::NodeTransport> {
      return std::make_unique<MeshProxy>(mesh.node(c.node));
    };
    cluster.push_back(std::make_unique<transport::RealNode>(std::move(config)));
  }
  for (auto& node : cluster) node->start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool quiesced = false;
  while (!quiesced && std::chrono::steady_clock::now() < deadline) {
    quiesced = true;
    for (auto& node : cluster) {
      if (!node->status().quiesced) {
        quiesced = false;
        break;
      }
    }
    if (!quiesced) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(quiesced) << "mesh cluster did not quiesce";

  MeshRun run;
  for (auto& node : cluster) {
    run.dumps.push_back(node->dump());
    if (trace_capacity > 0) run.traces.push_back(node->trace_dump());
  }
  for (auto& node : cluster) node->request_stop();
  for (auto& node : cluster) node->join();
  return run;
}

TEST(TraceMergeCluster, InjectedSkewIsCorrectedWithinTolerance) {
  constexpr std::int64_t kSkewStep = 200000;  // node i is i × 200 ms off
  const MeshRun run = run_mesh_cluster(3, 4, /*trace_capacity=*/1 << 16,
                                       kSkewStep);
  ASSERT_EQ(run.traces.size(), 3u);
  for (const auto& t : run.traces) {
    EXPECT_EQ(t.spans_dropped, 0u) << "node " << t.node;
  }

  const MergeResult aligned = align_clocks(run.traces);
  ASSERT_EQ(aligned.offsets_us.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(aligned.aligned[i]) << "node " << i;
    // In-process delivery is microseconds; 5 ms of slack is two orders of
    // magnitude above the expected alignment error and 40× below the skew.
    EXPECT_NEAR(static_cast<double>(aligned.offsets_us[i]),
                static_cast<double>(kSkewStep * static_cast<std::int64_t>(i)),
                5000.0)
        << "node " << i;
  }

  // The merged document itself: parses, spans from every node, nothing
  // negative after rebase.
  std::ostringstream out;
  const MergeResult merged = write_merged_trace(out, run.traces);
  EXPECT_GT(merged.spans_emitted, 0u);
  EXPECT_GT(merged.flows_emitted, 0u);
  const JsonValue root = parse_json(out.str());
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<double> pids;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ts = ev.find("ts");
    if (ts) EXPECT_GE(ts->number, 0.0);
    const JsonValue* ph = ev.find("ph");
    const JsonValue* pid = ev.find("pid");
    if (ph && ph->is_string() && ph->str != "M" && pid) {
      pids.insert(pid->number);
    }
  }
  EXPECT_EQ(pids.size(), 3u) << "expected one pid per node";
}

TEST(TraceMergeCluster, TracingDoesNotChangeTheProtocolResult) {
  const MeshRun untraced = run_mesh_cluster(3, 4, 0, 0);
  const MeshRun traced = run_mesh_cluster(3, 4, 1 << 16, 150000);
  ASSERT_EQ(untraced.dumps.size(), traced.dumps.size());

  // Which replica a touring agent happens to be visiting when its session
  // commits is timing-dependent even between two untraced runs, so compare
  // the protocol-level result: total commits/aborts and the converged store
  // every node must agree on key-for-key.
  std::uint64_t commits_a = 0, commits_b = 0, aborts_a = 0, aborts_b = 0;
  for (std::size_t i = 0; i < untraced.dumps.size(); ++i) {
    const rpc::NodeDump& a = untraced.dumps[i];
    const rpc::NodeDump& b = traced.dumps[i];
    commits_a += a.status.commits;
    commits_b += b.status.commits;
    aborts_a += a.status.aborts;
    aborts_b += b.status.aborts;
    EXPECT_EQ(a.mutex_violations, 0u);
    EXPECT_EQ(b.mutex_violations, 0u);
    ASSERT_EQ(a.items.size(), b.items.size()) << "node " << i;
    for (std::size_t k = 0; k < a.items.size(); ++k) {
      EXPECT_EQ(a.items[k].key, b.items[k].key);
      EXPECT_EQ(a.items[k].value, b.items[k].value);
      EXPECT_EQ(a.items[k].writer, b.items[k].writer);
    }
  }
  EXPECT_EQ(commits_a, 3u * 4u);
  EXPECT_EQ(commits_b, 3u * 4u);
  EXPECT_EQ(aborts_a, aborts_b);
}

}  // namespace
}  // namespace marp::trace
