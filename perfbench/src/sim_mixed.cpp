// sim-mixed: run_experiment in the discrete-event simulator at N = 64 on
// the LAN model, grid quorum, full replication, 16 lock groups, half reads
// and half writes over shared keys with Poisson arrivals in virtual time.
// Reads are QuorumAgents that migrate across a grid read quorum without
// locking, writes contend for the Locking Lists. It exercises the simulator
// core at a large heap, decide(), the geometry tour and both agent kinds,
// and never touches rpc, transport or checkpoint. An op is one completed
// request.
//
// An untraced run times one lane per core (at most four) at once, each
// repeating its own seeded config; ops_per_s adds up the lanes' median rates.
// On a shared host each core speeds up and slows down on its own, and a sum
// over cores rides that out far better than one core's rate does.
//
// Every repetition in a lane uses the same seeded config, so the exact
// counts (messages, migrations, virtual ALT/ATT) must repeat bit for bit —
// between repetitions and between traced and untraced runs. Each run also
// starts with the same config at a fixed seed, whose counts are constants
// of the program (kPins): a change to protocol behaviour fails every run.
#include <algorithm>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "runner/experiment.hpp"
#include "trace/tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace marp;

constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

/// Most lanes the untraced phase runs at once.
constexpr unsigned kMaxLanes = 4;
/// Set-ups timed before each repetition; spreading the set-up samples over
/// the run lets their median ride out the host's speed drift.
constexpr int kSetupSamplesPerRep = 20;

runner::ExperimentConfig make_config(std::uint64_t seed, bool tiny) {
  runner::ExperimentConfig c;
  c.servers = tiny ? 16 : 64;
  c.seed = seed;
  c.network = runner::NetworkKind::Lan;
  c.marp.quorum.geometry = quorum::Geometry::Grid;
  c.marp.num_lock_groups = 16;
  c.marp.read_mode = core::ReadMode::QuorumAgent;
  c.workload.arrivals = workload::ArrivalProcess::Poisson;
  c.workload.write_fraction = 0.5;
  c.workload.num_keys = 512;
  c.workload.mean_interarrival_ms = 400.0;
  c.workload.duration = sim::SimTime::seconds(tiny ? 2 : 10);
  c.drain = sim::SimTime::seconds(60);
  return c;
}

/// The full-size config at this seed is run first in every run, traced or
/// not, and its exact counts must equal kPins. Re-pin deliberately when a
/// change is meant to alter protocol behaviour, never silently.
constexpr std::uint64_t kPinSeed = 1;
const SimPins kPins{1580, 74975, 15612, 29201015, 62.295635668789849, 71.327124840764398};

/// run_experiment's own set-up: the same config with no arrivals and no
/// drain builds the simulator, topology, network, agent platform, the MARP
/// protocol and the request generator, runs no event, and audits the empty
/// stores. Always untraced: setup_s is an untraced metric.
void time_setup(const runner::ExperimentConfig& config, SpanLog& spans,
                std::vector<double>& samples) {
  runner::ExperimentConfig empty = config;
  empty.workload.duration = sim::SimTime::zero();
  empty.drain = sim::SimTime::zero();
  empty.trace_capacity = 0;
  for (int i = 0; i < kSetupSamplesPerRep; ++i) {
    auto s = spans.span("runner.run_experiment.setup");
    const auto t0 = Clock::now();
    const runner::RunResult result = runner::run_experiment(empty);
    samples.push_back(seconds_since(t0));
    keep(result.generated);
  }
}

/// Runs the pinned config, traced in a traced run, and checks it against
/// kPins. It is also the run's warm-up.
void run_pinned(std::size_t trace_capacity, SpanLog& spans, RunReport& report) {
  runner::ExperimentConfig pinned = make_config(kPinSeed, false);
  pinned.trace_capacity = trace_capacity;
  runner::RunResult result;
  {
    auto s = spans.span("runner.run_experiment.pinned");
    result = runner::run_experiment(pinned);
  }
  report.attempted += result.generated;
  report.failed += (result.generated - result.completed) + result.failed_writes;
  for (const std::string& p : check_sim_run(result)) {
    report.problems.push_back("pinned run: " + p);
  }
  const SimPins got = sim_pins(result);
  std::cout << "pinned seed " << kPinSeed << ": " << describe(got) << "\n";
  if (!(got == kPins)) {
    report.problems.push_back("pinned run counts drifted: pinned " + describe(kPins) +
                              ", got " + describe(got));
  }
}

/// One stream of repetitions of one seeded config, run on its own thread.
/// Everything a lane records stays in the lane until it has been joined.
struct Lane {
  runner::ExperimentConfig config;
  Windows windows{0};  ///< one per repetition
  std::vector<double> setup;
  std::optional<SimPins> pins;  ///< exact counts; the first result seeds them
  RunReport report;
  std::ostringstream log;
  runner::RunResult last;
};

/// Repetitions of the lane's config until its windows want no more (at least
/// `min_reps`). Checks every result and pins its exact counts.
void run_lane(Lane& lane, int min_reps, SpanLog& spans) {
  const bool traced = lane.config.trace_capacity > 0;
  for (int rep = 0; rep < 1000 && (lane.windows.want_more() || rep < min_reps); ++rep) {
    time_setup(lane.config, spans, lane.setup);
    const double steal0 = steal_seconds();
    const auto t0 = Clock::now();
    runner::RunResult result;
    {
      auto s = spans.span(traced ? "runner.run_experiment.traced" : "runner.run_experiment");
      result = runner::run_experiment(lane.config);
    }
    const double elapsed = seconds_since(t0);
    const double steal = lane.windows.add(elapsed, static_cast<double>(result.completed),
                                          steal_seconds() - steal0);
    lane.log << "seed " << lane.config.seed << " repetition " << rep
             << (traced ? " traced" : "") << " seconds " << elapsed << " completed "
             << result.completed << " steal_pct " << 100.0 * steal << "\n";
    RunReport& report = lane.report;
    report.attempted += result.generated;
    report.failed += (result.generated - result.completed) + result.failed_writes;
    for (const std::string& p : check_sim_run(result)) {
      report.problems.push_back("seed " + std::to_string(lane.config.seed) + " repetition " +
                                std::to_string(rep) + ": " + p);
    }
    const SimPins got = sim_pins(result);
    if (!lane.pins) lane.pins = got;
    if (!(*lane.pins == got)) {
      report.problems.push_back("seed " + std::to_string(lane.config.seed) +
                                ": exact counts drifted: expected " + describe(*lane.pins) +
                                ", got " + describe(got));
    }
    lane.last = std::move(result);
    if (!report.correct()) break;
  }
}

struct Phase {
  /// Sum over lanes of the lane's median undisturbed repetition rate:
  /// completed requests per second with every lane simulating at once.
  double rate = 0;
  runner::RunResult last;  ///< the first lane's last result
};

/// Runs one lane per config concurrently, each for `budget` seconds of
/// undisturbed repetitions (see Windows), then prints the lanes' repetitions
/// and merges their counts, set-up samples and problems. Benchmark spans are
/// single-threaded, so a traced phase has one lane.
Phase run_phase(const std::vector<runner::ExperimentConfig>& configs, double budget,
                int min_reps, std::vector<double>& setup, SpanLog& spans, RunReport& report) {
  if (spans.enabled() && configs.size() != 1) {
    throw std::logic_error("run_phase: a traced phase runs one lane");
  }
  std::vector<Lane> lanes(configs.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      lanes[i].config = configs[i];
      lanes[i].windows = Windows(budget);
      threads.emplace_back(run_lane, std::ref(lanes[i]), min_reps, std::ref(spans));
    }
    for (std::thread& t : threads) t.join();
  }
  Phase phase;
  for (Lane& lane : lanes) {
    std::cout << lane.log.str();
    phase.rate += lane.windows.rate();
    setup.insert(setup.end(), lane.setup.begin(), lane.setup.end());
    report.attempted += lane.report.attempted;
    report.failed += lane.report.failed;
    report.problems.insert(report.problems.end(), lane.report.problems.begin(),
                           lane.report.problems.end());
  }
  phase.last = std::move(lanes.front().last);
  return phase;
}

/// Lanes of the untraced phase: one per core, at most four. Lane i runs the
/// config at seed + i * 2^32, so every lane simulates different inputs.
std::vector<runner::ExperimentConfig> lane_configs(std::uint64_t seed, bool tiny) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<runner::ExperimentConfig> configs;
  for (unsigned i = 0; i < std::min(cores, kMaxLanes); ++i) {
    configs.push_back(make_config(seed + (std::uint64_t{i} << 32), tiny));
  }
  return configs;
}

}  // namespace

RunReport run_sim_mixed(const Options& o, SpanLog& spans) {
  RunReport report;
  const runner::ExperimentConfig config = make_config(o.seed, o.tiny);

  std::vector<double> setup;
  run_pinned(o.trace ? kTraceCapacity : 0, spans, report);
  if (!report.correct()) return report;
  if (!o.trace) {
    const Phase untraced =
        run_phase(lane_configs(o.seed, o.tiny), o.seconds, 2, setup, spans, report);
    if (!report.correct()) return report;
    report.set("ops_per_s", untraced.rate, "1/s");
    report.set("setup_s", median(setup), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  // Traced runs time one lane, untraced then traced, for trace.overhead_pct.
  const Phase untraced = run_phase({config}, o.seconds / 2, 2, setup, spans, report);
  if (!report.correct()) return report;
  runner::ExperimentConfig traced_config = config;
  traced_config.trace_capacity = kTraceCapacity;
  const Phase traced = run_phase({traced_config}, o.seconds / 2, 1, setup, spans, report);
  if (!report.correct()) return report;
  // Both phases ran the same config, so their exact counts must agree too.
  if (!(sim_pins(untraced.last) == sim_pins(traced.last))) {
    report.problems.push_back("traced counts differ from untraced: " +
                              describe(sim_pins(untraced.last)) + " vs " +
                              describe(sim_pins(traced.last)));
    return report;
  }

  const runner::RunResult& r = traced.last;
  LayerCounts c;
  c.ops = static_cast<double>(r.completed);
  c.migrations = static_cast<double>(r.agent_stats.migrations_started);
  c.migration_bytes = static_cast<double>(r.agent_stats.migration_bytes);
  c.updates_committed = static_cast<double>(r.marp_stats.updates_committed);
  c.update_attempts = static_cast<double>(r.marp_stats.update_attempts);
  c.retransmits = static_cast<double>(r.marp_stats.anomalies.commit_retransmits +
                                      r.marp_stats.anomalies.report_retransmits +
                                      r.marp_stats.anomalies.release_retransmits);
  c.reselections = static_cast<double>(r.marp_stats.quorum_reselections);
  c.messages = static_cast<double>(r.net_stats.messages_sent);
  c.alt_ms_virtual = r.alt_ms;
  c.att_ms_virtual = r.att_ms;
  // Simulator spans are in virtual time: session, lock-wait and migration
  // latencies of the modelled LAN, not of this host.
  for (const trace::SpanRecord& s : r.trace->records()) {
    const double ms = static_cast<double>(s.end_us - s.start_us) / 1000.0;
    if (s.kind == trace::SpanKind::Session) c.session_ms.push_back(ms);
    if (s.kind == trace::SpanKind::LockWait) c.lock_wait_ms.push_back(ms);
    if (s.kind == trace::SpanKind::Migration) c.migration_ms.push_back(ms);
  }

  ProbeShape shape;
  if (r.net_stats.messages_sent > 0) {
    shape.frame_body_bytes = r.net_stats.bytes_sent / r.net_stats.messages_sent;
  }
  if (r.agent_stats.migrations_started > 0) {
    shape.agent_bytes = r.agent_stats.migration_bytes / r.agent_stats.migrations_started;
  }
  shape.store_keys = config.workload.num_keys;
  shape.scratch_dir = o.work_dir + "/sim-" + std::to_string(o.seed);
  const double overhead =
      untraced.rate > 0 ? (untraced.rate - traced.rate) / untraced.rate * 100.0 : 0.0;
  add_layer_metrics(c, shape, overhead, spans, report);
  return report;
}

}  // namespace perfbench
