// Correctness checks applied to every benchmark run. They are pure
// functions over the program's own outputs (node dumps, run results,
// explorer reports), so the self-test can feed them doctored results and
// prove that each check rejects what it should.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "rpc/control.hpp"
#include "runner/experiment.hpp"
#include "transport/cluster.hpp"

namespace perfbench {

/// One cluster-uds round: every node quiesced, commits == nodes × sessions,
/// no mutex violation, no store or apply-order divergence, no agent transfer
/// pending, no frame rejected, and the store and per-key commit order equal
/// to the reference simulation's.
std::vector<std::string> check_cluster_round(
    const std::vector<marp::rpc::NodeDump>& dumps,
    const marp::transport::ClusterSpec& spec,
    const marp::transport::SubstrateResult& reference);

/// One sim-mixed run: consistent, no mutex violation, every generated
/// request completed, no failed write.
std::vector<std::string> check_sim_run(const marp::runner::RunResult& result);

/// One capped exploration: no violation and exactly `cap` schedules.
std::vector<std::string> check_explore(const marp::check::ExploreReport& report,
                                       std::uint64_t cap);

/// Exact counts of a simulator run. Same config ⇒ bit-identical, traced or
/// not; any difference is a determinism bug.
struct SimPins {
  std::uint64_t completed = 0;
  std::uint64_t messages = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migration_bytes = 0;
  double alt_ms = 0.0;
  double att_ms = 0.0;
  bool operator==(const SimPins&) const = default;
};
SimPins sim_pins(const marp::runner::RunResult& result);

/// Exact counts of an exploration.
struct ExplorePins {
  std::uint64_t schedules = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t sleep_blocked = 0;
  bool operator==(const ExplorePins&) const = default;
};
ExplorePins explore_pins(const marp::check::ExploreReport& report);

std::string describe(const SimPins& pins);
std::string describe(const ExplorePins& pins);

/// Negative cases: every check above must reject a doctored result and
/// accept the undoctored one. Returns the number of cases that misbehaved.
int run_selftest(std::ostream& os);

}  // namespace perfbench
