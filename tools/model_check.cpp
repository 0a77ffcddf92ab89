// model_check — exhaustive bounded schedule exploration over the MARP
// protocol (src/check/). Where chaos_sim *samples* interleavings by seed,
// this tool *enumerates* them: every same-time tie in the deterministic
// event queue is a decision point, and the DFS explorer (with sleep-set
// partial-order reduction) walks every inequivalent resolution, asserting
// the full invariant battery — Theorems 1–3, per-group and per-key commit
// order, grant-leak freedom, convergence — after every single event.
//
//   model_check                              # exhaust N=3, 2 agents, 1 group
//   model_check --servers 4 --agents 3       # bigger space, same invariants
//   model_check --mutant majority            # MUST report violations
//   model_check --mutant tiebreak            # MUST report violations
//   model_check --fault crash                # one quorum-phase crash explored
//   model_check --replay 1,0,2               # re-run one schedule, verbosely
//
// A violation is reported with its schedule — the vector of choice indices
// taken at successive decision points — which replays the identical failure
// bit-for-bit via --replay. Exit status: 1 when violations were found (or,
// with --expect-violation, when none were), 0 otherwise.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "quorum/spec.hpp"
#include "trace/json.hpp"
#include "util/flags.hpp"

namespace {

using namespace marp;

using Schedule = util::Text<std::vector<std::size_t>>;

void emit_report(std::ostream& os, const check::ScenarioConfig& scenario,
                 const check::ExploreLimits& limits,
                 const check::ExploreReport& report, bool replay_verified) {
  os << "{\"config\":{"
     << "\"servers\":" << scenario.servers
     << ",\"agents\":" << scenario.agents
     << ",\"groups\":" << scenario.lock_groups
     << ",\"mutant\":\"" << util::name_of(core::kMutantNames, scenario.mutant) << "\""
     << ",\"quorum\":\"" << quorum::geometry_name(scenario.quorum.geometry) << "\""
     << ",\"fault\":\"" << util::name_of(check::kFaultNames, scenario.fault) << "\""
     << ",\"membership_rf\":" << scenario.membership_rf
     << ",\"initial_members\":" << scenario.initial_members
     << ",\"horizon_us\":" << scenario.effective_horizon().as_micros()
     << ",\"sleep_sets\":" << (limits.sleep_sets ? "true" : "false") << "}"
     << ",\"schedules_explored\":" << report.schedules_explored
     << ",\"sleep_blocked\":" << report.sleep_blocked
     << ",\"branch_capped\":" << report.branch_capped
     << ",\"total_steps\":" << report.total_steps
     << ",\"max_frontier\":" << report.max_frontier
     << ",\"max_decision_points\":" << report.max_decision_points
     << ",\"complete\":" << (report.complete ? "true" : "false")
     << ",\"exhaustive\":" << (report.exhaustive ? "true" : "false")
     << ",\"replay_verified\":" << (replay_verified ? "true" : "false")
     << ",\"violations\":[";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const check::ViolationRecord& v = report.violations[i];
    if (i) os << ",";
    os << "{\"schedule\":\"" << Schedule::format(v.schedule) << "\""
       << ",\"step\":" << v.step << ",\"time_us\":" << v.time_us
       << ",\"problem\":\"" << trace::json_escape(v.problem) << "\"}";
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  check::ScenarioConfig scenario;
  check::ExploreLimits limits;
  bool expect_violation = false;
  std::optional<std::vector<std::size_t>> replay_schedule;
  std::optional<util::NodeEvent> join;
  std::optional<util::NodeEvent> leave;
  std::string out_path;

  util::Flags flags("model_check");
  flags.add("--servers", "N", scenario.servers, "replicas")
      .add("--agents", "N", scenario.agents, "concurrent single-write agents")
      .add("--lock-groups", "N", scenario.lock_groups, "lock groups")
      .choice("--mutant", scenario.mutant, core::kMutantNames, "seeded protocol bug")
      .choice("--quorum", scenario.quorum.geometry, quorum::kGeometryNames, "quorum geometry")
      .add("--tree-degree", "D", scenario.quorum.tree_degree, "tree geometry branching")
      .add("--grid-cols", "C", scenario.quorum.grid_cols,
           "grid geometry columns (0 = about sqrt N)")
      .choice("--fault", scenario.fault, check::kFaultNames, "scripted fault")
      .add("--replication-factor", "R", scenario.membership_rf,
           "dynamic membership: R copies per lock group\n(0 = static full replication)")
      .add("--initial-members", "N", scenario.initial_members,
           "first N servers form epoch 1 (0 = all)")
      .add("--join-at", "NODE@MS", join, "propose adding NODE at MS ms (membership only)")
      .add("--leave-at", "NODE@MS", leave, "propose removing NODE at MS ms (membership only)")
      .add("--agent-stagger", "MS", scenario.agent_stagger,
           "submit agents MS ms apart (0 = all at t=0; later\nagents may then be born in a newer epoch)")
      .add("--max-schedules", "N", limits.max_schedules, "schedule budget")
      .add("--max-branch-points", "N", limits.max_branch_points, "depth allowed to branch")
      .add("--horizon-ms", "MS", scenario.horizon, "per-run virtual-time bound (0 = auto)")
      .toggle("--no-prune", limits.sleep_sets, false, "disable sleep-set reduction")
      .toggle("--fail-fast", limits.fail_fast, true, "stop at the first violation")
      .toggle("--expect-violation", expect_violation, true,
              "invert the exit status (mutant CI runs)")
      .add("--replay", "I,J,K", replay_schedule, "re-run one schedule verbosely and exit")
      .add("--out", "FILE", out_path, "write the JSON report to FILE (default stdout)");
  flags.parse(argc, argv);
  if (join) {
    scenario.join_node = join->node;
    scenario.join_at = join->at;
  }
  if (leave) {
    scenario.leave_node = leave->node;
    scenario.leave_at = leave->at;
  }

  if (scenario.mutant == core::ProtocolMutant::SplitQuorum &&
      scenario.quorum.geometry == quorum::Geometry::Majority) {
    // SplitQuorum fakes geometry coverage, so it only has something to
    // subvert on the geometry decide path; default it onto the grid.
    std::cerr << "note: --mutant split implies --quorum grid\n";
    scenario.quorum.geometry = quorum::Geometry::Grid;
  }

  if (scenario.fault == check::FaultKind::Drop && limits.sleep_sets) {
    // A full-loss window consumes shared RNG draws per message, which
    // breaks the per-node independence the reduction assumes.
    std::cerr << "note: --fault drop disables sleep-set pruning\n";
    limits.sleep_sets = false;
  }

  if (replay_schedule) {
    const check::ReplayResult result = check::replay(scenario, *replay_schedule);
    for (const std::string& line : result.decisions) std::cout << line << "\n";
    std::cout << "steps=" << result.outcome.steps
              << " outcomes=" << result.outcome.outcomes << "\n";
    if (result.outcome.violation) {
      std::cout << "VIOLATION at step " << result.outcome.violation_step
                << " t=" << result.outcome.violation_time_us << "us: "
                << result.outcome.problem << "\n";
      return 1;
    }
    std::cout << "no violation\n";
    return 0;
  }

  const check::ExploreReport report = check::explore(scenario, limits);

  // Self-check the replay promise: the first reported violation, re-run
  // from nothing but its schedule string, must reproduce the identical
  // failure (same problem, same step).
  bool replay_verified = false;
  if (!report.violations.empty()) {
    const check::ViolationRecord& v = report.violations.front();
    const check::ReplayResult result = check::replay(scenario, v.schedule);
    replay_verified = result.outcome.violation &&
                      result.outcome.problem == v.problem &&
                      result.outcome.violation_step == v.step;
  }

  if (out_path.empty()) {
    emit_report(std::cout, scenario, limits, report, replay_verified);
  } else {
    std::ofstream file(out_path);
    emit_report(file, scenario, limits, report, replay_verified);
    std::cout << "report written to " << out_path << "\n";
  }

  std::cerr << "explored " << report.schedules_explored << " schedules ("
            << report.sleep_blocked << " sleep-blocked, "
            << (report.exhaustive ? "exhaustive" : "bounded") << "), "
            << report.violations.size() << " violation(s)\n";
  if (!report.violations.empty()) {
    std::cerr << "replay the first with: --replay "
              << Schedule::format(report.violations.front().schedule)
              << (report.violations.front().schedule.empty() ? "\"\"" : "")
              << " (replay " << (replay_verified ? "verified" : "FAILED TO REPRODUCE")
              << ")\n";
  }

  const bool found = !report.violations.empty();
  if (expect_violation) return found && replay_verified ? 0 : 1;
  return found ? 1 : 0;
}
