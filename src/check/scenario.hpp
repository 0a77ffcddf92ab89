// CheckScenario — one small, fully deterministic MARP deployment for the
// model checker: N servers on a constant-latency mesh (so concurrent
// protocol steps genuinely tie in virtual time and every tie is a real
// interleaving choice), K single-write agents dispatched simultaneously
// from distinct origins, G lock groups, and optionally one scripted fault
// from src/fault/. Every run of the same scenario under the same schedule
// (choice sequence) is bit-for-bit identical — the property the DFS
// explorer and --replay rely on.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agent/platform.hpp"
#include "check/monitor.hpp"
#include "fault/injector.hpp"
#include "marp/protocol.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace marp::check {

enum class FaultKind : std::uint8_t {
  None,
  /// Crash the first quorum winner's server at the UpdateQuorum milestone —
  /// the COMMIT broadcast is in flight, the RELEASE may never come.
  Crash,
  /// A 100%-loss window over every link early in the run; the hardened
  /// (reliable_commit) protocol must retry its way through.
  Drop
};

/// Command-line and report names (model_check --fault).
inline constexpr std::array<std::pair<FaultKind, std::string_view>, 3> kFaultNames{{
    {FaultKind::None, "none"},
    {FaultKind::Crash, "crash"},
    {FaultKind::Drop, "drop"},
}};

struct ScenarioConfig {
  std::size_t servers = 3;
  std::size_t agents = 2;  ///< one write request each, distinct origins
  std::size_t lock_groups = 1;
  core::ProtocolMutant mutant = core::ProtocolMutant::None;
  /// Quorum geometry checked (threaded to both the protocol under test and
  /// the monitor's unmutated oracle).
  quorum::QuorumSpec quorum;
  FaultKind fault = FaultKind::None;
  /// Virtual-time bound per run; zero derives a default from the fault kind.
  sim::SimTime horizon = sim::SimTime::zero();

  /// Dynamic membership: copies per lock group (0 = static full
  /// replication). With rf > 0 the deployment runs epoch-stamped views over
  /// the first `initial_members` servers (0 = all of them); the remaining
  /// servers are spares that can join later.
  std::size_t membership_rf = 0;
  std::size_t initial_members = 0;
  /// Scripted churn (membership only; kInvalidNode = none): propose adding
  /// `join_node` / removing `leave_node` at the given virtual times. Fired
  /// through the fault injector, so the two-phase change races the
  /// explored agent schedules like any other scripted event.
  net::NodeId join_node = net::kInvalidNode;
  sim::SimTime join_at = sim::SimTime::zero();
  net::NodeId leave_node = net::kInvalidNode;
  sim::SimTime leave_at = sim::SimTime::zero();
  /// Delay between consecutive agent submissions (agent i starts at
  /// i × stagger). Zero keeps the maximally-tied t=0 start. Non-zero lets
  /// later agents be born under a *newer* epoch than still-running earlier
  /// ones — the precondition for a cross-epoch quorum conflict, which the
  /// MixedEpoch mutant needs in order to be catchable at all.
  sim::SimTime agent_stagger = sim::SimTime::zero();

  sim::SimTime effective_horizon() const;
};

/// What one bounded run produced.
struct RunOutcome {
  bool violation = false;
  std::string problem;
  std::uint64_t violation_step = 0;
  std::int64_t violation_time_us = 0;
  std::uint64_t steps = 0;
  std::size_t outcomes = 0;  ///< answered requests
  bool aborted = false;      ///< abort hook fired (sleep-set pruned run)
};

class CheckScenario {
 public:
  explicit CheckScenario(const ScenarioConfig& config);
  ~CheckScenario();

  CheckScenario(const CheckScenario&) = delete;
  CheckScenario& operator=(const CheckScenario&) = delete;

  /// Drive the run to quiescence/horizon under `controller` (nullptr =
  /// canonical order), consulting the monitor after every event.
  /// `abort_hook`, when set, is polled each step; returning true abandons
  /// the run without final checks (used for sleep-set pruning).
  RunOutcome run(sim::ScheduleController* controller,
                 const std::function<bool()>& abort_hook = {},
                 std::uint64_t max_steps = 50000);

  sim::Simulator& simulator() { return *simulator_; }
  core::MarpProtocol& protocol() { return *protocol_; }
  const ScenarioConfig& config() const noexcept { return config_; }

 private:
  ScenarioConfig config_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<agent::AgentPlatform> platform_;
  std::unique_ptr<core::MarpProtocol> protocol_;
  std::optional<fault::FaultInjector> injector_;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::size_t outcomes_ = 0;
};

}  // namespace marp::check
