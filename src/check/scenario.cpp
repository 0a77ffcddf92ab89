#include "check/scenario.hpp"

#include <string>

#include "fault/plan.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "shard/router.hpp"
#include "util/assert.hpp"

namespace marp::check {

namespace {

// One key per lock group, chosen so the FNV-1a router actually spreads the
// write-set across all groups. Pure function of the group count, so every
// run of a scenario uses identical keys.
std::vector<std::string> keys_covering_groups(std::size_t lock_groups) {
  const shard::ShardRouter router(lock_groups);
  std::vector<std::string> keys(lock_groups);
  std::vector<bool> found(lock_groups, false);
  std::size_t covered = 0;
  for (int i = 0; covered < lock_groups; ++i) {
    MARP_REQUIRE_MSG(i < 4096, "router failed to cover all lock groups");
    std::string key = "key-" + std::to_string(i);
    const shard::GroupId g = router.group_of(key);
    if (!found[g]) {
      found[g] = true;
      keys[g] = std::move(key);
      ++covered;
    }
  }
  return keys;
}

fault::FaultPlan make_fault_plan(const ScenarioConfig& config) {
  fault::FaultPlan plan;
  if (config.membership_rf > 0) {
    if (config.join_node != net::kInvalidNode) {
      fault::Action join;
      join.kind = fault::ActionKind::JoinServer;
      join.at = config.join_at;
      join.node = config.join_node;
      plan.actions.push_back(join);
    }
    if (config.leave_node != net::kInvalidNode) {
      fault::Action leave;
      leave.kind = fault::ActionKind::LeaveServer;
      leave.at = config.leave_at;
      leave.node = config.leave_node;
      plan.actions.push_back(leave);
    }
  }
  switch (config.fault) {
    case FaultKind::None:
      break;
    case FaultKind::Crash: {
      fault::Action crash;
      crash.kind = fault::ActionKind::CrashServer;
      crash.on_phase =
          fault::PhaseTrigger{core::ProtocolPhase::UpdateQuorum, 1};
      crash.node = net::kInvalidNode;  // resolve to the winner's node
      plan.actions.push_back(crash);
      break;
    }
    case FaultKind::Drop: {
      fault::Action set;
      set.kind = fault::ActionKind::SetLinkFaults;
      set.at = sim::SimTime::millis(3);
      set.faults.drop = 1.0;
      plan.actions.push_back(set);
      fault::Action clear;
      clear.kind = fault::ActionKind::ClearLinkFaults;
      clear.at = sim::SimTime::millis(40);
      plan.actions.push_back(clear);
      break;
    }
  }
  return plan;
}

}  // namespace

sim::SimTime ScenarioConfig::effective_horizon() const {
  if (horizon.as_micros() > 0) return horizon;
  sim::SimTime base = sim::SimTime::millis(800);
  if (fault == FaultKind::Crash) base = sim::SimTime::millis(1500);
  if (fault == FaultKind::Drop) base = sim::SimTime::millis(2500);
  if (lock_groups > 1) {
    base = base + sim::SimTime::millis(400 * (lock_groups - 1));
  }
  if (membership_rf > 0 &&
      (join_node != net::kInvalidNode || leave_node != net::kInvalidNode)) {
    // A view change re-tours in-flight agents and a joiner must finish
    // anti-entropy catch-up before quiescence.
    base = base + sim::SimTime::millis(700);
  }
  return base;
}

CheckScenario::CheckScenario(const ScenarioConfig& config) : config_(config) {
  MARP_REQUIRE(config.servers >= 2);
  MARP_REQUIRE(config.agents >= 1);
  MARP_REQUIRE(config.lock_groups >= 1);

  // Fixed seed: with constant latency no component draws randomness on the
  // explored paths, so the only nondeterminism left is the schedule itself.
  simulator_ = std::make_unique<sim::Simulator>(1);
  net::Topology topology =
      net::make_lan_mesh(config.servers, sim::SimTime::millis(1));
  network_ = std::make_unique<net::Network>(
      *simulator_, std::move(topology),
      std::make_unique<net::ConstantLatency>(sim::SimTime::millis(1)));
  platform_ = std::make_unique<agent::AgentPlatform>(*network_);

  core::MarpConfig marp;
  marp.num_lock_groups = config.lock_groups;
  marp.mutant = config.mutant;
  marp.quorum = config.quorum;
  marp.batch_size = 1;
  // Parked agents are woken by COMMIT signals; pushing the patrol past the
  // horizon keeps the schedule space to the protocol's essential events.
  marp.patrol_interval = sim::SimTime::seconds(10);
  if (config.fault == FaultKind::Drop) marp.reliable_commit = true;
  if (config.membership_rf > 0) {
    marp.membership.replication_factor = config.membership_rf;
    marp.membership.initial_members = config.initial_members;
  }
  protocol_ = std::make_unique<core::MarpProtocol>(*network_, *platform_, marp);

  fault::FaultPlan plan = make_fault_plan(config);
  if (!plan.empty()) {
    injector_.emplace(*network_, *platform_, *protocol_, std::move(plan));
    injector_->arm();
  }

  MonitorConfig mon;
  mon.servers = config.servers;
  mon.lock_groups = config.lock_groups;
  mon.expected_outcomes = config.agents;
  // Crashes eat buffered requests and in-flight agents; a full-loss window
  // can strand a REPORT. Either way completion accounting must relax, and
  // the strict quorum-agreement oracle is only sound while Locking-List
  // entries leave exclusively by committing (no fault-driven aborts).
  mon.expect_completion = config.fault == FaultKind::None;
  mon.strict_agreement = config.fault == FaultKind::None;
  mon.max_migrations_per_agent =
      config.servers * (config.agents + 2) + 4;  // generous O(N) tour bound
  monitor_ = std::make_unique<InvariantMonitor>(*protocol_, *platform_,
                                                *network_, mon);
  monitor_->install();  // after arm(): the injector's probe gets chained

  protocol_->set_outcome_handler(
      [this](const replica::Outcome&) { ++outcomes_; });

  // All writes submitted at t=0 from distinct origins: with batch_size 1
  // every agent is dispatched immediately, so their first visits — and the
  // whole protocol race — happen on a maximally tied timeline. A non-zero
  // agent_stagger instead spaces the submissions out, so later agents can
  // be born under a newer membership epoch than earlier ones.
  const std::vector<std::string> keys = keys_covering_groups(config.lock_groups);
  for (std::size_t i = 0; i < config.agents; ++i) {
    replica::Request request;
    request.id = i + 1;
    request.kind = replica::RequestKind::Write;
    request.key = keys[i % keys.size()];
    request.value = "v" + std::to_string(i + 1);
    request.origin = static_cast<net::NodeId>(i % config.servers);
    request.submitted = config.agent_stagger * static_cast<std::int64_t>(i);
    if (request.submitted == sim::SimTime::zero()) {
      protocol_->submit(request);
    } else {
      simulator_->schedule_at(
          request.submitted,
          [this, request]() { protocol_->submit(request); });
    }
  }
}

CheckScenario::~CheckScenario() {
  // The monitor outlives nothing: detach before members tear down.
  platform_->set_observer(nullptr);
  simulator_->set_schedule_controller(nullptr);
}

RunOutcome CheckScenario::run(sim::ScheduleController* controller,
                              const std::function<bool()>& abort_hook,
                              std::uint64_t max_steps) {
  simulator_->set_schedule_controller(controller);
  const sim::SimTime horizon = config_.effective_horizon();
  RunOutcome out;

  while (!simulator_->idle() && out.steps < max_steps) {
    if (simulator_->next_event_time() > horizon) break;
    simulator_->run_events(1);
    ++out.steps;
    if (!monitor_->after_step(out.steps)) break;
    if (abort_hook && abort_hook()) {
      out.aborted = true;
      break;
    }
  }
  simulator_->set_schedule_controller(nullptr);

  if (!out.aborted && monitor_->ok()) {
    if (out.steps >= max_steps) {
      // The horizon bounds virtual time, so a step-budget blowout means a
      // same-instant event cascade — report it rather than loop.
      out.violation = true;
      out.problem = "run exceeded step budget (possible zero-delay livelock)";
      out.violation_step = out.steps;
      out.violation_time_us = simulator_->now().as_micros();
      out.outcomes = outcomes_;
      return out;
    }
    std::vector<bool> eligible(config_.servers, true);
    if (injector_) {
      for (std::size_t i = 0; i < config_.servers; ++i) {
        if (injector_->crashed()[i]) eligible[i] = false;
      }
    }
    monitor_->final_checks(eligible, outcomes_);
  }

  out.outcomes = outcomes_;
  if (!monitor_->ok()) {
    out.violation = true;
    out.problem = monitor_->problem();
    out.violation_step = monitor_->violation_step();
    out.violation_time_us = monitor_->violation_time_us();
  }
  return out;
}

}  // namespace marp::check
