// Ablation 7 — quorum geometry (extension): lock latency, update time and
// tour size as a function of cluster size N, across the pluggable quorum
// geometries (src/quorum/).
//
// The paper's write quorum is a majority, so every update tours ⌈(N+1)/2⌉
// servers and ALT/ATT grow linearly with N. The structural geometries keep
// the intersection property (proved exhaustively in tests/test_quorum.cpp)
// while shrinking the quorum: a √N×√N grid tours rows + cols − 1 = O(√N)
// servers, a binary tree O(log N). This ablation measures the payoff — the
// per-update tour length the agents actually walked, and the latency that
// buys — under a deliberately low-contention load so the tour size is the
// geometry's, not the contention re-tour tail's.
//
// Every cell re-runs the full consistency audit and the Theorem-2 monitor
// (intersection form for the structural geometries); the acceptance gate at
// the bottom requires the structural geometries' measured tour size to sit
// strictly below the majority bound ⌈(N+1)/2⌉ for every N ≥ 16 with zero
// violations, and fails the binary otherwise.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "quorum/quorum.hpp"

namespace {

using namespace marp;

struct Cell {
  quorum::Geometry geometry = quorum::Geometry::Majority;
  std::size_t servers = 0;
  double alt_ms = 0.0;
  double att_ms = 0.0;
  double visits_mean = 0.0;       ///< measured tour size per committed update
  double prk_le_quorum = 0.0;     ///< % of requests done within q_min visits
  std::size_t min_quorum = 0;     ///< geometry's smallest write quorum
  std::size_t majority_bound = 0; ///< ⌈(N+1)/2⌉
  std::uint64_t committed = 0;
  std::uint64_t reselections = 0;
  std::uint64_t mutex_violations = 0;
  bool consistent = true;
  std::string first_problem;
};

runner::ExperimentConfig cell_config(quorum::Geometry geometry,
                                     std::size_t servers, std::uint64_t seed) {
  runner::ExperimentConfig config;
  config.protocol = runner::ProtocolKind::Marp;
  config.servers = servers;
  config.seed = seed;
  config.network = runner::NetworkKind::Lan;
  config.lan_base = sim::SimTime::millis(2);
  config.marp.visit_service_time = sim::SimTime::millis(2);
  config.marp.quorum.geometry = geometry;
  // Low contention on purpose: one writer at a time with high probability,
  // so servers_visited measures the geometry's tour, not requeue re-tours.
  config.workload.mean_interarrival_ms = 400.0 * static_cast<double>(servers);
  config.workload.write_fraction = 1.0;
  config.workload.num_keys = 1;
  config.workload.duration = sim::SimTime::seconds(60);
  config.workload.max_requests_per_server = 8;
  config.drain = sim::SimTime::seconds(300);
  config.keep_outcomes = true;  // tour sizes live in the per-request outcomes
  return config;
}

Cell run_cell(quorum::Geometry geometry, std::size_t servers,
              std::size_t seeds) {
  Cell cell;
  cell.geometry = geometry;
  cell.servers = servers;
  cell.majority_bound = (servers + 2) / 2;  // ⌈(N+1)/2⌉
  quorum::QuorumSpec spec;
  spec.geometry = geometry;
  cell.min_quorum = quorum::make_quorum_system(spec, servers)->min_write_size();

  metrics::Running alt, att, visits, prk;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const runner::RunResult result =
        runner::run_experiment(cell_config(geometry, servers, 7000 + seed));
    cell.mutex_violations += result.mutex_violations;
    cell.committed += result.successful_writes;
    cell.reselections += result.marp_stats.quorum_reselections;
    if (!result.consistent && cell.first_problem.empty()) {
      cell.consistent = false;
      cell.first_problem = result.consistency_problems.empty()
                               ? "unspecified"
                               : result.consistency_problems.front();
    }
    alt.add(result.alt_ms);
    att.add(result.att_ms);
    std::uint64_t total_visits = 0, writes = 0;
    for (const auto& outcome : result.outcomes) {
      if (outcome.kind != replica::RequestKind::Write || !outcome.success) continue;
      total_visits += outcome.servers_visited;
      ++writes;
    }
    if (writes > 0) {
      visits.add(static_cast<double>(total_visits) /
                 static_cast<double>(writes));
    }
    double mass_le = 0.0;
    for (const auto& [k, pct] : result.prk) {
      if (k <= cell.min_quorum) mass_le += pct;
    }
    prk.add(mass_le);
  }
  cell.alt_ms = alt.mean();
  cell.att_ms = att.mean();
  cell.visits_mean = visits.mean();
  cell.prk_le_quorum = prk.mean();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);

  const std::vector<std::size_t> n_grid =
      options.quick ? std::vector<std::size_t>{4, 16, 36}
                    : std::vector<std::size_t>{4, 9, 16, 25, 36, 49, 64};
  const std::vector<quorum::Geometry> geometries = {
      quorum::Geometry::Majority, quorum::Geometry::Tree,
      quorum::Geometry::Grid};

  std::cout << "Ablation 7: quorum geometry vs cluster size (" << options.seeds
            << " seed(s), low-contention write load)\n\n";

  metrics::Table table({"geometry", "N", "q_min", "maj bound", "visits/upd",
                        "P(K<=q_min) %", "ALT (ms)", "ATT (ms)",
                        "reselect", "consistent"});
  std::vector<Cell> cells;
  bool failed = false;
  for (const std::size_t n : n_grid) {
    for (const quorum::Geometry geometry : geometries) {
      const Cell cell = run_cell(geometry, n, options.seeds);
      table.add_row({std::string(quorum::geometry_name(geometry)), std::to_string(n),
                     std::to_string(cell.min_quorum),
                     std::to_string(cell.majority_bound),
                     metrics::Table::num(cell.visits_mean, 2),
                     metrics::Table::num(cell.prk_le_quorum, 1),
                     metrics::Table::num(cell.alt_ms, 1),
                     metrics::Table::num(cell.att_ms, 1),
                     std::to_string(cell.reselections),
                     cell.consistent && cell.mutex_violations == 0 ? "yes"
                                                                   : "NO"});
      if (!cell.consistent || cell.mutex_violations != 0) {
        failed = true;
        std::cerr << "FAIL: geometry=" << quorum::geometry_name(geometry)
                  << " N=" << n
                  << " mutex_violations=" << cell.mutex_violations
                  << (cell.first_problem.empty()
                          ? ""
                          : " problem: " + cell.first_problem)
                  << "\n";
      }
      cells.push_back(cell);
    }
  }
  bench::print_table(table, options);

  // Machine-readable record for the plots / acceptance gate.
  std::cout << "\nJSON: {\"bench\":\"ablation_quorum\",\"seeds\":"
            << options.seeds << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::cout << (i ? "," : "")
              << "{\"geometry\":\"" << quorum::geometry_name(cell.geometry)
              << "\",\"servers\":" << cell.servers
              << ",\"min_quorum\":" << cell.min_quorum
              << ",\"majority_bound\":" << cell.majority_bound
              << ",\"visits_mean\":" << metrics::Table::num(cell.visits_mean, 3)
              << ",\"prk_le_quorum_pct\":"
              << metrics::Table::num(cell.prk_le_quorum, 2)
              << ",\"alt_ms\":" << metrics::Table::num(cell.alt_ms, 3)
              << ",\"att_ms\":" << metrics::Table::num(cell.att_ms, 3)
              << ",\"committed\":" << cell.committed
              << ",\"quorum_reselections\":" << cell.reselections
              << ",\"mutex_violations\":" << cell.mutex_violations
              << ",\"consistent\":" << (cell.consistent ? "true" : "false")
              << "}";
  }
  std::cout << "]}\n";

  // Acceptance gate: for every N >= 16 the structural geometries must tour
  // strictly fewer servers than the majority bound — in construction
  // (min_quorum) AND in the measured mean — with zero invariant violations.
  for (const Cell& cell : cells) {
    if (cell.geometry == quorum::Geometry::Majority || cell.servers < 16) {
      continue;
    }
    const double bound = static_cast<double>(cell.majority_bound);
    if (cell.min_quorum >= cell.majority_bound || cell.visits_mean >= bound) {
      failed = true;
      std::cerr << "GATE FAIL: " << quorum::geometry_name(cell.geometry)
                << " N=" << cell.servers << " q_min=" << cell.min_quorum
                << " visits_mean=" << cell.visits_mean
                << " not strictly below the majority bound "
                << cell.majority_bound << "\n";
    }
  }
  std::cout << "\nShape check: the majority tour grows linearly in N while\n"
               "grid tours grow as O(sqrt N) and tree tours as O(log N);\n"
               "ALT/ATT follow the tour length at low contention.\n";
  return failed ? 1 : 0;
}
