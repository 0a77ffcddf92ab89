// Shared plumbing for the figure/table benches: flag parsing, the standard
// workload grid, and experiment-config builders. Every bench prints an
// aligned table of the series the paper reports (plus CSV with --csv), and
// exits 1 when any point broke an invariant. `--help` lists the flags.
#pragma once

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace marp::bench {

struct Options {
  std::size_t seeds = 3;
  bool quick = false;
  bool csv = false;
  /// Non-empty: also write the result table as a JSON array of row objects
  /// (plot scripts and CI trend checks consume this, not the pretty table).
  std::string json_path;
};

inline Options parse_options(int argc, char** argv) {
  Options options;
  std::optional<std::size_t> seeds;
  util::Flags flags{std::filesystem::path(argv[0]).filename().string()};
  flags.add("--seeds", "N", seeds, "replications per point (default 3, or 1 with --quick)")
      .toggle("--quick", options.quick, true, "coarse grid, 1 seed (CI smoke)")
      .toggle("--csv", options.csv, true, "also emit CSV after the table")
      .add("--json", "FILE", options.json_path,
           "also write the table as a JSON array of row objects");
  flags.parse(argc, argv);
  options.seeds = seeds.value_or(options.quick ? 1 : options.seeds);
  return options;
}

/// The x-axis of Figures 2-4: mean request inter-arrival time (ms).
inline std::vector<double> interarrival_grid(bool quick) {
  if (quick) return {10, 45, 100, 500};
  return {10, 20, 30, 45, 60, 80, 100, 150, 200, 350, 500};
}

/// Baseline experiment shape shared by the figure benches: LAN mesh,
/// single replicated object, write-only Poisson load capped per server so
/// overload points stay finite, long drain so every request completes.
inline runner::ExperimentConfig figure_config(std::size_t servers,
                                              double interarrival_ms,
                                              std::uint64_t seed_base = 1000) {
  runner::ExperimentConfig config;
  config.servers = servers;
  config.seed = seed_base;
  config.network = runner::NetworkKind::Lan;
  // Latency/processing costs modelled on the paper's testbed (switched
  // workstation LAN + Aglets processing at each server). The contention
  // crossover of Fig. 4 lands at a ~2x larger inter-arrival time than the
  // paper's ~45 ms — the shape, not the absolute axis, is the target (see
  // EXPERIMENTS.md).
  config.lan_base = sim::SimTime::millis(2);
  config.marp.visit_service_time = sim::SimTime::millis(2);
  config.workload.mean_interarrival_ms = interarrival_ms;
  config.workload.duration = sim::SimTime::seconds(60);
  config.workload.max_requests_per_server = 50;
  config.workload.write_fraction = 1.0;
  config.workload.num_keys = 1;
  config.drain = sim::SimTime::seconds(300);
  return config;
}

inline void print_table(const metrics::Table& table, const Options& options) {
  table.print(std::cout);
  if (options.csv) {
    std::cout << "\nCSV:\n";
    table.print_csv(std::cout);
  }
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::cerr << "cannot write " << options.json_path << '\n';
      std::exit(1);
    }
    table.print_json(out);
    std::cout << "\nJSON written to " << options.json_path << '\n';
  }
}

/// Prints a CONSISTENCY FAILURE line for a point that broke an invariant;
/// returns whether it did, so the bench can exit 1 after its table.
inline bool warn_if_inconsistent(const runner::Aggregate& aggregate,
                                 const std::string& where) {
  if (aggregate.all_consistent && aggregate.mutex_violations == 0) return false;
  std::cerr << "CONSISTENCY FAILURE at " << where << ": "
            << (aggregate.problems.empty() ? "mutex violation"
                                           : aggregate.problems.front())
            << '\n';
  return true;
}

}  // namespace marp::bench
