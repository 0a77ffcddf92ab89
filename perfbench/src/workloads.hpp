// The benchmark workloads and the per-layer metric set they share.
//
// Every workload runs in one of two modes. Untraced (--trace 0) measures the
// end-to-end metrics: ops_per_s as the median rate over timed windows that
// add up to about --seconds, leaving out windows the hypervisor disturbed
// (see Windows in report.hpp), setup_s as the median of set-ups timed
// throughout the run, peak_rss_mb. Traced
// (--trace 1) spends half the time untraced and half with the program's own
// tracers on, times the layer probes, and reports every per-layer metric —
// the same names on every workload, 0 for a count whose layer the workload
// never reaches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test size: a fraction of the work, same checks.
  bool tiny = false;
  /// Scratch directory for sockets, probe files and span files.
  std::string work_dir = ".bench_build/work";
};

RunReport run_cluster_uds(const Options& options, SpanLog& spans);
RunReport run_sim_mixed(const Options& options, SpanLog& spans);

/// Counts a traced run observed, each as a total over the traced window.
/// Every `*_per_op` metric divides by `ops`; a layer the workload never
/// reaches leaves its counts at 0.
struct LayerCounts {
  double ops = 0;
  double frames = 0;
  double frame_bytes = 0;
  double agent_transfers = 0;
  double transport_retries = 0;
  double migrations = 0;
  double migration_bytes = 0;
  double updates_committed = 0;
  double update_attempts = 0;
  double retransmits = 0;
  double reselections = 0;
  double messages = 0;
  double alt_ms_virtual = 0;
  double att_ms_virtual = 0;
  std::vector<double> session_ms;
  std::vector<double> lock_wait_ms;
  std::vector<double> migration_ms;
};

/// Input sizes the timed layer probes run at, taken from the workload.
struct ProbeShape {
  std::size_t frame_body_bytes = 256;
  std::size_t agent_bytes = 512;
  std::size_t store_keys = 1024;
  std::string scratch_dir;
};

/// Runs the timed layer probes and sets every per-layer metric on `report`.
/// `overhead_pct` is traced versus untraced ops_per_s of the same run.
void add_layer_metrics(const LayerCounts& counts, const ProbeShape& shape,
                       double overhead_pct, SpanLog& spans, RunReport& report);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
