// perfbench — the repository benchmark program.
//
//   perfbench --workload cluster-uds|sim-mixed
//             --seed N --seconds S --trace 0|1 [--work-dir DIR] [--tiny]
//   perfbench --selftest
//
// Prints a host-context line, then (traced runs) the benchmark-side span
// summary, and as its last line one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// A run that fails a correctness check prints its problems to stderr and
// reports correct=false with no metrics, and exits 1. perfbench/run.py
// builds this binary and is the entry point to use.
#include <sys/types.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: perfbench --workload cluster-uds|sim-mixed\n"
         "                 --seed N --seconds S --trace 0|1 [--work-dir DIR] [--tiny]\n"
         "       perfbench --selftest\n";
  std::exit(code);
}

std::string json_escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// Steal share of all CPU time above which a run's timings are flagged.
constexpr double kStealFlagPct = 5.0;

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

/// Host context recorded with every report: where, on what, built how.
void print_host(const Options& o, long nproc, double load_start, double load_end,
                double steal_pct) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::ostringstream flags;
  if (load_start > static_cast<double>(nproc)) {
    flags << "load " << load_start << " above nproc " << nproc << " at start;";
  }
  if (steal_pct > kStealFlagPct) {
    flags << "hypervisor stole " << steal_pct << "% of CPU time;";
  }
  std::cout << "host {\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
            << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"nproc\": " << nproc << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(__VERSION__)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(commit ? commit : "unknown")
            << "\", \"load_start\": " << load_start << ", \"load_end\": " << load_end
            << ", \"steal_pct\": " << steal_pct
            << ", \"flags\": \"" << json_escape(flags.str()) << "\"}\n";
}

void print_result(const RunReport& report) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (report.correct() ? "true" : "false")
     << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
     << ", \"metrics\": {";
  if (report.correct()) {
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Metric& m = report.metrics[i];
      if (i) os << ", ";
      os << "\"" << m.name << "\": {\"value\": " << m.value << ", \"unit\": \"" << m.unit
         << "\"}";
    }
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool selftest = false;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--help" || flag == "-h") usage(0);
      else if (flag == "--workload") o.workload = value(i);
      else if (flag == "--seed") o.seed = std::stoull(value(i));
      else if (flag == "--seconds") o.seconds = std::stod(value(i));
      else if (flag == "--trace") o.trace = value(i) != "0";
      else if (flag == "--work-dir") o.work_dir = value(i);
      else if (flag == "--tiny") o.tiny = true;
      else if (flag == "--selftest") selftest = true;
      else usage(2);
    }
  } catch (const std::exception&) {
    usage(2);
  }

  if (selftest) {
    const int bad = run_selftest(std::cout);
    std::cout << "selftest: " << (bad == 0 ? "all cases behaved" : "FAILED") << "\n";
    return bad == 0 ? 0 : 1;
  }
  if (o.workload.empty() || !(o.seconds > 0)) usage(2);
  if (!release_build()) {
    std::cerr << "perfbench: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; timings need Release\n";
    return 2;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double load_start = load_average();
  const auto t_start = Clock::now();
  const double steal_start = steal_seconds();
  std::filesystem::create_directories(o.work_dir);
  SpanLog spans(o.trace);
  RunReport report;
  if (o.workload == "cluster-uds") report = run_cluster_uds(o, spans);
  else if (o.workload == "sim-mixed") report = run_sim_mixed(o, spans);
  else usage(2);
  const double load_end = load_average();
  const double steal_pct = 100.0 * (steal_seconds() - steal_start) /
                           (seconds_since(t_start) * static_cast<double>(nproc));

  print_host(o, nproc, load_start, load_end, steal_pct);
  if (load_start > static_cast<double>(nproc)) {
    std::cerr << "perfbench: warning: load average " << load_start << " exceeds nproc "
              << nproc << " at start; timings are suspect\n";
  }
  if (spans.enabled()) {
    spans.print_summary(std::cout);
    const std::string path = o.work_dir + "/spans-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (spans.write_chrome_json(path)) std::cout << "spans written to " << path << "\n";
  }
  for (const std::string& p : report.problems) std::cerr << "CHECK FAILED: " << p << "\n";
  print_result(report);
  return report.correct() ? 0 : 1;
}
