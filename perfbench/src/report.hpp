// Shared plumbing for the benchmark program: clocks, robust statistics, the
// run report every workload fills in, and the benchmark-side span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point from);

/// CPU time the hypervisor gave to other guests while one of this machine's
/// CPUs wanted to run, summed over all CPUs, since boot (the "steal" column
/// of /proc/stat; 0 where it is not reported). On a shared host it is the
/// part of a slow stretch that no code change can explain.
double steal_seconds();

/// The timed windows of one phase of a run. A window the hypervisor
/// disturbed, stealing more than kDisturbedStealShare of all CPU time, is
/// kept out of the rate, and the phase runs on (at most kMaxExtraShare ×
/// budget longer) to replace it: on the shared host the benchmark was tuned
/// on, a cluster window with 10% steal took half as long again as its
/// neighbours, and whole runs slowed threefold while steal stayed high.
/// With fewer than kMinKept undisturbed windows, the rate comes from the
/// kMinKept least disturbed ones.
class Windows {
 public:
  static constexpr double kDisturbedStealShare = 0.05;
  static constexpr double kMaxExtraShare = 0.5;
  /// Fewest windows the rate is taken from.
  static constexpr std::size_t kMinKept = 3;

  explicit Windows(double budget_s) : budget_s_(budget_s) {}

  /// Records a window of `seconds` that completed `ops` while `steal_s` of
  /// steal_seconds() passed; returns its steal share of all CPU time.
  double add(double seconds, double ops, double steal_s);
  /// True until the undisturbed windows add up to the budget, or all
  /// windows to the budget plus the allowed extension.
  bool want_more() const;
  /// Median ops per second over the undisturbed windows.
  double rate() const;

 private:
  struct Window {
    double seconds;
    double ops;
    double steal_share;
  };
  double budget_s_;
  double kept_s_ = 0;
  double total_s_ = 0;
  std::vector<Window> windows_;
};

/// Median of `values` (0 for an empty list).
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 100] (0 for an empty list).
double percentile(std::vector<double> values, double q);

/// Keeps a computed value alive so the optimiser cannot delete the work
/// that produced it (the same trick google-benchmark's DoNotOptimize uses).
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Per-call cost of `fn` in nanoseconds: `batches` timed batches of `calls`
/// calls each, median batch. A preemption landing in one batch moves the
/// median far less than it would move a mean over one long loop.
template <typename Fn>
double ns_per_call(Fn&& fn, int calls, int batches = 15) {
  fn();  // first call pays cold caches and lazy allocation
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / calls);
  }
  return median(std::move(per_call));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation produced. Any recorded problem makes the
/// run incorrect, and an incorrect run reports no numbers.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  bool correct() const noexcept { return problems.empty(); }
  void set(const std::string& name, double value, const std::string& unit);
};

/// Benchmark-side spans around every call the benchmark makes into a layer.
/// Spans nest by scope (single benchmark thread); a span's self time is its
/// duration minus the time its direct children cover. Disabled logs record
/// nothing — the untraced runs pay one branch per scope.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  bool enabled() const noexcept { return enabled_; }

  /// Chrome trace-event JSON (complete "X" events on one track), loadable in
  /// Perfetto or chrome://tracing. Returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;
  /// One line per span name: count, total and self milliseconds.
  void print_summary(std::ostream& os) const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
