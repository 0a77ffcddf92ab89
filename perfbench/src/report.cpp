#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>

namespace perfbench {

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double steal_seconds() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Windows::add(double seconds, double ops, double steal_s) {
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const double share = steal_s / (seconds * cpus);
  windows_.push_back({seconds, ops, share});
  total_s_ += seconds;
  if (share <= kDisturbedStealShare) kept_s_ += seconds;
  return share;
}

bool Windows::want_more() const {
  return kept_s_ < budget_s_ && total_s_ < budget_s_ * (1.0 + kMaxExtraShare);
}

double Windows::rate() const {
  std::vector<Window> by_steal = windows_;
  std::stable_sort(by_steal.begin(), by_steal.end(), [](const Window& a, const Window& b) {
    return a.steal_share < b.steal_share;
  });
  std::vector<double> rates;
  for (const Window& w : by_steal) {
    if (w.steal_share > kDisturbedStealShare && rates.size() >= kMinKept) break;
    rates.push_back(w.ops / w.seconds);
  }
  return median(std::move(rates));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

void RunReport::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  index_ = log_->records_.size();
  const std::int64_t parent =
      log_->open_.empty() ? -1 : static_cast<std::int64_t>(log_->open_.back());
  log_->records_.push_back({name, log_->now_ns(), -1, parent});
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->records_[index_].end_ns = log_->now_ns();
  log_->open_.pop_back();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i) out << ",";
    out << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << std::fixed << std::setprecision(3)
        << static_cast<double>(r.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1000.0 << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void SpanLog::print_summary(std::ostream& os) const {
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Totals& t = by_name[r.name];
    ++t.count;
    t.total_ns += r.end_ns - r.start_ns;
    t.self_ns += r.end_ns - r.start_ns - child_ns[i];
  }
  for (const auto& [name, t] : by_name) {
    os << "span " << std::left << std::setw(28) << name << std::right
       << " count " << std::setw(7) << t.count << "  total_ms " << std::fixed
       << std::setprecision(3) << std::setw(10) << static_cast<double>(t.total_ns) / 1e6
       << "  self_ms " << std::setw(10) << static_cast<double>(t.self_ns) / 1e6 << "\n";
  }
}

}  // namespace perfbench
