// Metrics and workload tests: Welford statistics, percentiles, histograms,
// table rendering, the request generator and its arrival processes
// (Poisson / Uniform / Bursty), and the ALT/ATT/PRK computations of §4.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "metrics/report.hpp"
#include "metrics/stats.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace marp {
namespace {

using namespace marp::sim::literals;

TEST(Running, MeanVarianceMinMax) {
  metrics::Running stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_GT(stats.ci95_half_width(), 0.0);
}

TEST(Running, EmptyIsZero) {
  metrics::Running stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sem(), 0.0);
}

TEST(Running, MergeMatchesSequential) {
  metrics::Running all, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(Samples, ExactPercentiles) {
  metrics::Samples samples;
  for (int i = 1; i <= 100; ++i) samples.add(i);
  EXPECT_DOUBLE_EQ(samples.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(samples.percentile(100), 100.0);
  EXPECT_NEAR(samples.percentile(50), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(samples.min(), 1.0);
  EXPECT_DOUBLE_EQ(samples.max(), 100.0);
  EXPECT_DOUBLE_EQ(samples.mean(), 50.5);
}

// Property: merging any split of a sample stream must agree with feeding
// the whole stream to one accumulator — count, mean, variance, min, max —
// regardless of where the split falls (including empty halves).
TEST(Running, MergeOfAnySplitMatchesOneShot) {
  std::vector<double> data;
  for (int i = 0; i < 101; ++i) {
    data.push_back(std::sin(i * 0.7) * 50.0 + (i % 7) - 3.0);
  }
  metrics::Running one_shot;
  for (double x : data) one_shot.add(x);

  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                            data.size() / 2, data.size() - 1, data.size()}) {
    metrics::Running left, right;
    for (std::size_t i = 0; i < data.size(); ++i) {
      (i < split ? left : right).add(data[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), one_shot.count()) << "split at " << split;
    EXPECT_NEAR(left.mean(), one_shot.mean(), 1e-9) << "split at " << split;
    EXPECT_NEAR(left.variance(), one_shot.variance(), 1e-9)
        << "split at " << split;
    EXPECT_DOUBLE_EQ(left.min(), one_shot.min()) << "split at " << split;
    EXPECT_DOUBLE_EQ(left.max(), one_shot.max()) << "split at " << split;
  }
}

TEST(Running, MergeWithEmptyIsIdentityBothWays) {
  metrics::Running stats, empty;
  for (double x : {3.0, -1.0, 8.5}) stats.add(x);
  const double mean = stats.mean(), variance = stats.variance();

  stats.merge(empty);  // right identity
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_DOUBLE_EQ(stats.variance(), variance);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.5);

  empty.merge(stats);  // left identity
  EXPECT_EQ(empty.count(), 3u);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
  EXPECT_DOUBLE_EQ(empty.variance(), variance);
  EXPECT_DOUBLE_EQ(empty.min(), -1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 8.5);
}

TEST(Samples, SingleElementEveryPercentileIsThatElement) {
  metrics::Samples samples;
  samples.add(42.0);
  for (double p : {0.0, 25.0, 50.0, 75.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(samples.percentile(p), 42.0) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(samples.min(), 42.0);
  EXPECT_DOUBLE_EQ(samples.max(), 42.0);
  EXPECT_DOUBLE_EQ(samples.mean(), 42.0);
}

TEST(Samples, ExtremePercentilesEqualMinAndMax) {
  metrics::Samples samples;
  for (double x : {9.0, -3.0, 4.0, 4.0, 100.0, 0.5}) samples.add(x);
  EXPECT_DOUBLE_EQ(samples.percentile(0), samples.min());
  EXPECT_DOUBLE_EQ(samples.percentile(100), samples.max());
  // p50 of {−3, 0.5, 4, 4, 9, 100} interpolates between the middle pair.
  EXPECT_DOUBLE_EQ(samples.percentile(50), 4.0);
}

TEST(Table, RendersAlignedAndCsv) {
  metrics::Table table({"name", "value"});
  table.add_row({"alpha", metrics::Table::num(1.5, 1)});
  table.add_row({"b", "22"});
  std::ostringstream pretty;
  table.print(pretty);
  const std::string out = pretty.str();
  EXPECT_NE(out.find("| alpha | 1.5   |"), std::string::npos);
  EXPECT_NE(out.find("+-------+-------+"), std::string::npos);

  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.5\nb,22\n");
}

TEST(Table, RowArityEnforced) {
  metrics::Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
}

TEST(WithCi, Formats) { EXPECT_EQ(metrics::with_ci(12.345, 0.5, 1), "12.3 ± 0.5"); }

TEST(Generator, PoissonArrivalsMatchConfiguredRate) {
  sim::Simulator simulator(9);
  workload::WorkloadConfig config;
  config.mean_interarrival_ms = 10.0;
  config.duration = 100_s;
  std::uint64_t count = 0;
  workload::RequestGenerator generator(simulator, 1, config,
                                       [&](const replica::Request&) { ++count; });
  generator.start();
  simulator.run();
  // Expect ~10000 arrivals over 100s at 10ms mean: within 5%.
  EXPECT_NEAR(static_cast<double>(count), 10000.0, 500.0);
  EXPECT_EQ(generator.generated(), count);
}

// ---------- arrival processes ----------

double mean_gap_ms(workload::ArrivalProcess process, std::uint64_t seed,
                   std::vector<double>* gaps_out = nullptr) {
  sim::Simulator simulator(seed);
  workload::WorkloadConfig config;
  config.arrivals = process;
  config.mean_interarrival_ms = 20.0;
  config.duration = sim::SimTime::seconds(400);
  std::vector<double> arrivals;
  workload::RequestGenerator generator(
      simulator, 1, config, [&](const replica::Request& request) {
        arrivals.push_back(request.submitted.as_millis());
      });
  generator.start();
  simulator.run();
  double sum = 0.0;
  std::vector<double> gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(arrivals[i] - arrivals[i - 1]);
    sum += gaps.back();
  }
  if (gaps_out) *gaps_out = gaps;
  return sum / static_cast<double>(gaps.size());
}

class ArrivalProcesses
    : public ::testing::TestWithParam<workload::ArrivalProcess> {};

TEST_P(ArrivalProcesses, LongRunMeanMatchesConfiguredRate) {
  const double mean = mean_gap_ms(GetParam(), 31);
  EXPECT_NEAR(mean, 20.0, 1.5);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ArrivalProcesses,
                         ::testing::Values(workload::ArrivalProcess::Poisson,
                                           workload::ArrivalProcess::Uniform,
                                           workload::ArrivalProcess::Bursty),
                         [](const auto& info) {
                           switch (info.param) {
                             case workload::ArrivalProcess::Poisson: return "Poisson";
                             case workload::ArrivalProcess::Uniform: return "Uniform";
                             case workload::ArrivalProcess::Bursty: return "Bursty";
                           }
                           return "?";
                         });

TEST(ArrivalProcessShape, BurstyHasHigherVarianceThanUniform) {
  auto variance_of = [](workload::ArrivalProcess process) {
    std::vector<double> gaps;
    const double mean = mean_gap_ms(process, 32, &gaps);
    double var = 0.0;
    for (double gap : gaps) var += (gap - mean) * (gap - mean);
    return var / static_cast<double>(gaps.size());
  };
  const double uniform = variance_of(workload::ArrivalProcess::Uniform);
  const double poisson = variance_of(workload::ArrivalProcess::Poisson);
  const double bursty = variance_of(workload::ArrivalProcess::Bursty);
  EXPECT_LT(uniform, poisson);
  EXPECT_LT(poisson, bursty);
}

TEST(ArrivalProcessShape, BurstyProducesTightClusters) {
  std::vector<double> gaps;
  mean_gap_ms(workload::ArrivalProcess::Bursty, 33, &gaps);
  // With burst_size 8 and intra-gap mean/10, roughly 7/8 of gaps are short.
  std::size_t short_gaps = 0;
  for (double gap : gaps) {
    if (gap < 10.0) ++short_gaps;  // < half the 20ms mean
  }
  const double fraction =
      static_cast<double>(short_gaps) / static_cast<double>(gaps.size());
  EXPECT_GT(fraction, 0.7);
}

TEST(Generator, WriteFractionIsRespected) {
  sim::Simulator simulator(10);
  workload::WorkloadConfig config;
  config.mean_interarrival_ms = 5.0;
  config.duration = 50_s;
  config.write_fraction = 0.25;
  std::uint64_t reads = 0, writes = 0;
  workload::RequestGenerator generator(
      simulator, 2, config, [&](const replica::Request& request) {
        (request.kind == replica::RequestKind::Write ? writes : reads) += 1;
      });
  generator.start();
  simulator.run();
  const double fraction =
      static_cast<double>(writes) / static_cast<double>(writes + reads);
  EXPECT_NEAR(fraction, 0.25, 0.02);
  EXPECT_EQ(generator.generated_writes(), writes);
  EXPECT_EQ(generator.generated_reads(), reads);
}

TEST(Generator, MaxRequestsCapHolds) {
  sim::Simulator simulator(11);
  workload::WorkloadConfig config;
  config.mean_interarrival_ms = 1.0;
  config.duration = 100_s;
  config.max_requests_per_server = 5;
  std::uint64_t count = 0;
  workload::RequestGenerator generator(simulator, 3, config,
                                       [&](const replica::Request&) { ++count; });
  generator.start();
  simulator.run();
  EXPECT_EQ(count, 15u);
}

TEST(Generator, ValuePaddingAndKeys) {
  sim::Simulator simulator(12);
  workload::WorkloadConfig config;
  config.mean_interarrival_ms = 10.0;
  config.duration = 1_s;
  config.value_bytes = 128;
  config.num_keys = 4;
  bool checked = false;
  workload::RequestGenerator generator(
      simulator, 1, config, [&](const replica::Request& request) {
        EXPECT_GE(request.value.size(), 128u);
        EXPECT_EQ(request.key.rfind("item-", 0), 0u);
        checked = true;
      });
  generator.start();
  simulator.run();
  EXPECT_TRUE(checked);
}

replica::Outcome write_outcome(std::uint64_t id, double dispatch_ms,
                               double lock_ms, double done_ms,
                               std::uint32_t visits, bool success = true) {
  replica::Outcome outcome;
  outcome.request_id = id;
  outcome.kind = replica::RequestKind::Write;
  outcome.success = success;
  outcome.submitted = sim::SimTime::millis(dispatch_ms);
  outcome.dispatched = sim::SimTime::millis(dispatch_ms);
  outcome.lock_obtained = sim::SimTime::millis(lock_ms);
  outcome.completed = sim::SimTime::millis(done_ms);
  outcome.servers_visited = visits;
  return outcome;
}

TEST(TraceCollector, AltAttAndPrk) {
  workload::TraceCollector trace;
  trace.record(write_outcome(1, 0, 10, 14, 3));
  trace.record(write_outcome(2, 0, 20, 26, 3));
  trace.record(write_outcome(3, 0, 30, 38, 5));
  trace.record(write_outcome(4, 0, 99, 99, 5, /*success=*/false));

  EXPECT_EQ(trace.successful_writes(), 3u);
  EXPECT_EQ(trace.failed_writes(), 1u);
  EXPECT_DOUBLE_EQ(trace.average_lock_time_ms(), 20.0);
  EXPECT_DOUBLE_EQ(trace.average_total_time_ms(), 26.0);

  const auto prk = trace.prk();
  EXPECT_NEAR(prk.at(3), 200.0 / 3.0, 1e-9);
  EXPECT_NEAR(prk.at(5), 100.0 / 3.0, 1e-9);
  double total = 0.0;
  for (const auto& [k, pct] : prk) total += pct;
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(TraceCollector, PercentileAndClear) {
  workload::TraceCollector trace;
  for (int i = 1; i <= 10; ++i) {
    trace.record(write_outcome(i, 0, i, 2 * i, 3));
  }
  EXPECT_NEAR(trace.total_time_percentile_ms(50), 11.0, 1e-9);
  trace.clear();
  EXPECT_EQ(trace.completed(), 0u);
  EXPECT_DOUBLE_EQ(trace.average_total_time_ms(), 0.0);
}

}  // namespace
}  // namespace marp
