// Link latency models.
//
// The paper evaluates on a workstation LAN and argues results would degrade
// on the Internet; we make both regimes pluggable. A sample combines a
// per-pair propagation base (from the topology), random jitter, a
// bandwidth-proportional serialization term, and (for the WAN model)
// occasional transient spikes standing in for the "frequent short transient
// failures" of Golding's Internet characterization cited by the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace marp::net {

/// Per-pair propagation delays in microseconds (row = src, col = dst).
class DelayMatrix {
 public:
  DelayMatrix() = default;
  DelayMatrix(std::size_t n, std::int64_t fill_us) : n_(n), us_(n * n, fill_us) {}

  std::size_t size() const noexcept { return n_; }
  std::int64_t at(NodeId src, NodeId dst) const { return us_.at(index(src, dst)); }
  void set(NodeId src, NodeId dst, std::int64_t us) { us_.at(index(src, dst)) = us; }

 private:
  std::size_t index(NodeId src, NodeId dst) const { return static_cast<std::size_t>(src) * n_ + dst; }
  std::size_t n_ = 0;
  std::vector<std::int64_t> us_;
};

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One-way delay for `bytes` from `src` to `dst`.
  virtual sim::SimTime sample(NodeId src, NodeId dst, std::size_t bytes,
                              sim::Rng& rng) const = 0;
};

/// Fixed delay regardless of pair and size (unit tests, analytic checks).
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(sim::SimTime delay) : delay_(delay) {}
  sim::SimTime sample(NodeId, NodeId, std::size_t, sim::Rng&) const override {
    return delay_;
  }

 private:
  sim::SimTime delay_;
};

/// Uniform in [lo, hi], size-independent.
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(sim::SimTime lo, sim::SimTime hi) : lo_(lo), hi_(hi) {}
  sim::SimTime sample(NodeId, NodeId, std::size_t, sim::Rng& rng) const override;

 private:
  sim::SimTime lo_;
  sim::SimTime hi_;
};

/// LAN: per-pair base + exponential jitter + bandwidth term.
class LanLatency final : public LatencyModel {
 public:
  LanLatency(DelayMatrix base, double jitter_mean_us, double bytes_per_us);
  sim::SimTime sample(NodeId src, NodeId dst, std::size_t bytes,
                      sim::Rng& rng) const override;

 private:
  DelayMatrix base_;
  double jitter_mean_us_;
  double bytes_per_us_;
};

/// WAN: per-pair base + Pareto jitter (heavy tail) + bandwidth term +
/// Bernoulli transient spike adding a large extra delay.
class WanLatency final : public LatencyModel {
 public:
  struct Params {
    double jitter_alpha = 2.5;      ///< Pareto shape (smaller = heavier tail)
    double jitter_scale_us = 2000;  ///< Pareto scale (minimum jitter)
    double bytes_per_us = 1.25;     ///< ~10 Mbit/s effective path bandwidth
    double spike_probability = 0.01;
    double spike_mean_us = 250'000;  ///< short transient outage, exp-distributed
  };

  WanLatency(DelayMatrix base, Params params);
  sim::SimTime sample(NodeId src, NodeId dst, std::size_t bytes,
                      sim::Rng& rng) const override;

 private:
  DelayMatrix base_;
  Params params_;
};

/// One directed link's empirical delay distribution, measured off a real
/// cluster run (TraceDump link samples, clock-aligned by the merge step).
/// `quantiles_us` is an inverse-CDF table: evenly spaced quantiles of the
/// aligned one-way delays from the 0th to the 100th percentile, ascending.
struct LinkCalibration {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint64_t count = 0;  ///< samples behind the table
  std::vector<std::int64_t> quantiles_us;
};

/// The whole measured mesh — what a calibration file deserializes to.
/// (JSON I/O lives in trace/merge; this layer stays dependency-free.)
struct CalibrationTable {
  std::vector<LinkCalibration> links;
  bool empty() const noexcept { return links.empty(); }
  /// Median (p50) of a link's table; -1 when the link is absent.
  std::int64_t median_us(NodeId src, NodeId dst) const noexcept;
};

/// Replays a measured per-link delay distribution by inverse-CDF sampling:
/// draw u ~ U[0,1), interpolate linearly between the two nearest quantile
/// table entries. Pairs without a measured link fall back to the median of
/// all measured links (or `fallback` when the table is empty) — a sim can
/// run wider than the cluster that was measured.
class CalibratedLatency final : public LatencyModel {
 public:
  explicit CalibratedLatency(CalibrationTable table,
                             sim::SimTime fallback = sim::SimTime::millis(2));
  sim::SimTime sample(NodeId src, NodeId dst, std::size_t bytes,
                      sim::Rng& rng) const override;

  /// Feedback-loop report: per measured link, the table's median vs the
  /// median of what sample() actually produced this run. This is the 10%
  /// closure check — the sim reproducing the wire it was calibrated from.
  struct LinkReport {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint64_t samples = 0;        ///< draws this run
    std::int64_t target_p50_us = 0;   ///< median of the calibration table
    std::int64_t sampled_p50_us = 0;  ///< median of this run's draws
    /// Draws strictly below the target median. If the model reproduces the
    /// table, this is Binomial(samples, below_share) — the check the
    /// closure gate falls back on where the quantile ramp around the median
    /// is too steep for a point comparison at this sample size.
    std::uint64_t below_target = 0;
    /// Probability that one draw lands below the target: #{i : q[i] <
    /// target} / (size − 1), since a draw picks one of the size − 1
    /// interpolation segments uniformly. Above 1/2 for an even size, and
    /// moved by any plateau or step at the target.
    double below_share = 0.0;
  };
  std::vector<LinkReport> report() const;

 private:
  struct Link {
    std::vector<std::int64_t> quantiles_us;
    /// Draws this run, bounded; mutated from const sample() — the simulator
    /// is single-threaded, and the tally never affects sampling.
    mutable std::vector<std::int64_t> drawn_us;
  };
  const Link* find(NodeId src, NodeId dst) const noexcept;
  std::int64_t draw(const Link& link, sim::Rng& rng) const;

  CalibrationTable table_;
  std::vector<Link> links_;  ///< parallel to table_.links
  std::vector<std::int64_t> fallback_quantiles_;
  Link fallback_;
};

/// The closure gate for one measured link (marp_sim --calibration-check):
/// the sampled median within 10% of the target, or within 10 us of a
/// sub-100 us target (microsecond tables step by more than 10%), or else
/// the draws below the target within 3 sigma of Binomial(samples,
/// below_share) — a test a shifted model fails more surely as n grows.
bool calibration_closed(const CalibratedLatency::LinkReport& link);

}  // namespace marp::net
