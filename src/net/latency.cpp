#include "net/latency.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace marp::net {

sim::SimTime UniformLatency::sample(NodeId, NodeId, std::size_t, sim::Rng& rng) const {
  const double us = rng.uniform(static_cast<double>(lo_.as_micros()),
                                static_cast<double>(hi_.as_micros()));
  return sim::SimTime::micros(static_cast<std::int64_t>(us));
}

LanLatency::LanLatency(DelayMatrix base, double jitter_mean_us, double bytes_per_us)
    : base_(std::move(base)), jitter_mean_us_(jitter_mean_us), bytes_per_us_(bytes_per_us) {
  MARP_REQUIRE(bytes_per_us_ > 0.0);
}

sim::SimTime LanLatency::sample(NodeId src, NodeId dst, std::size_t bytes,
                                sim::Rng& rng) const {
  double us = static_cast<double>(base_.at(src, dst));
  us += rng.exponential(jitter_mean_us_);
  us += static_cast<double>(bytes) / bytes_per_us_;
  return sim::SimTime::micros(static_cast<std::int64_t>(us));
}

WanLatency::WanLatency(DelayMatrix base, Params params)
    : base_(std::move(base)), params_(params) {
  MARP_REQUIRE(params_.bytes_per_us > 0.0);
  MARP_REQUIRE(params_.jitter_alpha > 1.0);  // finite mean
}

sim::SimTime WanLatency::sample(NodeId src, NodeId dst, std::size_t bytes,
                                sim::Rng& rng) const {
  double us = static_cast<double>(base_.at(src, dst));
  // Pareto minus its scale so the base delay is the floor, jitter the excess.
  us += rng.pareto(params_.jitter_alpha, params_.jitter_scale_us) - params_.jitter_scale_us;
  us += static_cast<double>(bytes) / params_.bytes_per_us;
  if (rng.bernoulli(params_.spike_probability)) {
    us += rng.exponential(params_.spike_mean_us);
  }
  return sim::SimTime::micros(static_cast<std::int64_t>(us));
}

namespace {

constexpr std::size_t kMaxDrawTally = 65536;

std::int64_t median_of(std::vector<std::int64_t> v) {
  if (v.empty()) return -1;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// LinkReport::below_share as draw() samples `q`: a segment starting below
/// the target q[size/2] ends at or below it (the table ascends), and a draw
/// clamped up to 1 us is never below a target of 1 us or less.
double share_below_target(const std::vector<std::int64_t>& q) {
  if (q.size() < 2 || q[q.size() / 2] <= 1) return 0.0;
  const std::int64_t target = q[q.size() / 2];
  std::size_t below = 0;
  for (std::size_t i = 0; i + 1 < q.size(); ++i) {
    if (q[i] < target) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(q.size() - 1);
}

}  // namespace

std::int64_t CalibrationTable::median_us(NodeId src, NodeId dst) const noexcept {
  for (const LinkCalibration& link : links) {
    if (link.src == src && link.dst == dst && !link.quantiles_us.empty()) {
      return link.quantiles_us[link.quantiles_us.size() / 2];
    }
  }
  return -1;
}

CalibratedLatency::CalibratedLatency(CalibrationTable table, sim::SimTime fallback)
    : table_(std::move(table)) {
  links_.resize(table_.links.size());
  std::vector<std::int64_t> medians;
  for (std::size_t i = 0; i < table_.links.size(); ++i) {
    links_[i].quantiles_us = table_.links[i].quantiles_us;
    if (!links_[i].quantiles_us.empty()) {
      medians.push_back(links_[i].quantiles_us[links_[i].quantiles_us.size() / 2]);
    }
  }
  const std::int64_t fb =
      medians.empty() ? fallback.as_micros() : median_of(std::move(medians));
  fallback_.quantiles_us = {fb, fb};
}

const CalibratedLatency::Link* CalibratedLatency::find(NodeId src,
                                                       NodeId dst) const noexcept {
  for (std::size_t i = 0; i < table_.links.size(); ++i) {
    if (table_.links[i].src == src && table_.links[i].dst == dst &&
        !links_[i].quantiles_us.empty()) {
      return &links_[i];
    }
  }
  return nullptr;
}

std::int64_t CalibratedLatency::draw(const Link& link, sim::Rng& rng) const {
  const std::vector<std::int64_t>& q = link.quantiles_us;
  std::int64_t us;
  if (q.size() == 1) {
    us = q[0];
  } else {
    const double u = rng.uniform(0.0, 1.0) * static_cast<double>(q.size() - 1);
    const std::size_t lo = std::min<std::size_t>(static_cast<std::size_t>(u), q.size() - 2);
    const double frac = u - static_cast<double>(lo);
    us = static_cast<std::int64_t>(static_cast<double>(q[lo]) +
                                   frac * static_cast<double>(q[lo + 1] - q[lo]));
  }
  us = std::max<std::int64_t>(us, 1);
  if (link.drawn_us.size() < kMaxDrawTally) link.drawn_us.push_back(us);
  return us;
}

sim::SimTime CalibratedLatency::sample(NodeId src, NodeId dst, std::size_t bytes,
                                       sim::Rng& rng) const {
  (void)bytes;  // serialization time is already inside the measured delays
  const Link* link = find(src, dst);
  return sim::SimTime::micros(draw(link != nullptr ? *link : fallback_, rng));
}

std::vector<CalibratedLatency::LinkReport> CalibratedLatency::report() const {
  std::vector<LinkReport> out;
  for (std::size_t i = 0; i < table_.links.size(); ++i) {
    if (links_[i].quantiles_us.empty()) continue;
    LinkReport r;
    r.src = table_.links[i].src;
    r.dst = table_.links[i].dst;
    r.samples = links_[i].drawn_us.size();
    r.target_p50_us = links_[i].quantiles_us[links_[i].quantiles_us.size() / 2];
    r.sampled_p50_us = median_of(links_[i].drawn_us);
    for (const std::int64_t us : links_[i].drawn_us) {
      if (us < r.target_p50_us) ++r.below_target;
    }
    r.below_share = share_below_target(links_[i].quantiles_us);
    out.push_back(r);
  }
  return out;
}

bool calibration_closed(const CalibratedLatency::LinkReport& link) {
  const double target = static_cast<double>(link.target_p50_us);
  const double abs_err = std::abs(static_cast<double>(link.sampled_p50_us) - target);
  if (target == 0 || 10.0 * abs_err <= target) return true;  // the 10% band
  if (target < 100 && abs_err <= 10) return true;             // the 10 us band
  const double n = static_cast<double>(link.samples);
  const double p = link.below_share;
  return std::abs(static_cast<double>(link.below_target) - n * p) <=
         3.0 * std::sqrt(n * p * (1.0 - p));
}

}  // namespace marp::net
