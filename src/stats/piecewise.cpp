#include "stats/piecewise.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace raidrel::stats {

PiecewiseConstantHazard::PiecewiseConstantHazard(
    std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  RAIDREL_REQUIRE(!segments_.empty(), "need at least one segment");
  RAIDREL_REQUIRE(segments_.front().start == 0.0,
                  "first segment must start at 0");
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    RAIDREL_REQUIRE(segments_[i].rate >= 0.0, "rates must be >= 0");
    if (i > 0) {
      RAIDREL_REQUIRE(segments_[i].start > segments_[i - 1].start,
                      "segment starts must be strictly increasing");
    }
  }
  RAIDREL_REQUIRE(segments_.back().rate > 0.0,
                  "final (open-ended) rate must be positive");
  cum_at_start_.resize(segments_.size());
  cum_at_start_[0] = 0.0;
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    cum_at_start_[i] =
        cum_at_start_[i - 1] +
        segments_[i - 1].rate * (segments_[i].start - segments_[i - 1].start);
  }
}

double PiecewiseConstantHazard::hazard(double t) const {
  if (t < 0.0) return 0.0;
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double v, const Segment& s) { return v < s.start; });
  return std::prev(it)->rate;
}

double PiecewiseConstantHazard::cum_hazard(double t) const {
  if (t <= 0.0) return 0.0;
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double v, const Segment& s) { return v < s.start; });
  const auto idx = static_cast<std::size_t>(std::prev(it) - segments_.begin());
  return cum_at_start_[idx] + segments_[idx].rate * (t - segments_[idx].start);
}

double PiecewiseConstantHazard::survival(double t) const {
  return std::exp(-cum_hazard(t));
}

double PiecewiseConstantHazard::cdf(double t) const {
  return -std::expm1(-cum_hazard(t));
}

double PiecewiseConstantHazard::pdf(double t) const {
  if (t < 0.0) return 0.0;
  return hazard(t) * survival(t);
}

double PiecewiseConstantHazard::inverse_cum_hazard(double h) const {
  RAIDREL_REQUIRE(h >= 0.0, "cumulative hazard must be >= 0");
  if (h == 0.0) {
    // Smallest t with H(t) >= 0: skip leading zero-rate segments.
    return 0.0;
  }
  // Find the segment whose cumulative-hazard range contains h.
  auto it = std::upper_bound(cum_at_start_.begin(), cum_at_start_.end(), h);
  const auto idx =
      static_cast<std::size_t>(std::prev(it) - cum_at_start_.begin());
  // Within a zero-rate segment H is flat and cannot reach a larger h; the
  // upper_bound above already lands us on the segment where H crosses h
  // (zero-rate segments have the same cum_at_start_ as their successor
  // start, so h falls into the next segment instead).
  const Segment& seg = segments_[idx];
  RAIDREL_ASSERT(seg.rate > 0.0 || h == cum_at_start_[idx],
                 "inverse hazard landed in a flat segment");
  if (seg.rate == 0.0) return seg.start;
  return seg.start + (h - cum_at_start_[idx]) / seg.rate;
}

double PiecewiseConstantHazard::quantile(double p) const {
  RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "quantile requires p in [0,1)");
  if (p == 0.0) return inverse_cum_hazard(0.0);
  return inverse_cum_hazard(-std::log1p(-p));
}

double PiecewiseConstantHazard::sample(rng::RandomStream& rs) const {
  return inverse_cum_hazard(rs.exponential());
}

double PiecewiseConstantHazard::sample_residual(double age,
                                                rng::RandomStream& rs) const {
  RAIDREL_REQUIRE(age >= 0.0, "sample_residual requires age >= 0");
  const double t = inverse_cum_hazard(cum_hazard(age) + rs.exponential());
  return std::max(0.0, t - age);
}

std::string PiecewiseConstantHazard::describe() const {
  std::ostringstream os;
  os << "PiecewiseConstantHazard(";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (i) os << ", ";
    os << "[" << segments_[i].start << "+: " << segments_[i].rate << "]";
  }
  os << ")";
  return os.str();
}

std::string PiecewiseConstantHazard::exact_key() const {
  std::string key = "PiecewiseConstantHazard(";
  for (const Segment& s : segments_) {
    key += exact_bits(s.start);
    key += ':';
    key += exact_bits(s.rate);
    key += ',';
  }
  key += ')';
  return key;
}

DistributionPtr PiecewiseConstantHazard::clone() const {
  return std::make_unique<PiecewiseConstantHazard>(segments_);
}

}  // namespace raidrel::stats
