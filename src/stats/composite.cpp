#include "stats/composite.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {

// ---------------------------------------------------------------- Mixture

MixtureDistribution::MixtureDistribution(std::vector<Component> components)
    : comps_(std::move(components)) {
  RAIDREL_REQUIRE(!comps_.empty(), "mixture needs at least one component");
  double total = 0.0;
  for (const auto& c : comps_) {
    RAIDREL_REQUIRE(c.weight > 0.0, "mixture weights must be positive");
    RAIDREL_REQUIRE(c.dist != nullptr, "mixture component must be non-null");
    total += c.weight;
  }
  for (auto& c : comps_) c.weight /= total;
}

double MixtureDistribution::pdf(double t) const {
  double v = 0.0;
  for (const auto& c : comps_) v += c.weight * c.dist->pdf(t);
  return v;
}

double MixtureDistribution::cdf(double t) const {
  double v = 0.0;
  for (const auto& c : comps_) v += c.weight * c.dist->cdf(t);
  return v;
}

double MixtureDistribution::survival(double t) const {
  double v = 0.0;
  for (const auto& c : comps_) v += c.weight * c.dist->survival(t);
  return v;
}

double MixtureDistribution::quantile(double p) const {
  RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "quantile requires p in [0,1)");
  if (p == 0.0) return 0.0;
  // Bracket using component quantiles, then Brent on the mixture CDF.
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const auto& c : comps_) {
    const double q = c.dist->quantile(p);
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  if (lo >= hi) return lo;
  auto f = [&](double t) { return cdf(t) - p; };
  if (f(lo) > 0.0) return lo;
  if (f(hi) < 0.0) return hi;
  auto res = util::brent(f, lo, hi, {.x_tol = 1e-10 * std::max(1.0, hi)});
  return res.root;
}

double MixtureDistribution::mean() const {
  double v = 0.0;
  for (const auto& c : comps_) v += c.weight * c.dist->mean();
  return v;
}

double MixtureDistribution::sample(rng::RandomStream& rs) const {
  double u = rs.uniform();
  for (const auto& c : comps_) {
    if (u < c.weight) return c.dist->sample(rs);
    u -= c.weight;
  }
  return comps_.back().dist->sample(rs);  // numerical tail
}

std::string MixtureDistribution::describe() const {
  std::ostringstream os;
  os << "Mixture(";
  for (std::size_t i = 0; i < comps_.size(); ++i) {
    if (i) os << ", ";
    os << comps_[i].weight << "*" << comps_[i].dist->describe();
  }
  os << ")";
  return os.str();
}

DistributionPtr MixtureDistribution::clone() const {
  std::vector<Component> copy;
  copy.reserve(comps_.size());
  for (const auto& c : comps_) {
    copy.push_back({c.weight, c.dist->clone()});
  }
  return std::make_unique<MixtureDistribution>(std::move(copy));
}

double MixtureDistribution::weight(std::size_t i) const {
  RAIDREL_REQUIRE(i < comps_.size(), "component index out of range");
  return comps_[i].weight;
}

const Distribution& MixtureDistribution::component(std::size_t i) const {
  RAIDREL_REQUIRE(i < comps_.size(), "component index out of range");
  return *comps_[i].dist;
}

// ------------------------------------------------------------ CompetingRisks

CompetingRisks::CompetingRisks(std::vector<DistributionPtr> risks)
    : risks_(std::move(risks)) {
  RAIDREL_REQUIRE(!risks_.empty(), "competing risks needs at least one risk");
  for (const auto& r : risks_) {
    RAIDREL_REQUIRE(r != nullptr, "risk must be non-null");
  }
}

double CompetingRisks::survival(double t) const {
  double s = 1.0;
  for (const auto& r : risks_) s *= r->survival(t);
  return s;
}

double CompetingRisks::cdf(double t) const { return 1.0 - survival(t); }

double CompetingRisks::hazard(double t) const {
  double h = 0.0;
  for (const auto& r : risks_) h += r->hazard(t);
  return h;
}

double CompetingRisks::cum_hazard(double t) const {
  double h = 0.0;
  for (const auto& r : risks_) h += r->cum_hazard(t);
  return h;
}

double CompetingRisks::pdf(double t) const {
  // f = S * sum h_i, written to stay finite when one component hazard
  // diverges but its density is 0 elsewhere.
  const double s = survival(t);
  if (s <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& r : risks_) {
    const double sr = r->survival(t);
    if (sr <= 0.0) return 0.0;
    sum += r->pdf(t) / sr;
  }
  return s * sum;
}

double CompetingRisks::quantile(double p) const {
  RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "quantile requires p in [0,1)");
  if (p == 0.0) return 0.0;
  // min of risks is stochastically smaller than each: the smallest
  // component quantile is an upper bound on the min's quantile.
  double hi = std::numeric_limits<double>::infinity();
  for (const auto& r : risks_) hi = std::min(hi, r->quantile(p));
  double lo = 0.0;
  auto f = [&](double t) { return cdf(t) - p; };
  if (f(hi) < 0.0) {
    // Guard against rounding: expand upward.
    double hi2 = hi > 0.0 ? hi * 2.0 : 1.0;
    if (!util::expand_bracket(f, lo, hi2)) return hi;
    hi = hi2;
  }
  auto res = util::brent(f, lo, hi, {.x_tol = 1e-10 * std::max(1.0, hi)});
  return res.root;
}

double CompetingRisks::sample(rng::RandomStream& rs) const {
  double t = std::numeric_limits<double>::infinity();
  for (const auto& r : risks_) t = std::min(t, r->sample(rs));
  return t;
}

double CompetingRisks::sample_residual(double age,
                                       rng::RandomStream& rs) const {
  double t = std::numeric_limits<double>::infinity();
  for (const auto& r : risks_) t = std::min(t, r->sample_residual(age, rs));
  return t;
}

std::string CompetingRisks::describe() const {
  std::ostringstream os;
  os << "CompetingRisks(";
  for (std::size_t i = 0; i < risks_.size(); ++i) {
    if (i) os << ", ";
    os << risks_[i]->describe();
  }
  os << ")";
  return os.str();
}

DistributionPtr CompetingRisks::clone() const {
  std::vector<DistributionPtr> copy;
  copy.reserve(risks_.size());
  for (const auto& r : risks_) copy.push_back(r->clone());
  return std::make_unique<CompetingRisks>(std::move(copy));
}

const Distribution& CompetingRisks::risk(std::size_t i) const {
  RAIDREL_REQUIRE(i < risks_.size(), "risk index out of range");
  return *risks_[i];
}

}  // namespace raidrel::stats
