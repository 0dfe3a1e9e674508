#include "stats/residual_life.h"

#include <cmath>
#include <sstream>

#include "util/error.h"

namespace raidrel::stats {

ResidualLife::ResidualLife(DistributionPtr base, double burn_in)
    : base_(std::move(base)), burn_in_(burn_in) {
  RAIDREL_REQUIRE(base_ != nullptr, "ResidualLife needs a base law");
  RAIDREL_REQUIRE(burn_in >= 0.0, "burn-in must be >= 0");
  survival_at_burn_in_ = base_->survival(burn_in);
  RAIDREL_REQUIRE(survival_at_burn_in_ > 0.0,
                  "nothing survives this burn-in");
}

double ResidualLife::survival(double t) const {
  if (t <= 0.0) return 1.0;
  return base_->survival(burn_in_ + t) / survival_at_burn_in_;
}

double ResidualLife::cdf(double t) const { return 1.0 - survival(t); }

double ResidualLife::pdf(double t) const {
  if (t < 0.0) return 0.0;
  return base_->pdf(burn_in_ + t) / survival_at_burn_in_;
}

double ResidualLife::hazard(double t) const {
  if (t < 0.0) return 0.0;
  return base_->hazard(burn_in_ + t);  // conditioning preserves the hazard
}

double ResidualLife::cum_hazard(double t) const {
  if (t <= 0.0) return 0.0;
  return base_->cum_hazard(burn_in_ + t) - base_->cum_hazard(burn_in_);
}

double ResidualLife::quantile(double p) const {
  RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "quantile requires p in [0,1)");
  if (p == 0.0) return 0.0;
  // F_res(t) = p  <=>  F_base(b + t) = 1 - (1-p) S_base(b).
  const double target = 1.0 - (1.0 - p) * survival_at_burn_in_;
  return std::max(0.0, base_->quantile(target) - burn_in_);
}

double ResidualLife::sample(rng::RandomStream& rs) const {
  return base_->sample_residual(burn_in_, rs);
}

double ResidualLife::sample_residual(double age,
                                     rng::RandomStream& rs) const {
  RAIDREL_REQUIRE(age >= 0.0, "sample_residual requires age >= 0");
  return base_->sample_residual(burn_in_ + age, rs);
}

std::string ResidualLife::describe() const {
  std::ostringstream os;
  os << "ResidualLife(" << base_->describe() << ", burn_in=" << burn_in_
     << ")";
  return os.str();
}

std::string ResidualLife::exact_key() const {
  return "ResidualLife(" + base_->exact_key() + ',' + exact_bits(burn_in_) +
         ')';
}

DistributionPtr ResidualLife::clone() const {
  return std::make_unique<ResidualLife>(base_->clone(), burn_in_);
}

}  // namespace raidrel::stats
