#include "stats/weibull.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {

Weibull::Weibull(const WeibullParams& p) : p_(p), inv_beta_(1.0 / p.beta) {
  RAIDREL_REQUIRE(p.eta > 0.0, "Weibull eta must be > 0");
  RAIDREL_REQUIRE(p.beta > 0.0, "Weibull beta must be > 0");
  RAIDREL_REQUIRE(p.gamma >= 0.0, "Weibull gamma must be >= 0 (lifetimes)");
}

double Weibull::z(double t) const noexcept {
  const double x = (t - p_.gamma) / p_.eta;
  return x > 0.0 ? x : 0.0;
}

double Weibull::pdf(double t) const {
  const double x = z(t);
  if (x <= 0.0) {
    // For beta < 1 the density diverges at gamma; report +inf exactly at the
    // support start, 0 before it.
    if (t == p_.gamma && p_.beta < 1.0) {
      return std::numeric_limits<double>::infinity();
    }
    if (t == p_.gamma && p_.beta == 1.0) return 1.0 / p_.eta;
    return 0.0;
  }
  const double xb = std::pow(x, p_.beta);
  return p_.beta / p_.eta * xb / x * std::exp(-xb);
}

double Weibull::cdf(double t) const {
  const double x = z(t);
  if (x <= 0.0) return 0.0;
  return -std::expm1(-std::pow(x, p_.beta));
}

double Weibull::survival(double t) const {
  const double x = z(t);
  if (x <= 0.0) return 1.0;
  return std::exp(-std::pow(x, p_.beta));
}

double Weibull::hazard(double t) const {
  const double x = z(t);
  if (x <= 0.0) {
    if (t == p_.gamma && p_.beta < 1.0) {
      return std::numeric_limits<double>::infinity();
    }
    if (t == p_.gamma && p_.beta == 1.0) return 1.0 / p_.eta;
    return 0.0;
  }
  return p_.beta / p_.eta * std::pow(x, p_.beta - 1.0);
}

double Weibull::cum_hazard(double t) const {
  const double x = z(t);
  if (x <= 0.0) return 0.0;
  return std::pow(x, p_.beta);
}

double Weibull::quantile(double p) const {
  RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "Weibull quantile requires p in [0,1)");
  if (p == 0.0) return p_.gamma;
  return p_.gamma + p_.eta * std::pow(-std::log1p(-p), inv_beta_);
}

double Weibull::mean() const {
  return p_.gamma + p_.eta * util::gamma_fn(1.0 + inv_beta_);
}

double Weibull::variance() const {
  const double g1 = util::gamma_fn(1.0 + inv_beta_);
  const double g2 = util::gamma_fn(1.0 + 2.0 * inv_beta_);
  return p_.eta * p_.eta * (g2 - g1 * g1);
}

double Weibull::sample(rng::RandomStream& rs) const {
  // Inverse transform with a standard-exponential draw: T = gamma +
  // eta * E^(1/beta), E ~ Exp(1). Avoids the pow/log of quantile(uniform()).
  return p_.gamma + p_.eta * std::pow(rs.exponential(), inv_beta_);
}

double Weibull::sample_residual(double age, rng::RandomStream& rs) const {
  RAIDREL_REQUIRE(age >= 0.0, "sample_residual requires age >= 0");
  // Exact conditional law: with x0 = max(age - gamma, 0)/eta,
  //   H(T) - H(age) ~ Exp(1)  =>  ((x0 + r/eta))^beta = x0^beta + E.
  const double x0 = std::max(age - p_.gamma, 0.0) / p_.eta;
  const double h0 = x0 > 0.0 ? std::pow(x0, p_.beta) : 0.0;
  const double e = rs.exponential();
  // For age >> eta the accumulated hazard h0 dominates the fresh draw and
  // the absolute-time form pow(h0 + e, 1/beta) absorbs e entirely
  // (h0 + e == h0 once h0 >= ~2^53 * e), after which t - age cancels
  // catastrophically and the residual collapses to 0. Compute the residual
  // increment directly in log space instead:
  //   r = eta * (x1 - x0) = eta * x0 * ((1 + e/h0)^(1/beta) - 1)
  //     = eta * x0 * expm1(log1p(e/h0) / beta).
  const double ratio = e / h0;  // h0 == 0 -> inf, routed to the direct form
  if (h0 > 0.0 && std::isfinite(ratio)) {
    return p_.eta * x0 * std::expm1(inv_beta_ * std::log1p(ratio));
  }
  const double x1 = std::pow(h0 + e, inv_beta_);
  const double t = p_.gamma + p_.eta * x1;  // absolute failure time
  return std::max(0.0, t - age);
}

std::string Weibull::describe() const {
  std::ostringstream os;
  os << "Weibull(gamma=" << p_.gamma << ", eta=" << p_.eta
     << ", beta=" << p_.beta << ")";
  return os.str();
}

DistributionPtr Weibull::clone() const {
  return std::make_unique<Weibull>(*this);
}

}  // namespace raidrel::stats
