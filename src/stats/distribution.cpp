#include "stats/distribution.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {

std::string exact_bits(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

double Distribution::survival(double t) const { return 1.0 - cdf(t); }

double Distribution::hazard(double t) const {
  const double s = survival(t);
  if (s <= 0.0) return std::numeric_limits<double>::infinity();
  return pdf(t) / s;
}

double Distribution::cum_hazard(double t) const {
  const double s = survival(t);
  if (s <= 0.0) return std::numeric_limits<double>::infinity();
  return -std::log(s);
}

double Distribution::practical_upper_bound() const {
  // The largest quantile we can trust numerically; laws with heavy tails
  // still produce a finite bound here.
  return quantile(1.0 - 1e-12);
}

double Distribution::mean() const {
  // E[T] = integral of S(t) dt over [0, inf) for non-negative T.
  const double ub = practical_upper_bound();
  return util::integrate([this](double t) { return survival(t); }, 0.0, ub,
                         1e-9 * std::max(1.0, ub));
}

double Distribution::variance() const {
  // E[T^2] = integral of 2 t S(t) dt.
  const double ub = practical_upper_bound();
  const double m = mean();
  const double m2 =
      util::integrate([this](double t) { return 2.0 * t * survival(t); }, 0.0,
                      ub, 1e-9 * std::max(1.0, ub * ub));
  return std::max(0.0, m2 - m * m);
}

double Distribution::sample(rng::RandomStream& rs) const {
  return quantile(rs.uniform());
}

double Distribution::sample_residual(double age, rng::RandomStream& rs) const {
  RAIDREL_REQUIRE(age >= 0.0, "sample_residual requires age >= 0");
  const double s_age = survival(age);
  if (s_age <= 0.0) return 0.0;  // already past the end of the support
  // P(T <= t | T > age) = (F(t) - F(age)) / S(age); invert by drawing the
  // target CDF level and mapping through the unconditional quantile.
  const double u = rs.uniform_open();
  const double target = 1.0 - u * s_age;
  const double t = quantile(target);
  return std::max(0.0, t - age);
}

}  // namespace raidrel::stats
