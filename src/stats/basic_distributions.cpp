#include "stats/basic_distributions.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {

// ---------------------------------------------------------------------- Gamma

Gamma::Gamma(double shape, double scale) : shape_(shape), scale_(scale) {
  RAIDREL_REQUIRE(shape > 0.0, "Gamma shape must be > 0");
  RAIDREL_REQUIRE(scale > 0.0, "Gamma scale must be > 0");
}

double Gamma::pdf(double t) const {
  if (t < 0.0) return 0.0;
  if (t == 0.0) {
    if (shape_ < 1.0) return std::numeric_limits<double>::infinity();
    if (shape_ == 1.0) return 1.0 / scale_;
    return 0.0;
  }
  const double x = t / scale_;
  return std::exp((shape_ - 1.0) * std::log(x) - x - util::log_gamma(shape_)) /
         scale_;
}

double Gamma::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  return util::gamma_p(shape_, t / scale_);
}

double Gamma::survival(double t) const {
  if (t <= 0.0) return 1.0;
  return util::gamma_q(shape_, t / scale_);
}

double Gamma::quantile(double p) const {
  RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "quantile requires p in [0,1)");
  if (p == 0.0) return 0.0;
  // Wilson–Hilferty starting point, then safeguarded Newton on the CDF.
  const double g = util::normal_quantile(p);
  const double k = shape_;
  double x0 = k * std::pow(1.0 - 1.0 / (9.0 * k) + g / (3.0 * std::sqrt(k)),
                           3.0);
  if (!(x0 > 0.0) || !std::isfinite(x0)) x0 = k;
  double lo = 0.0;
  double hi = std::max(x0 * 8.0, k * 64.0);
  while (util::gamma_p(k, hi) < p) hi *= 2.0;
  auto res = util::newton_safe(
      [&](double x) {
        const double f = util::gamma_p(k, x) - p;
        const double d =
            std::exp((k - 1.0) * std::log(std::max(x, 1e-300)) - x -
                     util::log_gamma(k));
        return std::make_pair(f, d);
      },
      lo, hi, std::min(std::max(x0, lo + 1e-12), hi),
      {.x_tol = 1e-12, .f_tol = 1e-14, .max_iter = 200});
  return res.root * scale_;
}

double Gamma::mean() const { return shape_ * scale_; }

double Gamma::variance() const { return shape_ * scale_ * scale_; }

double Gamma::sample(rng::RandomStream& rs) const {
  // Marsaglia–Tsang squeeze method; boost for shape < 1 via the standard
  // U^(1/k) trick.
  double k = shape_;
  double boost = 1.0;
  if (k < 1.0) {
    boost = std::pow(rs.uniform_open(), 1.0 / k);
    k += 1.0;
  }
  const double d = k - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rs.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rs.uniform_open();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return boost * d * v * scale_;
    }
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return boost * d * v * scale_;
    }
  }
}

std::string Gamma::describe() const {
  std::ostringstream os;
  os << "Gamma(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

DistributionPtr Gamma::clone() const { return std::make_unique<Gamma>(*this); }

}  // namespace raidrel::stats
