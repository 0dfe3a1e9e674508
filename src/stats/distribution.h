// Generalized failure/repair time distributions.
//
// The paper's central argument is that disks and RAID systems do NOT follow
// a homogeneous Poisson process, so every transition in the model (Fig. 4 of
// the paper) is driven by a *generalized* distribution rather than a rate.
// This interface is what the simulator consumes: any lifetime law that can
// report survival, hazard and quantiles can drive any transition.
//
// Conventions:
//  * support is [0, +inf) (times in hours); cdf(t)=0 for t<=support start;
//  * quantile(p) is the inverse CDF, defined for p in [0,1) (p=1 may be
//    +inf for unbounded laws);
//  * sample_residual(age, rs) draws the *remaining* life of an item that
//    has already survived `age` hours — the exact conditional law
//    P(T - age <= r | T > age) — used for drives that keep aging while
//    neighbours are replaced.
#pragma once

#include <memory>
#include <string>

#include "rng/rng.h"

namespace raidrel::stats {

class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Probability density f(t).
  [[nodiscard]] virtual double pdf(double t) const = 0;

  /// Cumulative distribution F(t) = P(T <= t).
  [[nodiscard]] virtual double cdf(double t) const = 0;

  /// Survival S(t) = 1 - F(t). Overridden where a direct formula avoids
  /// cancellation (e.g. exp(-H) instead of 1 - cdf).
  [[nodiscard]] virtual double survival(double t) const;

  /// Hazard (instantaneous failure rate) h(t) = f(t) / S(t).
  [[nodiscard]] virtual double hazard(double t) const;

  /// Cumulative hazard H(t) = -ln S(t).
  [[nodiscard]] virtual double cum_hazard(double t) const;

  /// Inverse CDF; p in [0, 1).
  [[nodiscard]] virtual double quantile(double p) const = 0;

  /// E[T]; default integrates the survival function numerically.
  [[nodiscard]] virtual double mean() const;

  /// Var[T]; default integrates numerically.
  [[nodiscard]] virtual double variance() const;

  /// Draw one variate. Default: inverse-CDF transform of U(0,1).
  [[nodiscard]] virtual double sample(rng::RandomStream& rs) const;

  /// Draw the remaining life given survival to `age`. Default: conditional
  /// inverse-CDF; subclasses override with closed forms where available.
  [[nodiscard]] virtual double sample_residual(double age,
                                               rng::RandomStream& rs) const;

  /// Human-readable parameterization, e.g. "Weibull(gamma=6, eta=12, beta=2)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Exact identity: the law's type and the bits of every parameter,
  /// e.g. "Weibull(0,4065000000000000,4008000000000000)" (exact_bits). Equal
  /// keys mean the same law, so anything derived from one law serves the
  /// other (sim::LatentCurveCache); describe() rounds to 6 digits.
  [[nodiscard]] virtual std::string exact_key() const = 0;

  [[nodiscard]] virtual std::unique_ptr<Distribution> clone() const = 0;

 protected:
  /// Upper integration limit: a quantile close to 1 that is finite.
  [[nodiscard]] double practical_upper_bound() const;
};

using DistributionPtr = std::unique_ptr<Distribution>;

/// The bit pattern of `v` in hex, the spelling exact_key() uses for a
/// parameter.
std::string exact_bits(double v);

}  // namespace raidrel::stats
