// Two- and three-parameter Weibull distributions.
//
// The Weibull family is the paper's workhorse: all four model transitions
// (TTOp, TTR, TTLd, TTScrub) are three-parameter Weibulls
//
//   f(t) = (beta/eta) * ((t-gamma)/eta)^(beta-1)
//          * exp(-((t-gamma)/eta)^beta),   t > gamma
//
// where gamma is the location (minimum time, e.g. the shortest possible
// disk rebuild), eta the characteristic life (63.2nd percentile above
// gamma) and beta the shape: beta < 1 decreasing hazard (infant
// mortality), beta = 1 exponential/HPP, beta > 1 increasing hazard
// (wear-out).
#pragma once

#include "stats/distribution.h"

namespace raidrel::stats {

struct WeibullParams {
  double gamma = 0.0;  ///< location (hours); 0 gives the 2-parameter form
  double eta = 1.0;    ///< characteristic life (hours), > 0
  double beta = 1.0;   ///< shape, > 0

  [[nodiscard]] bool operator==(const WeibullParams&) const = default;
};

class Weibull final : public Distribution {
 public:
  explicit Weibull(const WeibullParams& p);
  Weibull(double gamma, double eta, double beta)
      : Weibull(WeibullParams{gamma, eta, beta}) {}

  /// Convenience: 2-parameter Weibull (gamma = 0).
  static Weibull two_param(double eta, double beta) {
    return Weibull(0.0, eta, beta);
  }

  [[nodiscard]] double pdf(double t) const override;
  [[nodiscard]] double cdf(double t) const override;
  [[nodiscard]] double survival(double t) const override;
  [[nodiscard]] double hazard(double t) const override;
  [[nodiscard]] double cum_hazard(double t) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(rng::RandomStream& rs) const override;
  [[nodiscard]] double sample_residual(double age,
                                       rng::RandomStream& rs) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string exact_key() const override;
  [[nodiscard]] DistributionPtr clone() const override;

  [[nodiscard]] const WeibullParams& params() const noexcept { return p_; }
  [[nodiscard]] double location() const noexcept { return p_.gamma; }
  [[nodiscard]] double scale() const noexcept { return p_.eta; }
  [[nodiscard]] double shape() const noexcept { return p_.beta; }

 private:
  /// z = (t - gamma)/eta clipped at 0.
  [[nodiscard]] double z(double t) const noexcept;

  WeibullParams p_;
  double inv_beta_;
};

}  // namespace raidrel::stats
