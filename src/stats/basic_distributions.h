// The gamma law, a common alternative to the Weibull for repair times in
// the literature. The exponential law is the beta = 1 Weibull
// (stats/weibull.h).
#pragma once

#include "stats/distribution.h"

namespace raidrel::stats {

/// Gamma(shape k, scale theta).
class Gamma final : public Distribution {
 public:
  Gamma(double shape, double scale);

  [[nodiscard]] double pdf(double t) const override;
  [[nodiscard]] double cdf(double t) const override;
  [[nodiscard]] double survival(double t) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(rng::RandomStream& rs) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] DistributionPtr clone() const override;

  [[nodiscard]] double shape() const noexcept { return shape_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }

 private:
  double shape_;
  double scale_;
};

}  // namespace raidrel::stats
