// Residual-life adaptor: the law of (T - b | T > b) for a base law T and
// burn-in age b.
//
// Use case (paper §2): field populations show infant mortality (beta < 1
// segments, particle contamination). The classic countermeasure is
// burn-in — run drives for b hours before deployment so the field only
// sees survivors. A deployed drive's lifetime is then exactly this
// conditional law. Wrapping it as a Distribution lets the simulator
// evaluate burn-in policies with no engine changes.
#pragma once

#include "stats/distribution.h"

namespace raidrel::stats {

class ResidualLife final : public Distribution {
 public:
  /// Requires survival(burn_in) > 0 (something must survive the burn-in).
  ResidualLife(DistributionPtr base, double burn_in);

  [[nodiscard]] double pdf(double t) const override;
  [[nodiscard]] double cdf(double t) const override;
  [[nodiscard]] double survival(double t) const override;
  [[nodiscard]] double hazard(double t) const override;
  [[nodiscard]] double cum_hazard(double t) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(rng::RandomStream& rs) const override;
  [[nodiscard]] double sample_residual(double age,
                                       rng::RandomStream& rs) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string exact_key() const override;
  [[nodiscard]] DistributionPtr clone() const override;

  [[nodiscard]] double burn_in() const noexcept { return burn_in_; }
  [[nodiscard]] const Distribution& base() const noexcept { return *base_; }

 private:
  DistributionPtr base_;
  double burn_in_;
  double survival_at_burn_in_;
};

}  // namespace raidrel::stats
