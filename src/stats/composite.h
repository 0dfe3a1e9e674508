// Composite lifetime laws observed in disk field data (paper §2):
//
//  * MixtureDistribution — "some of the HDDs have a failure mechanism that
//    the others do not have": each unit is drawn from component i with
//    probability w_i. Produces the first inflection (failure-rate drop) of
//    HDD #3 in the paper's Fig. 1.
//  * CompetingRisks — every unit carries all mechanisms and fails at the
//    earliest one: S(t) = prod_i S_i(t). Produces the late-life upturn of
//    HDD #2 and #3.
#pragma once

#include <vector>

#include "stats/distribution.h"

namespace raidrel::stats {

class MixtureDistribution final : public Distribution {
 public:
  struct Component {
    double weight;
    DistributionPtr dist;
  };

  /// Weights must be positive; they are normalized to sum to 1.
  explicit MixtureDistribution(std::vector<Component> components);

  [[nodiscard]] double pdf(double t) const override;
  [[nodiscard]] double cdf(double t) const override;
  [[nodiscard]] double survival(double t) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double sample(rng::RandomStream& rs) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] DistributionPtr clone() const override;

  [[nodiscard]] std::size_t component_count() const noexcept {
    return comps_.size();
  }
  [[nodiscard]] double weight(std::size_t i) const;
  [[nodiscard]] const Distribution& component(std::size_t i) const;

 private:
  std::vector<Component> comps_;
};

class CompetingRisks final : public Distribution {
 public:
  explicit CompetingRisks(std::vector<DistributionPtr> risks);

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
  [[nodiscard]] DistributionPtr clone() const override;

  [[nodiscard]] std::size_t risk_count() const noexcept {
    return risks_.size();
  }
  [[nodiscard]] const Distribution& risk(std::size_t i) const;

 private:
  std::vector<DistributionPtr> risks_;
};

}  // namespace raidrel::stats
