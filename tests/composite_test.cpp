#include "stats/composite.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {
namespace {

MixtureDistribution two_weibull_mixture(double w1, WeibullParams p1,
                                        double w2, WeibullParams p2) {
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({w1, std::make_unique<Weibull>(p1)});
  comps.push_back({w2, std::make_unique<Weibull>(p2)});
  return MixtureDistribution(std::move(comps));
}

TEST(Mixture, WeightsNormalized) {
  auto m = two_weibull_mixture(2.0, {0.0, 100.0, 1.0}, 6.0, {0.0, 10.0, 1.0});
  EXPECT_DOUBLE_EQ(m.weight(0), 0.25);
  EXPECT_DOUBLE_EQ(m.weight(1), 0.75);
}

TEST(Mixture, CdfIsWeightedAverage) {
  auto m = two_weibull_mixture(0.3, {0.0, 100.0, 1.0}, 0.7, {0.0, 10.0, 2.0});
  const Weibull a(0.0, 100.0, 1.0), b(0.0, 10.0, 2.0);
  for (double t : {1.0, 5.0, 20.0, 80.0}) {
    EXPECT_NEAR(m.cdf(t), 0.3 * a.cdf(t) + 0.7 * b.cdf(t), 1e-12) << t;
    EXPECT_NEAR(m.survival(t), 1.0 - m.cdf(t), 1e-12) << t;
  }
}

TEST(Mixture, MeanIsWeightedAverage) {
  auto m = two_weibull_mixture(0.5, {0.0, 100.0, 1.0}, 0.5, {0.0, 10.0, 1.0});
  EXPECT_NEAR(m.mean(), 55.0, 1e-9);
}

TEST(Mixture, QuantileInvertsCdf) {
  auto m = two_weibull_mixture(0.15, {0.0, 5.0e4, 0.9}, 0.85,
                               {0.0, 1.2e6, 1.0});  // the Fig. 1 HDD#3 mix
  for (double p : {0.01, 0.05, 0.2, 0.5, 0.9}) {
    EXPECT_NEAR(m.cdf(m.quantile(p)), p, 1e-7) << p;
  }
}

TEST(Mixture, SamplingFrequencyMatchesWeights) {
  // With far-separated components, classify samples by a midpoint.
  auto m = two_weibull_mixture(0.2, {0.0, 1.0, 2.0}, 0.8, {1000.0, 1.0, 2.0});
  rng::RandomStream rs(21);
  int low = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) low += (m.sample(rs) < 500.0) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(low) / n, 0.2, 0.01);
}

TEST(Mixture, DecreasingThenIncreasingHazard) {
  // A weak subpopulation mixed with a strong one produces a decreasing
  // hazard (the survivors are increasingly the strong units) until a
  // wear-out mechanism takes over — the paper's HDD #3 signature.
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({0.15, std::make_unique<Weibull>(0.0, 5.0e4, 0.9)});
  comps.push_back({0.85, std::make_unique<Weibull>(0.0, 1.2e6, 1.0)});
  MixtureDistribution mix(std::move(comps));
  EXPECT_GT(mix.hazard(100.0), mix.hazard(20000.0));
}

TEST(Mixture, RejectsBadInput) {
  EXPECT_THROW(MixtureDistribution({}), ModelError);
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({0.0, std::make_unique<Weibull>(0.0, 1.0, 1.0)});
  EXPECT_THROW(MixtureDistribution(std::move(comps)), ModelError);
}

TEST(Mixture, ComponentAccessors) {
  auto m = two_weibull_mixture(1.0, {0.0, 10.0, 1.0}, 3.0, {0.0, 20.0, 2.0});
  EXPECT_EQ(m.component_count(), 2u);
  EXPECT_NE(m.component(1).describe().find("eta=20"), std::string::npos);
  EXPECT_THROW(static_cast<void>(m.component(2)), ModelError);
  EXPECT_THROW(static_cast<void>(m.weight(2)), ModelError);
}

TEST(CompetingRisks, RiskAccessors) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 100.0, 1.0));
  risks.push_back(std::make_unique<Weibull>(0.0, 50.0, 1.0));
  CompetingRisks cr(std::move(risks));
  EXPECT_EQ(cr.risk_count(), 2u);
  EXPECT_NE(cr.risk(0).describe().find("eta=100"), std::string::npos);
  EXPECT_THROW(static_cast<void>(cr.risk(2)), ModelError);
}

TEST(Mixture, CloneIsDeep) {
  auto m = two_weibull_mixture(0.5, {0.0, 10.0, 1.0}, 0.5, {0.0, 20.0, 1.0});
  auto c = m.clone();
  EXPECT_NEAR(c->cdf(15.0), m.cdf(15.0), 0.0);
  EXPECT_NE(c->describe().find("Mixture"), std::string::npos);
}

TEST(CompetingRisks, SurvivalIsProduct) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 100.0, 1.0));
  risks.push_back(std::make_unique<Weibull>(0.0, 100.0 / 3.0, 1.0));
  CompetingRisks cr(std::move(risks));
  // Min of exponentials is exponential with the summed rate.
  const Weibull combined(0.0, 25.0, 1.0);
  for (double t : {1.0, 10.0, 50.0}) {
    EXPECT_NEAR(cr.survival(t), combined.survival(t), 1e-12) << t;
    EXPECT_NEAR(cr.hazard(t), 0.04, 1e-12) << t;
  }
}

TEST(CompetingRisks, HazardIsSumOfHazards) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 100.0, 0.9));
  risks.push_back(std::make_unique<Weibull>(50.0, 30.0, 3.0));
  CompetingRisks cr(std::move(risks));
  const Weibull a(0.0, 100.0, 0.9), b(50.0, 30.0, 3.0);
  for (double t : {10.0, 60.0, 120.0}) {
    EXPECT_NEAR(cr.hazard(t), a.hazard(t) + b.hazard(t), 1e-10) << t;
    EXPECT_NEAR(cr.cum_hazard(t), a.cum_hazard(t) + b.cum_hazard(t), 1e-10);
  }
}

TEST(CompetingRisks, BathtubUpturn) {
  // The Fig. 1 HDD#2 shape: random failures + delayed wear-out gives a
  // hazard that is flat early and rises after the wear-out onset.
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 3.5e5, 1.0));
  risks.push_back(std::make_unique<Weibull>(10000.0, 3.0e4, 3.0));
  CompetingRisks cr(std::move(risks));
  EXPECT_NEAR(cr.hazard(5000.0), 1.0 / 3.5e5, 1e-9);
  EXPECT_GT(cr.hazard(29000.0), 10.0 * cr.hazard(5000.0));
}

TEST(CompetingRisks, SampleIsMinOfComponents) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Degenerate>(7.0));
  risks.push_back(std::make_unique<Degenerate>(4.0));
  CompetingRisks cr(std::move(risks));
  rng::RandomStream rs(5);
  EXPECT_DOUBLE_EQ(cr.sample(rs), 4.0);
}

TEST(CompetingRisks, QuantileInvertsCdf) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 3.5e5, 1.0));
  risks.push_back(std::make_unique<Weibull>(10000.0, 3.0e4, 3.0));
  CompetingRisks cr(std::move(risks));
  for (double p : {0.001, 0.01, 0.1, 0.5, 0.95}) {
    EXPECT_NEAR(cr.cdf(cr.quantile(p)), p, 1e-7) << p;
  }
}

TEST(CompetingRisks, SampleMomentsMatchQuadrature) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 200.0, 1.5));
  risks.push_back(std::make_unique<Weibull>(0.0, 300.0, 0.8));
  CompetingRisks cr(std::move(risks));
  const double analytic_mean = cr.mean();  // numeric default via survival
  rng::RandomStream rs(8);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(cr.sample(rs));
  EXPECT_NEAR(stats.mean(), analytic_mean, analytic_mean * 0.02);
}

TEST(CompetingRisks, ResidualSamplingRespectsAging) {
  std::vector<DistributionPtr> risks;
  risks.push_back(std::make_unique<Weibull>(0.0, 100.0, 3.0));
  risks.push_back(std::make_unique<Weibull>(0.0, 150.0, 2.0));
  CompetingRisks cr(std::move(risks));
  rng::RandomStream rs(10);
  util::RunningStats young, old;
  for (int i = 0; i < 30000; ++i) {
    young.add(cr.sample_residual(0.0, rs));
    old.add(cr.sample_residual(80.0, rs));
  }
  EXPECT_GT(young.mean(), old.mean());
}

}  // namespace
}  // namespace raidrel::stats
