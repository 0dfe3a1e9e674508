#include "stats/residual_life.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/composite.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {
namespace {

TEST(ResidualLife, ExponentialBaseIsUnchanged) {
  // Memorylessness: burn-in does nothing to an exponential.
  ResidualLife r(std::make_unique<Weibull>(0.0, 100.0, 1.0), 500.0);
  const Weibull e(0.0, 100.0, 1.0);
  for (double t : {1.0, 50.0, 400.0}) {
    EXPECT_NEAR(r.cdf(t), e.cdf(t), 1e-12) << t;
    EXPECT_NEAR(r.pdf(t), e.pdf(t), 1e-12) << t;
  }
  EXPECT_NEAR(r.mean(), 100.0, 1e-6);
}

TEST(ResidualLife, ConditionalSurvivalFormula) {
  const Weibull base(0.0, 100.0, 2.0);
  ResidualLife r(base.clone(), 50.0);
  for (double t : {10.0, 40.0, 120.0}) {
    EXPECT_NEAR(r.survival(t), base.survival(50.0 + t) / base.survival(50.0),
                1e-12)
        << t;
  }
  EXPECT_DOUBLE_EQ(r.cdf(0.0), 0.0);
}

TEST(ResidualLife, HazardIsShiftedBaseHazard) {
  const Weibull base(0.0, 1000.0, 0.7);  // infant mortality
  ResidualLife r(base.clone(), 200.0);
  EXPECT_NEAR(r.hazard(0.0), base.hazard(200.0), 1e-15);
  EXPECT_NEAR(r.hazard(300.0), base.hazard(500.0), 1e-15);
  // Burn-in strictly lowers the initial hazard of a beta < 1 law.
  EXPECT_LT(r.hazard(0.0), base.hazard(1.0));
}

TEST(ResidualLife, QuantileInvertsCdf) {
  ResidualLife r(std::make_unique<Weibull>(10.0, 300.0, 1.5), 100.0);
  for (double p : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(r.cdf(r.quantile(p)), p, 1e-9) << p;
  }
}

TEST(ResidualLife, SamplingMatchesConditionalLaw) {
  const Weibull base(0.0, 500.0, 0.8);
  ResidualLife r(base.clone(), 250.0);
  rng::RandomStream rs(5);
  util::RunningStats stats;
  for (int i = 0; i < 60000; ++i) stats.add(r.sample(rs));
  EXPECT_NEAR(stats.mean(), r.mean(), 5.0 * stats.sem());
}

TEST(ResidualLife, BurnInHelpsInfantMortalityHurtsWearOut) {
  // The design question this adaptor answers: probability of surviving the
  // first deployed year. Burn-in improves it for beta < 1, degrades it for
  // beta > 1 (burning useful life).
  const double year = 8760.0;
  const Weibull infant(0.0, 2.0e5, 0.7);
  const Weibull wearing(0.0, 2.0e5, 1.5);
  ResidualLife infant_burned(infant.clone(), 500.0);
  ResidualLife wearing_burned(wearing.clone(), 500.0);
  EXPECT_GT(infant_burned.survival(year), infant.survival(year));
  EXPECT_LT(wearing_burned.survival(year), wearing.survival(year));
}

TEST(ResidualLife, MixtureBurnInScreensWeakSubpopulation) {
  // Fig. 1 HDD #3 situation: 15% weak units. Burn-in screens them out,
  // cutting the deployed first-year failure probability.
  std::vector<MixtureDistribution::Component> comps;
  comps.push_back({0.15, std::make_unique<Weibull>(0.0, 1.0e3, 0.9)});
  comps.push_back({0.85, std::make_unique<Weibull>(0.0, 1.2e6, 1.0)});
  MixtureDistribution mix(std::move(comps));
  ResidualLife burned(mix.clone(), 1000.0);
  EXPECT_LT(burned.cdf(8760.0), 0.6 * mix.cdf(8760.0));
}

TEST(ResidualLife, ZeroBurnInIsIdentity) {
  const Weibull base(5.0, 77.0, 1.3);
  ResidualLife r(base.clone(), 0.0);
  for (double t : {1.0, 20.0, 90.0}) {
    EXPECT_NEAR(r.cdf(t), base.cdf(t), 1e-12);
  }
}

TEST(ResidualLife, Validation) {
  EXPECT_THROW(ResidualLife(nullptr, 10.0), ModelError);
  EXPECT_THROW(ResidualLife(std::make_unique<Weibull>(0.0, 1.0, 1.0), -1.0),
               ModelError);
  // Degenerate base: burning past the point mass leaves nothing.
  EXPECT_THROW(ResidualLife(std::make_unique<Degenerate>(5.0), 6.0),
               ModelError);
}

TEST(ResidualLife, ComposesWithItself) {
  // Burn-in of a burned-in law = total burn-in.
  const Weibull base(0.0, 100.0, 2.0);
  ResidualLife once(base.clone(), 30.0);
  ResidualLife twice(once.clone(), 20.0);
  ResidualLife direct(base.clone(), 50.0);
  for (double t : {5.0, 25.0, 80.0}) {
    EXPECT_NEAR(twice.cdf(t), direct.cdf(t), 1e-12) << t;
  }
}

}  // namespace
}  // namespace raidrel::stats
