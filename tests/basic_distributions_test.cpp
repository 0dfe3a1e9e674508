#include "stats/basic_distributions.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/math.h"

namespace raidrel::stats {
namespace {

// ----------------------------------------------------------------- Exponential
// The exponential law is the beta = 1 Weibull.

TEST(Exponential, BasicLaws) {
  const Weibull e(0.0, 100.0, 1.0);
  EXPECT_NEAR(e.cdf(100.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(e.survival(100.0), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(e.hazard(3.0), 0.01);
  EXPECT_DOUBLE_EQ(e.mean(), 100.0);
  EXPECT_NEAR(e.variance(), 10000.0, 1e-9);
  EXPECT_NEAR(e.quantile(0.5), 100.0 * std::log(2.0), 1e-10);
}

TEST(Exponential, MemorylessResidual) {
  const Weibull e(0.0, 50.0, 1.0);
  rng::RandomStream rs(1);
  util::RunningStats fresh, aged;
  for (int i = 0; i < 100000; ++i) {
    fresh.add(e.sample(rs));
    aged.add(e.sample_residual(1234.0, rs));
  }
  EXPECT_NEAR(fresh.mean(), 50.0, 0.7);
  EXPECT_NEAR(aged.mean(), 50.0, 0.7);
}

// ---------------------------------------------------------------------- Gamma

TEST(Gamma, ShapeOneIsExponential) {
  const Gamma g(1.0, 50.0);
  const Weibull e(0.0, 50.0, 1.0);
  for (double t : {1.0, 10.0, 100.0}) {
    EXPECT_NEAR(g.cdf(t), e.cdf(t), 1e-10) << t;
    EXPECT_NEAR(g.pdf(t), e.pdf(t), 1e-10) << t;
  }
}

TEST(Gamma, MomentsAnalytic) {
  const Gamma g(3.0, 2.0);
  EXPECT_DOUBLE_EQ(g.mean(), 6.0);
  EXPECT_DOUBLE_EQ(g.variance(), 12.0);
}

TEST(Gamma, QuantileInvertsCdf) {
  for (double shape : {0.5, 1.0, 2.5, 10.0}) {
    const Gamma g(shape, 3.0);
    for (double p : {0.01, 0.3, 0.5, 0.9, 0.999}) {
      EXPECT_NEAR(g.cdf(g.quantile(p)), p, 1e-8)
          << "shape=" << shape << " p=" << p;
    }
  }
}

TEST(Gamma, SamplerMatchesMoments) {
  for (double shape : {0.5, 2.0, 7.5}) {
    const Gamma g(shape, 4.0);
    rng::RandomStream rs(static_cast<std::uint64_t>(shape * 100));
    util::RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.add(g.sample(rs));
    EXPECT_NEAR(stats.mean(), g.mean(), 0.15) << shape;
    EXPECT_NEAR(stats.variance(), g.variance(), g.variance() * 0.05) << shape;
  }
}

TEST(Gamma, SumOfExponentialsIsGamma) {
  // Property: sum of k iid Exp(rate) ~ Gamma(k, 1/rate).
  rng::RandomStream rs(33);
  const Weibull e(0.0, 10.0, 1.0);
  std::vector<double> sums;
  for (int i = 0; i < 20000; ++i) {
    double s = 0.0;
    for (int k = 0; k < 4; ++k) s += e.sample(rs);
    sums.push_back(s);
  }
  const Gamma g(4.0, 10.0);
  util::RunningStats stats;
  for (double s : sums) stats.add(s);
  EXPECT_NEAR(stats.mean(), g.mean(), 0.5);
  EXPECT_NEAR(stats.variance(), g.variance(), g.variance() * 0.06);
}

// ----------------------------------------------------------------- Degenerate

TEST(Degenerate, PointMassBehaviour) {
  const Degenerate d(12.0);
  EXPECT_DOUBLE_EQ(d.cdf(11.9), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(12.0), 1.0);
  EXPECT_DOUBLE_EQ(d.mean(), 12.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
  rng::RandomStream rs(3);
  EXPECT_DOUBLE_EQ(d.sample(rs), 12.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.3), 12.0);
}

TEST(Degenerate, ResidualCountsDown) {
  const Degenerate d(12.0);
  rng::RandomStream rs(4);
  EXPECT_DOUBLE_EQ(d.sample_residual(4.0, rs), 8.0);
  EXPECT_DOUBLE_EQ(d.sample_residual(12.0, rs), 0.0);
  EXPECT_DOUBLE_EQ(d.sample_residual(20.0, rs), 0.0);
}

// ---------------------------------------------------------------- polymorphism

TEST(DistributionPtr, ClonePreservesConcreteBehaviour) {
  std::vector<DistributionPtr> dists;
  dists.push_back(std::make_unique<Weibull>(0.0, 2.0, 1.0));
  dists.push_back(std::make_unique<Gamma>(2.0, 3.0));
  dists.push_back(std::make_unique<Degenerate>(5.0));
  for (const auto& d : dists) {
    const auto c = d->clone();
    for (double t : {0.5, 1.5, 4.0}) {
      EXPECT_DOUBLE_EQ(c->cdf(t), d->cdf(t)) << d->describe();
    }
  }
}

}  // namespace
}  // namespace raidrel::stats
