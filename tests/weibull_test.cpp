#include "stats/weibull.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {
namespace {

TEST(Weibull, RejectsBadParameters) {
  EXPECT_THROW(Weibull(0.0, 0.0, 1.0), ModelError);
  EXPECT_THROW(Weibull(0.0, 1.0, 0.0), ModelError);
  EXPECT_THROW(Weibull(-1.0, 1.0, 1.0), ModelError);
}

TEST(Weibull, Beta1IsExponential) {
  const Weibull w(0.0, 100.0, 1.0);
  EXPECT_NEAR(w.cdf(100.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(w.hazard(5.0), 0.01, 1e-12);
  EXPECT_NEAR(w.hazard(500.0), 0.01, 1e-12);  // constant hazard
  EXPECT_NEAR(w.mean(), 100.0, 1e-9);
}

TEST(Weibull, CharacteristicLifeIs63rdPercentile) {
  for (double beta : {0.5, 1.0, 1.12, 2.0, 3.0}) {
    const Weibull w(0.0, 1000.0, beta);
    EXPECT_NEAR(w.cdf(1000.0), 1.0 - std::exp(-1.0), 1e-12) << beta;
  }
}

TEST(Weibull, LocationShiftsSupport) {
  const Weibull w(6.0, 12.0, 2.0);  // the paper's restore law
  EXPECT_DOUBLE_EQ(w.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.cdf(6.0), 0.0);
  EXPECT_DOUBLE_EQ(w.survival(5.9), 1.0);
  EXPECT_GT(w.cdf(6.1), 0.0);
  EXPECT_NEAR(w.cdf(18.0), 1.0 - std::exp(-1.0), 1e-12);  // gamma + eta
}

TEST(Weibull, QuantileInvertsCdf) {
  const Weibull w(6.0, 168.0, 3.0);  // the paper's scrub law
  for (double p : {0.001, 0.1, 0.5, 0.632, 0.9, 0.999}) {
    EXPECT_NEAR(w.cdf(w.quantile(p)), p, 1e-10) << p;
  }
  EXPECT_DOUBLE_EQ(w.quantile(0.0), 6.0);
}

TEST(Weibull, MeanMatchesGammaFormula) {
  const Weibull w(0.0, 461386.0, 1.12);  // the paper's TTOp
  EXPECT_NEAR(w.mean(), 461386.0 * util::gamma_fn(1.0 + 1.0 / 1.12), 1e-6);
  // beta = 2 (Rayleigh): mean = eta*sqrt(pi)/2.
  const Weibull r(0.0, 10.0, 2.0);
  EXPECT_NEAR(r.mean(), 10.0 * std::sqrt(M_PI) / 2.0, 1e-9);
}

TEST(Weibull, VarianceMatchesGammaFormula) {
  const Weibull w(0.0, 10.0, 2.0);
  const double g1 = util::gamma_fn(1.5);
  const double g2 = util::gamma_fn(2.0);
  EXPECT_NEAR(w.variance(), 100.0 * (g2 - g1 * g1), 1e-9);
  // Location does not change the variance.
  const Weibull s(50.0, 10.0, 2.0);
  EXPECT_NEAR(s.variance(), w.variance(), 1e-9);
  EXPECT_NEAR(s.mean(), w.mean() + 50.0, 1e-9);
}

TEST(Weibull, HazardMonotonicityByShape) {
  const Weibull decreasing(0.0, 100.0, 0.8);
  EXPECT_GT(decreasing.hazard(1.0), decreasing.hazard(10.0));
  EXPECT_GT(decreasing.hazard(10.0), decreasing.hazard(100.0));

  const Weibull increasing(0.0, 100.0, 1.4);
  EXPECT_LT(increasing.hazard(1.0), increasing.hazard(10.0));
  EXPECT_LT(increasing.hazard(10.0), increasing.hazard(100.0));
}

TEST(Weibull, CumHazardConsistentWithSurvival) {
  const Weibull w(5.0, 50.0, 1.7);
  for (double t : {6.0, 20.0, 55.0, 200.0}) {
    EXPECT_NEAR(std::exp(-w.cum_hazard(t)), w.survival(t), 1e-12) << t;
  }
  EXPECT_DOUBLE_EQ(w.cum_hazard(5.0), 0.0);
}

TEST(Weibull, PdfIntegratesToCdf) {
  const Weibull w(2.0, 30.0, 2.5);
  const double integral =
      util::integrate([&](double t) { return w.pdf(t); }, 0.0, 60.0, 1e-12);
  EXPECT_NEAR(integral, w.cdf(60.0), 1e-8);
}

TEST(Weibull, PdfAtLocationEdge) {
  EXPECT_TRUE(std::isinf(Weibull(0.0, 10.0, 0.5).pdf(0.0)));
  EXPECT_DOUBLE_EQ(Weibull(0.0, 10.0, 1.0).pdf(0.0), 0.1);
  EXPECT_DOUBLE_EQ(Weibull(0.0, 10.0, 2.0).pdf(0.0), 0.0);
}

TEST(Weibull, SampleMomentsMatchAnalytic) {
  const Weibull w(6.0, 12.0, 2.0);
  rng::RandomStream rs(2024);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(w.sample(rs));
  EXPECT_NEAR(stats.mean(), w.mean(), 0.05);
  EXPECT_NEAR(stats.variance(), w.variance(), 0.3);
  EXPECT_GE(stats.min(), 6.0);  // location parameter respected
}

TEST(Weibull, SampleResidualMatchesConditionalLaw) {
  // For exponential (beta=1) the residual is the original law (memoryless).
  const Weibull expo(0.0, 100.0, 1.0);
  rng::RandomStream rs(5);
  util::RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(expo.sample_residual(500.0, rs));
  EXPECT_NEAR(stats.mean(), 100.0, 1.5);
}

TEST(Weibull, SampleResidualIncreasingHazardShortensLife) {
  const Weibull w(0.0, 100.0, 3.0);
  rng::RandomStream rs(6);
  util::RunningStats young, old;
  for (int i = 0; i < 50000; ++i) {
    young.add(w.sample_residual(0.0, rs));
    old.add(w.sample_residual(90.0, rs));
  }
  EXPECT_GT(young.mean(), old.mean());
  // Residual at age 0 is just the law itself.
  EXPECT_NEAR(young.mean(), w.mean(), 1.0);
}

TEST(Weibull, SampleResidualExtremeAgeStaysPositive) {
  // age >> eta: the accumulated hazard h0 = (age/eta)^beta ~ 1e20 dwarfs
  // the fresh Exp(1) draw. The old absolute-time form pow(h0 + e, 1/beta)
  // absorbed e entirely (h0 + e == h0 in doubles) and every residual
  // collapsed to exactly 0; the log-space increment keeps the draw. For
  // beta = 2 the residual is ~ eta^2/(beta*age) * e = 5e-9 * e.
  const Weibull w(0.0, 100.0, 2.0);
  rng::RandomStream rs(13);
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double r = w.sample_residual(1e12, rs);
    ASSERT_GT(r, 0.0) << i;
    ASSERT_TRUE(std::isfinite(r)) << i;
    stats.add(r);
  }
  EXPECT_NEAR(stats.mean(), 5e-9, 5e-10);

  // Increasing hazard: the extreme-age residual sits far below a
  // moderate-age one, not at a rounded-to-zero floor.
  rng::RandomStream rs2(14);
  util::RunningStats moderate;
  for (int i = 0; i < 20000; ++i) moderate.add(w.sample_residual(1e6, rs2));
  EXPECT_GT(moderate.mean(), stats.mean() * 1e3);
}

TEST(Weibull, SampleResidualBeforeLocation) {
  // Age below gamma: the drive cannot have failed; residual = (gamma - age)
  // + fresh draw beyond gamma.
  const Weibull w(10.0, 5.0, 2.0);
  rng::RandomStream rs(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(w.sample_residual(3.0, rs), 7.0);
  }
}

TEST(Weibull, TwoParamFactoryAndStddev) {
  const Weibull w = Weibull::two_param(100.0, 2.0);
  EXPECT_DOUBLE_EQ(w.location(), 0.0);
  EXPECT_DOUBLE_EQ(w.scale(), 100.0);
  EXPECT_NEAR(w.stddev(), std::sqrt(w.variance()), 1e-12);
}

TEST(Weibull, CloneIsIndependentAndEqual) {
  const Weibull w(1.0, 2.0, 3.0);
  const auto c = w.clone();
  EXPECT_NEAR(c->cdf(2.5), w.cdf(2.5), 0.0);
  EXPECT_EQ(c->describe(), w.describe());
}

TEST(Weibull, DescribeListsParameters) {
  const Weibull w(6.0, 12.0, 2.0);
  const std::string d = w.describe();
  EXPECT_NE(d.find("gamma=6"), std::string::npos);
  EXPECT_NE(d.find("eta=12"), std::string::npos);
  EXPECT_NE(d.find("beta=2"), std::string::npos);
}

TEST(Weibull, QuantileRejectsOutOfRange) {
  const Weibull w(0.0, 1.0, 1.0);
  EXPECT_THROW(static_cast<void>(w.quantile(1.0)), ModelError);
  EXPECT_THROW(static_cast<void>(w.quantile(-0.1)), ModelError);
}

}  // namespace
}  // namespace raidrel::stats
