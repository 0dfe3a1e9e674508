#include "util/math.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"

namespace raidrel::util {
namespace {

TEST(LogGamma, MatchesFactorials) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(log_gamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(LogGamma, RejectsNonPositive) {
  EXPECT_THROW(log_gamma(0.0), ModelError);
  EXPECT_THROW(log_gamma(-1.0), ModelError);
}

TEST(GammaFn, HalfIntegerValues) {
  EXPECT_NEAR(gamma_fn(0.5), std::sqrt(M_PI), 1e-12);
  EXPECT_NEAR(gamma_fn(1.5), 0.5 * std::sqrt(M_PI), 1e-12);
  EXPECT_NEAR(gamma_fn(3.0), 2.0, 1e-12);
}

TEST(GammaP, KnownValues) {
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(gamma_p(1.0, 0.5), 1.0 - std::exp(-0.5), 1e-12);
  // P(a, 0) = 0 and limits.
  EXPECT_DOUBLE_EQ(gamma_p(2.5, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(2.0, 100.0), 1.0, 1e-12);
}

TEST(GammaP, ComplementsGammaQ) {
  for (double a : {0.3, 1.0, 2.7, 10.0, 50.0}) {
    for (double x : {0.01, 0.5, 1.0, 5.0, 30.0, 120.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaP, ChiSquareTailMatchesTables) {
  // Chi-square with k dof: P(X <= x) = gamma_p(k/2, x/2).
  // 95th percentile of chi2(1) is 3.841.
  EXPECT_NEAR(gamma_p(0.5, 3.841 / 2.0), 0.95, 2e-4);
  // 95th percentile of chi2(10) is 18.307.
  EXPECT_NEAR(gamma_p(5.0, 18.307 / 2.0), 0.95, 2e-4);
}

TEST(NormalQuantile, MatchesKnownPoints) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-9);
  EXPECT_NEAR(normal_quantile(1e-10), -6.361340902404056, 1e-6);
}

TEST(NormalQuantile, InvertsErfBasedCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99, 0.999}) {
    const double x = normal_quantile(p);
    const double back = 0.5 * erfc_fn(-x / std::sqrt(2.0));
    EXPECT_NEAR(back, p, 1e-12) << "p=" << p;
  }
}

TEST(NormalQuantile, RejectsOutOfRange) {
  EXPECT_THROW(normal_quantile(0.0), ModelError);
  EXPECT_THROW(normal_quantile(1.0), ModelError);
}

TEST(Brent, FindsRootFasterThanBisect) {
  int calls_brent = 0;
  auto rb = brent(
      [&](double x) {
        ++calls_brent;
        return std::cos(x) - x;
      },
      0.0, 1.0);
  EXPECT_TRUE(rb.converged);
  EXPECT_NEAR(rb.root, 0.7390851332151607, 1e-10);
  EXPECT_LT(rb.iterations, 20);
}

TEST(Brent, HandlesRootAtEndpoint) {
  auto r = brent([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.root, 0.0);
}

TEST(NewtonSafe, ConvergesWithGoodDerivative) {
  auto r = newton_safe(
      [](double x) {
        return std::make_pair(x * x * x - 8.0, 3.0 * x * x);
      },
      0.0, 10.0, 5.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 2.0, 1e-9);
}

TEST(NewtonSafe, FallsBackToBisectionOnBadDerivative) {
  // Zero derivative reported everywhere: must still converge by bisection.
  auto r = newton_safe(
      [](double x) { return std::make_pair(x - 0.3, 0.0); }, 0.0, 1.0, 0.9);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 0.3, 1e-9);
}

TEST(ExpandBracket, GrowsUntilSignChange) {
  double lo = 10.0, hi = 11.0;
  ASSERT_TRUE(expand_bracket([](double x) { return x - 100.0; }, lo, hi));
  EXPECT_LE(lo, 100.0);
  EXPECT_GE(hi, 100.0);
}

TEST(Integrate, PolynomialExact) {
  const double v = integrate([](double x) { return 3.0 * x * x; }, 0.0, 2.0);
  EXPECT_NEAR(v, 8.0, 1e-9);
}

TEST(Integrate, OscillatoryFunction) {
  const double v =
      integrate([](double x) { return std::sin(x); }, 0.0, M_PI, 1e-12);
  EXPECT_NEAR(v, 2.0, 1e-9);
}

TEST(Integrate, ReversedBoundsNegate) {
  const double v = integrate([](double x) { return x; }, 1.0, 0.0);
  EXPECT_NEAR(v, -0.5, 1e-10);
}

TEST(KahanSum, SurvivesCatastrophicCancellationPattern) {
  KahanSum s;
  s.add(1e16);
  for (int i = 0; i < 10000; ++i) s.add(1.0);
  s.add(-1e16);
  EXPECT_DOUBLE_EQ(s.value(), 10000.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sem(), s.stddev() / std::sqrt(8.0), 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i * 0.01;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 1e-15, 1e-9, 1e-12));
}

}  // namespace
}  // namespace raidrel::util
