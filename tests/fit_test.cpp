#include "stats/fit.h"

#include <cmath>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "util/error.h"

namespace raidrel::stats {
namespace {

std::vector<double> draw(const Weibull& w, int n, std::uint64_t seed) {
  rng::RandomStream rs(seed);
  std::vector<double> times(n);
  for (auto& t : times) t = w.sample(rs);
  return times;
}

// Complete data: every time is a failure.
LifeData complete(const std::vector<double>& times) {
  LifeData data;
  data.reserve(times.size());
  for (double t : times) data.push_back({t, true});
  return data;
}

LifeData draw_censored(const Weibull& w, int n, double window,
                       std::uint64_t seed) {
  rng::RandomStream rs(seed);
  LifeData data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double t = w.sample(rs);
    data.push_back(t < window ? LifeObservation{t, true}
                              : LifeObservation{window, false});
  }
  return data;
}

TEST(RankRegression, RecoversCompleteSampleParameters) {
  const Weibull w(0.0, 1000.0, 1.5);
  const auto fit =
      fit_weibull_rank_regression_censored(complete(draw(w, 4000, 1)));
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.beta, 1.5, 0.08);
  EXPECT_NEAR(fit.params.eta, 1000.0, 40.0);
  EXPECT_GT(fit.r_squared, 0.97);
  EXPECT_EQ(fit.n_failures, 4000u);
}

TEST(RankRegression, CensoredRecovery) {
  const Weibull w(0.0, 1000.0, 2.0);
  const auto data = draw_censored(w, 6000, 900.0, 2);
  const auto fit = fit_weibull_rank_regression_censored(data);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.beta, 2.0, 0.12);
  EXPECT_NEAR(fit.params.eta, 1000.0, 60.0);
  EXPECT_LT(fit.n_failures, fit.n_total);
}

TEST(RankRegression, LowLinearityOnMixture) {
  // A strongly bimodal population should NOT look Weibull: r^2 visibly
  // below a clean sample's (the paper's "only HDD #1 fits" observation).
  rng::RandomStream rs(3);
  const Weibull early(0.0, 50.0, 3.0);
  const Weibull late(0.0, 5000.0, 3.0);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    times.push_back(rs.bernoulli(0.5) ? early.sample(rs) : late.sample(rs));
  }
  const auto fit = fit_weibull_rank_regression_censored(complete(times));
  const auto clean = fit_weibull_rank_regression_censored(
      complete(draw(Weibull(0.0, 500.0, 1.5), 2000, 4)));
  EXPECT_LT(fit.r_squared, clean.r_squared - 0.01);
}

TEST(Mle, RecoversCompleteSampleParameters) {
  const Weibull w(0.0, 461386.0, 1.12);  // the paper's TTOp
  LifeData data;
  for (double t : draw(w, 5000, 5)) data.push_back({t, true});
  const auto fit = fit_weibull_mle(data);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.beta, 1.12, 0.04);
  EXPECT_NEAR(fit.params.eta, 461386.0, 15000.0);
}

TEST(Mle, HeavilyCensoredFieldStudyShape) {
  // The paper's vintage-2 shape: ~24k drives, ~1k failures (96% censored).
  const Weibull w(0.0, 1.2566e5, 1.2162);
  const auto data = draw_censored(w, 24000, 9000.0, 6);
  std::size_t failures = 0;
  for (const auto& d : data) failures += d.event;
  ASSERT_GT(failures, 500u);
  ASSERT_LT(failures, 2500u);
  const auto fit = fit_weibull_mle(data);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.beta, 1.2162, 0.1);
  // Eta is extrapolated far beyond the window; accept 20%.
  EXPECT_NEAR(fit.params.eta, 1.2566e5, 0.2 * 1.2566e5);
}

TEST(Mle, ExponentialDataYieldsBetaNearOne) {
  const Weibull w(0.0, 9259.0, 1.0);  // the paper's TTLd
  LifeData data;
  for (double t : draw(w, 4000, 7)) data.push_back({t, true});
  const auto fit = fit_weibull_mle(data);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.params.beta, 1.0, 0.04);
}

TEST(Mle, LikelihoodAtTruthBeatsPerturbedParams) {
  const Weibull w(0.0, 100.0, 2.0);
  LifeData data;
  for (double t : draw(w, 3000, 8)) data.push_back({t, true});
  const double at_truth = weibull_log_likelihood(data, {0.0, 100.0, 2.0});
  EXPECT_GT(at_truth, weibull_log_likelihood(data, {0.0, 100.0, 1.0}));
  EXPECT_GT(at_truth, weibull_log_likelihood(data, {0.0, 200.0, 2.0}));
}

TEST(Mle, FitMaximizesLikelihoodLocally) {
  const Weibull w(0.0, 500.0, 1.3);
  LifeData data;
  for (double t : draw(w, 2000, 9)) data.push_back({t, true});
  const auto fit = fit_weibull_mle(data);
  ASSERT_TRUE(fit.converged);
  const double ll = fit.log_likelihood;
  for (double db : {-0.05, 0.05}) {
    WeibullParams p = fit.params;
    p.beta += db;
    EXPECT_GT(ll, weibull_log_likelihood(data, p));
  }
  for (double de : {-20.0, 20.0}) {
    WeibullParams p = fit.params;
    p.eta += de;
    EXPECT_GT(ll, weibull_log_likelihood(data, p));
  }
}

TEST(Mle, RequiresTwoFailures) {
  LifeData data{{5.0, true}, {10.0, false}};
  EXPECT_THROW(fit_weibull_mle(data), ModelError);
}

}  // namespace
}  // namespace raidrel::stats
