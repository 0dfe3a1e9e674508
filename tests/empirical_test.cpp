#include "stats/empirical.h"

#include <cmath>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::stats {
namespace {

// Complete data: every time is a failure.
LifeData complete(const std::vector<double>& times) {
  LifeData data;
  data.reserve(times.size());
  for (double t : times) data.push_back({t, true});
  return data;
}

TEST(MedianRank, BernardApproximation) {
  // Complete data plots at F_i ~ (i - 0.3) / (n + 0.4).
  std::vector<double> times;
  for (int i = 1; i <= 10; ++i) times.push_back(10.0 * i);
  const auto pts = weibull_plot_points_censored(complete(times));
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_NEAR(pts.front().f_estimate, 0.7 / 10.4, 1e-12);
  EXPECT_NEAR(pts.back().f_estimate, 9.7 / 10.4, 1e-12);
}

TEST(WeibullPlot, PointsAreSortedAndTransformed) {
  const auto pts = weibull_plot_points_censored(complete({30.0, 10.0, 20.0}));
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].time, 10.0);
  EXPECT_DOUBLE_EQ(pts[2].time, 30.0);
  for (const auto& p : pts) {
    EXPECT_NEAR(p.x, std::log(p.time), 1e-12);
    EXPECT_NEAR(p.y, std::log(-std::log(1.0 - p.f_estimate)), 1e-12);
  }
  // F estimates strictly increasing.
  EXPECT_LT(pts[0].f_estimate, pts[1].f_estimate);
  EXPECT_LT(pts[1].f_estimate, pts[2].f_estimate);
}

TEST(WeibullPlot, TrueWeibullSamplesFallOnAStraightLine) {
  const Weibull w(0.0, 1000.0, 2.0);
  rng::RandomStream rs(1);
  std::vector<double> times;
  for (int i = 0; i < 5000; ++i) times.push_back(w.sample(rs));
  const auto pts = weibull_plot_points_censored(complete(times));
  // Regress y on x and verify slope ~ beta with high linearity.
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (const auto& p : pts) {
    sx += p.x;
    sy += p.y;
    sxx += p.x * p.x;
    sxy += p.x * p.y;
    syy += p.y * p.y;
  }
  const double n = static_cast<double>(pts.size());
  const double slope = (sxy - sx * sy / n) / (sxx - sx * sx / n);
  const double r2 = (sxy - sx * sy / n) * (sxy - sx * sy / n) /
                    ((sxx - sx * sx / n) * (syy - sy * sy / n));
  EXPECT_NEAR(slope, 2.0, 0.1);
  EXPECT_GT(r2, 0.98);
}

TEST(WeibullPlot, CensoredRanksShiftLaterFailures) {
  // Johnson adjustment: suspensions between failures push the adjusted
  // ranks of subsequent failures upward relative to the no-censoring case.
  LifeData data{{100.0, true}, {150.0, false}, {150.0, false}, {200.0, true},
                {250.0, true}, {300.0, false}};
  const auto pts = weibull_plot_points_censored(data);
  ASSERT_EQ(pts.size(), 3u);
  // First failure: no prior suspensions, rank 1 as usual.
  EXPECT_NEAR(pts[0].f_estimate, (1.0 - 0.3) / (6.0 + 0.4), 1e-12);
  // Later failures have adjusted rank increments > 1.
  const double inc1 = pts[1].f_estimate - pts[0].f_estimate;
  EXPECT_GT(inc1, (1.0 - 1e-12) / 6.4);
  EXPECT_LT(pts.back().f_estimate, 1.0);
}

TEST(WeibullPlot, CensoredWithNoSuspensionsMatchesComplete) {
  // Without suspensions Johnson's adjusted ranks are the plain ranks.
  LifeData data{{10.0, true}, {20.0, true}, {30.0, true}};
  const auto censored = weibull_plot_points_censored(data);
  ASSERT_EQ(censored.size(), 3u);
  for (std::size_t i = 0; i < censored.size(); ++i) {
    const double rank = static_cast<double>(i + 1);
    EXPECT_NEAR(censored[i].f_estimate, (rank - 0.3) / 3.4, 1e-9);
  }
}

TEST(WeibullPlot, AllCensoredThrows) {
  LifeData data{{10.0, false}, {20.0, false}};
  EXPECT_THROW(weibull_plot_points_censored(data), ModelError);
}

}  // namespace
}  // namespace raidrel::stats
