// Exact (Garwood) Poisson confidence intervals (stats/poisson_ci.h).
#include "stats/poisson_ci.h"

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "util/error.h"

namespace raidrel::stats {
namespace {

TEST(PoissonCi, KnownTableValues) {
  // Garwood exact 95% CI for observed counts (standard tables).
  const auto c0 = poisson_mean_ci(0, 0.95);
  EXPECT_DOUBLE_EQ(c0.lower, 0.0);
  EXPECT_NEAR(c0.upper, 3.689, 0.002);
  const auto c5 = poisson_mean_ci(5, 0.95);
  EXPECT_NEAR(c5.lower, 1.623, 0.002);
  EXPECT_NEAR(c5.upper, 11.668, 0.002);
  const auto c100 = poisson_mean_ci(100, 0.95);
  EXPECT_NEAR(c100.lower, 81.36, 0.05);
  EXPECT_NEAR(c100.upper, 121.63, 0.05);
}

TEST(PoissonCi, CoverageAtNominalRate) {
  // Simulate Poisson(12) counts; the 90% CI must cover 12 about 90% of
  // the time (exact intervals are conservative: >= nominal).
  rng::RandomStream rs(77);
  int covered = 0;
  const int experiments = 400;
  for (int e = 0; e < experiments; ++e) {
    std::uint64_t count = 0;
    double t = rs.exponential();
    while (t <= 12.0) {
      ++count;
      t += rs.exponential();
    }
    const auto ci = poisson_mean_ci(count, 0.90);
    covered += (ci.lower <= 12.0 && 12.0 <= ci.upper) ? 1 : 0;
  }
  EXPECT_GE(covered, static_cast<int>(0.87 * experiments));
}

TEST(PoissonCi, WidthShrinksRelatively) {
  const auto small = poisson_mean_ci(10, 0.95);
  const auto large = poisson_mean_ci(1000, 0.95);
  EXPECT_GT((small.upper - small.lower) / 10.0,
            (large.upper - large.lower) / 1000.0);
}

TEST(PoissonCi, Validation) {
  EXPECT_THROW(poisson_mean_ci(5, 0.0), ModelError);
  EXPECT_THROW(poisson_mean_ci(5, 1.0), ModelError);
}

}  // namespace
}  // namespace raidrel::stats
