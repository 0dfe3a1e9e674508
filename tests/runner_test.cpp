#include "sim/runner.h"

#include <gtest/gtest.h>

#include "stats/basic_distributions.h"
#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::sim {
namespace {

raid::GroupConfig busy_group(double mission = 20000.0,
                             double latent_beta = 1.0) {
  // Failure-heavy configuration so short runs still produce DDFs. Its
  // exponential TTLd is latent-credited; latent_beta != 1 keeps it on the
  // event path.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, latent_beta);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(8, 1, m, mission);
}

TEST(Runner, AccumulatesRequestedTrials) {
  for (const double latent_beta : {1.0, 1.2}) {
    const auto cfg = busy_group(20000.0, latent_beta);
    const auto result =
        run_monte_carlo(cfg, {.trials = 500, .seed = 1, .threads = 2,
                              .bucket_hours = 1000.0});
    EXPECT_EQ(result.trials(), 500u);
    EXPECT_GT(result.total_ddfs_per_1000(), 0.0);
    EXPECT_GT(result.op_failures(), 0u);
    if (latent_beta == 1.0) {
      // Credited: latent state is integrated out, never simulated.
      EXPECT_EQ(result.latent_defects(), 0u);
      EXPECT_EQ(result.scrubs_completed(), 0u);
      EXPECT_GT(result.total_per_1000(raid::DdfKind::kLatentThenOp), 0.0);
    } else {
      EXPECT_GT(result.latent_defects(), 0u);
    }
  }
}

TEST(Runner, CountingTotalsIndependentOfThreadCount) {
  // Per-trial streams are derived from (seed, trial index): the same DDFs
  // occur whether 1 or 4 workers run them. Counts are integer sums — and
  // latent credits multiples of 2^-26 — so they match exactly.
  for (const double latent_beta : {1.0, 1.2}) {
    SCOPED_TRACE(latent_beta);
    const auto cfg = busy_group(20000.0, latent_beta);
    const RunOptions base{.trials = 400, .seed = 7, .threads = 1,
                          .bucket_hours = 1000.0};
    RunOptions multi = base;
    multi.threads = 4;
    const auto r1 = run_monte_carlo(cfg, base);
    const auto r4 = run_monte_carlo(cfg, multi);
    EXPECT_DOUBLE_EQ(r1.total_ddfs_per_1000(), r4.total_ddfs_per_1000());
    EXPECT_EQ(r1.op_failures(), r4.op_failures());
    EXPECT_EQ(r1.latent_defects(), r4.latent_defects());
    EXPECT_EQ(r1.scrubs_completed(), r4.scrubs_completed());
    const auto c1 = r1.cumulative_ddfs_per_1000();
    const auto c4 = r4.cumulative_ddfs_per_1000();
    ASSERT_EQ(c1.size(), c4.size());
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_DOUBLE_EQ(c1[i], c4[i]) << i;
    }
    EXPECT_EQ(r1.rocof_per_1000(), r4.rocof_per_1000());  // bit for bit
  }
}

TEST(Runner, DifferentSeedsGiveDifferentButCloseResults) {
  const auto cfg = busy_group();
  const auto a = run_monte_carlo(cfg, {.trials = 2000, .seed = 1,
                                       .threads = 0, .bucket_hours = 1000.0});
  const auto b = run_monte_carlo(cfg, {.trials = 2000, .seed = 2,
                                       .threads = 0, .bucket_hours = 1000.0});
  EXPECT_NE(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
  const double sem = a.total_ddfs_per_1000_sem() + b.total_ddfs_per_1000_sem();
  EXPECT_NEAR(a.total_ddfs_per_1000(), b.total_ddfs_per_1000(), 6.0 * sem);
}

TEST(Runner, RejectsZeroTrials) {
  const auto cfg = busy_group();
  EXPECT_THROW(run_monte_carlo(cfg, {.trials = 0}), ModelError);
}

TEST(RunResult, CumulativeSeriesIsMonotone) {
  const auto cfg = busy_group();
  const auto r = run_monte_carlo(cfg, {.trials = 500, .seed = 3,
                                       .threads = 0, .bucket_hours = 500.0});
  const auto cum = r.cumulative_ddfs_per_1000();
  for (std::size_t i = 1; i < cum.size(); ++i) {
    EXPECT_GE(cum[i], cum[i - 1]);
  }
  EXPECT_NEAR(cum.back(), r.total_ddfs_per_1000(), 1e-9);
}

TEST(RunResult, RocofSumsToTotal) {
  const auto cfg = busy_group();
  const auto r = run_monte_carlo(cfg, {.trials = 300, .seed = 4,
                                       .threads = 0, .bucket_hours = 500.0});
  const auto rocof = r.rocof_per_1000();
  double total = 0.0;
  for (double v : rocof) total += v;
  EXPECT_NEAR(total, r.total_ddfs_per_1000(), 1e-9);
}

TEST(RunResult, KindSplitSumsToTotal) {
  const auto cfg = busy_group();
  const auto r = run_monte_carlo(cfg, {.trials = 500, .seed = 5,
                                       .threads = 0, .bucket_hours = 500.0});
  const double split = r.total_per_1000(raid::DdfKind::kDoubleOperational) +
                       r.total_per_1000(raid::DdfKind::kLatentThenOp);
  EXPECT_NEAR(split, r.total_ddfs_per_1000(), 1e-9);
}

TEST(RunResult, InterpolatedQueryMatchesBucketEdges) {
  const auto cfg = busy_group();
  const auto r = run_monte_carlo(cfg, {.trials = 300, .seed = 6,
                                       .threads = 0, .bucket_hours = 500.0});
  const auto cum = r.cumulative_ddfs_per_1000();
  EXPECT_NEAR(r.ddfs_per_1000_at(500.0), cum[0], 1e-9);
  EXPECT_NEAR(r.ddfs_per_1000_at(1000.0), cum[1], 1e-9);
  EXPECT_DOUBLE_EQ(r.ddfs_per_1000_at(0.0), 0.0);
  // Mid-bucket value lies between the edges.
  const double mid = r.ddfs_per_1000_at(750.0);
  EXPECT_GE(mid, cum[0]);
  EXPECT_LE(mid, cum[1]);
}

TEST(RunResult, MergeRejectsMismatchedGeometry) {
  RunResult a(1000.0, 100.0);
  RunResult b(1000.0, 200.0);
  EXPECT_THROW(a.merge(b), ModelError);
}

TEST(RunResult, QueriesRequireTrials) {
  RunResult empty(1000.0, 100.0);
  EXPECT_THROW(static_cast<void>(empty.total_ddfs_per_1000()), ModelError);
  EXPECT_THROW(empty.cumulative_ddfs_per_1000(), ModelError);
}

TEST(RunResult, SemShrinksWithMoreTrials) {
  const auto cfg = busy_group();
  const auto small = run_monte_carlo(cfg, {.trials = 200, .seed = 8,
                                           .threads = 0,
                                           .bucket_hours = 1000.0});
  const auto large = run_monte_carlo(cfg, {.trials = 3200, .seed = 8,
                                           .threads = 0,
                                           .bucket_hours = 1000.0});
  EXPECT_LT(large.total_ddfs_per_1000_sem(),
            small.total_ddfs_per_1000_sem());
}

}  // namespace
}  // namespace raidrel::sim
