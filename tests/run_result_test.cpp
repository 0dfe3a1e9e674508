// Direct unit tests of the RunResult accumulator using hand-built
// TrialResults (the runner tests cover it end-to-end; these pin the
// bucket arithmetic itself).
#include "sim/run_result.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace raidrel::sim {
namespace {

TrialResult trial_with_ddfs(std::initializer_list<double> times,
                            raid::DdfKind kind) {
  TrialResult t;
  for (double time : times) t.ddfs.push_back({time, kind});
  return t;
}

TEST(RunResult, BucketsEventsByTime) {
  RunResult r(1000.0, 100.0);
  r.add_trial(trial_with_ddfs({50.0, 150.0, 999.0},
                              raid::DdfKind::kDoubleOperational));
  const auto rocof = r.rocof_per_1000();
  ASSERT_EQ(rocof.size(), 10u);
  EXPECT_DOUBLE_EQ(rocof[0], 1000.0);  // one event in one trial, x1000
  EXPECT_DOUBLE_EQ(rocof[1], 1000.0);
  EXPECT_DOUBLE_EQ(rocof[9], 1000.0);
  EXPECT_DOUBLE_EQ(rocof[5], 0.0);
}

TEST(RunResult, BoundaryEventGoesToRightBucket) {
  RunResult r(1000.0, 100.0);
  r.add_trial(trial_with_ddfs({100.0}, raid::DdfKind::kLatentThenOp));
  const auto rocof = r.rocof_per_1000();
  EXPECT_DOUBLE_EQ(rocof[0], 0.0);
  EXPECT_DOUBLE_EQ(rocof[1], 1000.0);
}

TEST(RunResult, NonDividingBucketWidthClipsLastBucket) {
  RunResult r(250.0, 100.0);  // buckets [0,100), [100,200), [200,250]
  EXPECT_EQ(r.bucket_count(), 3u);
  EXPECT_DOUBLE_EQ(r.bucket_edge(0), 100.0);
  EXPECT_DOUBLE_EQ(r.bucket_edge(2), 250.0);
  r.add_trial(trial_with_ddfs({240.0}, raid::DdfKind::kLatentThenOp));
  EXPECT_DOUBLE_EQ(r.rocof_per_1000()[2], 1000.0);
}

TEST(RunResult, ProbeSeriesIndependentOfCounting) {
  RunResult r(1000.0, 100.0, /*double_op_probe=*/true);
  TrialResult t;
  t.double_op_probe.emplace_back(50.0, 0.25);
  t.double_op_probe.emplace_back(850.0, 0.5);
  r.add_trial(t);
  EXPECT_DOUBLE_EQ(r.total_ddfs_per_1000(), 0.0);
  EXPECT_DOUBLE_EQ(r.total_ddfs_per_1000(Estimator::kDoubleOpProbe), 750.0);
  const auto cum = r.cumulative_ddfs_per_1000(Estimator::kDoubleOpProbe);
  EXPECT_DOUBLE_EQ(cum[0], 250.0);
  EXPECT_DOUBLE_EQ(cum[7], 250.0);
  EXPECT_DOUBLE_EQ(cum[8], 750.0);
}

TEST(RunResult, PerKindSplit) {
  RunResult r(1000.0, 100.0);
  r.add_trial(trial_with_ddfs({10.0}, raid::DdfKind::kDoubleOperational));
  r.add_trial(trial_with_ddfs({20.0, 30.0}, raid::DdfKind::kLatentThenOp));
  r.add_trial(
      trial_with_ddfs({40.0}, raid::DdfKind::kLatentStripeCollision));
  EXPECT_EQ(r.trials(), 3u);
  const double scale = 1000.0 / 3.0;
  EXPECT_DOUBLE_EQ(r.total_per_1000(raid::DdfKind::kDoubleOperational),
                   1.0 * scale);
  EXPECT_DOUBLE_EQ(r.total_per_1000(raid::DdfKind::kLatentThenOp),
                   2.0 * scale);
  EXPECT_DOUBLE_EQ(r.total_per_1000(raid::DdfKind::kLatentStripeCollision),
                   1.0 * scale);
  EXPECT_DOUBLE_EQ(r.total_ddfs_per_1000(), 4.0 * scale);
}

TEST(RunResult, InterpolationIsPiecewiseLinear) {
  RunResult r(1000.0, 100.0);
  r.add_trial(trial_with_ddfs({150.0}, raid::DdfKind::kLatentThenOp));
  // Cumulative: 0 through bucket 0, 1000 from bucket 1's edge (t=200).
  EXPECT_DOUBLE_EQ(r.ddfs_per_1000_at(100.0), 0.0);
  EXPECT_DOUBLE_EQ(r.ddfs_per_1000_at(200.0), 1000.0);
  EXPECT_DOUBLE_EQ(r.ddfs_per_1000_at(150.0), 500.0);  // mid-bucket
  EXPECT_DOUBLE_EQ(r.ddfs_per_1000_at(1000.0), 1000.0);
}

TEST(RunResult, MergePreservesEverything) {
  RunResult a(1000.0, 100.0), b(1000.0, 100.0);
  a.add_trial(trial_with_ddfs({50.0}, raid::DdfKind::kDoubleOperational));
  TrialResult t = trial_with_ddfs({250.0}, raid::DdfKind::kLatentThenOp);
  t.op_failures = 3;
  t.latent_defects = 7;
  b.add_trial(t);
  a.merge(b);
  EXPECT_EQ(a.trials(), 2u);
  EXPECT_EQ(a.op_failures(), 3u);
  EXPECT_EQ(a.latent_defects(), 7u);
  EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(), 1000.0);
  EXPECT_DOUBLE_EQ(a.per_trial_ddfs().mean(), 1.0);
  EXPECT_DOUBLE_EQ(a.per_trial_ddfs().variance(), 0.0);
}

TEST(RunResult, FirstDriveTermSubtractsMarksAndAddsBackItsMean) {
  // Buckets [0,100), [100,200), [200,250]; one trial's expected term per
  // bucket is {0.25, 0.125, 0}.
  const std::vector<double> mean{0.25, 0.125, 0.0};
  RunResult r(250.0, 100.0, false, mean);
  TrialResult marked;
  marked.latent_credited = true;
  marked.latent_credit = {{150.0, 0.5}};
  marked.first_drive_failures = {{150.0, 0.375}};
  r.add_trial(marked);
  r.add_trial(TrialResult{});
  // Bucket 1: credit 0.5 - mark 0.375 + 2 trials * 0.125 = 0.375.
  const std::vector<double> rocof{500.0 / 2.0 * 1.0, 375.0 / 2.0, 0.0};
  EXPECT_EQ(r.rocof_per_1000(), rocof);
  EXPECT_DOUBLE_EQ(r.total_ddfs_per_1000(), 437.5);
  EXPECT_DOUBLE_EQ(r.total_per_1000(raid::DdfKind::kLatentThenOp), 437.5);
  // Per-trial values carry the term too: 0.5 - 0.375 + 0.375 and 0.375.
  EXPECT_DOUBLE_EQ(r.per_trial_ddfs().mean(), 0.4375);

  // A bare result ignores the marks (the plain credited estimate) ...
  RunResult bare(250.0, 100.0);
  bare.add_trial(marked);
  EXPECT_DOUBLE_EQ(bare.total_ddfs_per_1000(), 500.0);
  // ... adopts a merged result's mean for that result's trials only ...
  bare.merge(r);
  EXPECT_EQ(bare.trials(), 3u);
  EXPECT_DOUBLE_EQ(bare.total_ddfs_per_1000(), (500.0 + 875.0) / 3.0);
  // ... and two different means never merge.
  RunResult other(250.0, 100.0, false, {0.25, 0.125, 0.0625});
  EXPECT_THROW(r.merge(other), ModelError);
  EXPECT_THROW(RunResult(250.0, 100.0, false, {0.25}), ModelError);
}

TEST(RunResult, GeometryValidation) {
  EXPECT_THROW(RunResult(0.0, 10.0), ModelError);
  EXPECT_THROW(RunResult(100.0, 0.0), ModelError);
  EXPECT_THROW(RunResult(100.0, 200.0), ModelError);
  RunResult r(100.0, 10.0);
  EXPECT_THROW(static_cast<void>(r.bucket_edge(10)), ModelError);
  r.add_trial(TrialResult{});
  EXPECT_THROW(static_cast<void>(r.ddfs_per_1000_at(101.0)), ModelError);
  EXPECT_THROW(static_cast<void>(r.ddfs_per_1000_at(-1.0)), ModelError);
}

}  // namespace
}  // namespace raidrel::sim
