#include "sim/convergence.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/weibull.h"
#include "support/degenerate.h"
#include "support/event_twin.h"
#include "util/error.h"

namespace raidrel::sim {
namespace {

raid::GroupConfig busy_group() {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(8, 1, m, 20000.0);
}

// A configuration that cannot lose data within the mission: no latent
// defects, and drives that outlive the horizon by ten orders of magnitude.
raid::GroupConfig immortal_group() {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Degenerate>(1e18);
  m.time_to_restore = std::make_unique<stats::Degenerate>(10.0);
  return raid::make_uniform_group(4, 1, m, 20000.0);
}

// busy_group() is latent-credited; the tests that depend on how trials are
// simulated also run its event twin (support/event_twin.h).
TEST(Convergence, ReachesTargetOnBusyScenario) {
  for (const auto& cfg : test::with_event_twin(busy_group())) {
    ConvergenceOptions opt;
    opt.target_relative_sem = 0.05;
    opt.batch_trials = 500;
    opt.min_trials = 500;
    opt.max_trials = 100000;
    opt.seed = 1;
    const auto run = run_until_converged(cfg, opt);
    EXPECT_TRUE(run.converged);
    EXPECT_EQ(run.stop, ConvergedRun::StopRule::kRelativeSem);
    EXPECT_LE(run.relative_sem, 0.05);
    EXPECT_GT(run.absolute_sem, 0.0);
    EXPECT_GE(run.batches, 1u);
    EXPECT_LE(run.result.trials(), opt.max_trials);
  }
}

TEST(Convergence, ZeroDdfConfigStopsByRuleOfThree) {
  // A config that never loses data has mean 0 and relative SEM infinity;
  // the zero-event rule must stop the loop once the rule-of-three upper
  // bound (3000/n DDFs per 1000) reaches the requested resolution instead
  // of spinning to max_trials. With the default bound 0.05 that is
  // exactly 60000 trials.
  ConvergenceOptions opt;
  opt.batch_trials = 5000;
  opt.min_trials = 5000;
  opt.max_trials = 2000000;
  opt.seed = 5;
  const auto run = run_until_converged(immortal_group(), opt);
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kZeroDdf);
  EXPECT_EQ(run.result.trials(), 60000u);
  EXPECT_EQ(run.result.total_ddfs_per_1000(), 0.0);
  EXPECT_EQ(run.absolute_sem, 0.0);
  EXPECT_TRUE(std::isinf(run.relative_sem));
}

TEST(Convergence, ZeroDdfRuleCanBeDisabled) {
  // Opting out (bound = 0) recovers the old run-out-the-budget behavior.
  ConvergenceOptions opt;
  opt.zero_ddf_upper_bound = 0.0;
  opt.batch_trials = 1000;
  opt.min_trials = 1000;
  opt.max_trials = 2000;
  opt.seed = 6;
  const auto run = run_until_converged(immortal_group(), opt);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kBudget);
  EXPECT_EQ(run.result.trials(), 2000u);
}

TEST(Convergence, AbsoluteSemTargetStops) {
  // A generous absolute target stops the loop even when the relative
  // target is unreachable.
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-9;
  opt.target_absolute_sem = 1e9;
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 100000;
  opt.seed = 7;
  const auto run = run_until_converged(busy_group(), opt);
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kAbsoluteSem);
  EXPECT_EQ(run.result.trials(), 500u);
  EXPECT_LE(run.absolute_sem, 1e9);
}

TEST(Convergence, RelativeTargetWinsOverAbsolute) {
  // Both targets are trivially satisfiable in the first batch; the loop
  // checks relative first, so that is the rule reported.
  ConvergenceOptions opt;
  opt.target_relative_sem = 10.0;
  opt.target_absolute_sem = 1e9;
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 100000;
  opt.seed = 11;
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kRelativeSem);
  EXPECT_EQ(run.result.trials(), 500u);
}

TEST(Convergence, AbsoluteTargetWinsOverZeroDdf) {
  // On a zero-DDF config the relative SEM is infinite, so the relative
  // rule can never fire. With a 60000-trial batch the rule-of-three bound
  // (3000/n = 0.05) is satisfied at the same check as a generous absolute
  // target (SEM 0) — the absolute rule is checked first and must win.
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-9;
  opt.target_absolute_sem = 1e9;
  opt.zero_ddf_upper_bound = 0.05;
  opt.batch_trials = 60000;
  opt.min_trials = 60000;
  opt.max_trials = 200000;
  opt.seed = 12;
  const auto run = run_until_converged(immortal_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kAbsoluteSem);
  EXPECT_EQ(run.result.trials(), 60000u);
  EXPECT_TRUE(std::isinf(run.relative_sem));
}

TEST(Convergence, MinTrialsGatesEveryStopRule) {
  // A trivially satisfiable relative target still may not stop the run
  // before min_trials accumulate.
  ConvergenceOptions opt;
  opt.target_relative_sem = 10.0;
  opt.batch_trials = 500;
  opt.min_trials = 1500;
  opt.max_trials = 100000;
  opt.seed = 13;
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kRelativeSem);
  EXPECT_EQ(run.result.trials(), 1500u);
  EXPECT_EQ(run.batches, 3u);
}

TEST(Convergence, MinTrialsFloorBeatsAbsoluteSemOnWideBatches) {
  // A batch wider than the remaining distance to the floor must not let
  // the absolute-SEM rule stop below min_trials: the floor is checked
  // before every rule, so the loop takes a second batch and stops at
  // 4000, not 2000.
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-9;
  opt.target_absolute_sem = 1e9;
  opt.batch_trials = 2000;
  opt.min_trials = 2500;
  opt.max_trials = 100000;
  opt.seed = 14;
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kAbsoluteSem);
  EXPECT_EQ(run.result.trials(), 4000u);
  EXPECT_EQ(run.batches, 2u);
}

TEST(Convergence, MinTrialsBucketEdgeStopsExactlyAtFloor) {
  // Boundary case: the floor lands exactly on a batch edge — the first
  // batch satisfies trials >= min_trials and the generous target stops
  // the loop right there.
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-9;
  opt.target_absolute_sem = 1e9;
  opt.batch_trials = 2000;
  opt.min_trials = 2000;
  opt.max_trials = 100000;
  opt.seed = 14;
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kAbsoluteSem);
  EXPECT_EQ(run.result.trials(), 2000u);
  EXPECT_EQ(run.batches, 1u);
}

TEST(Convergence, EssTargetStops) {
  // Untilted runs have ESS exactly equal to the trial count, which makes
  // the ESS rule's arithmetic exactly checkable: target 1200 with
  // 500-trial batches stops at 1500.
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-9;
  opt.target_ess = 1200.0;
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 100000;
  opt.seed = 15;
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kEss);
  EXPECT_EQ(run.result.trials(), 1500u);
  EXPECT_DOUBLE_EQ(run.ess, 1500.0);
}

TEST(Convergence, AbsoluteTargetWinsOverEss) {
  // Both rules are satisfiable in the first round; absolute SEM has the
  // higher precedence.
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-9;
  opt.target_absolute_sem = 1e9;
  opt.target_ess = 100.0;
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 100000;
  opt.seed = 16;
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.stop, ConvergedRun::StopRule::kAbsoluteSem);
  EXPECT_EQ(run.result.trials(), 500u);
}

TEST(Convergence, StopRuleNames) {
  EXPECT_STREQ(to_string(ConvergedRun::StopRule::kBudget), "budget");
  EXPECT_STREQ(to_string(ConvergedRun::StopRule::kRelativeSem),
               "relative-sem");
  EXPECT_STREQ(to_string(ConvergedRun::StopRule::kAbsoluteSem),
               "absolute-sem");
  EXPECT_STREQ(to_string(ConvergedRun::StopRule::kEss), "ess");
  EXPECT_STREQ(to_string(ConvergedRun::StopRule::kZeroDdf), "zero-ddf");
}

TEST(Convergence, StopsAtBudgetWhenTargetUnreachable) {
  ConvergenceOptions opt;
  opt.target_relative_sem = 1e-6;  // unreachable at this budget
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 2000;
  opt.seed = 2;
  const auto run = run_until_converged(busy_group(), opt);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.result.trials(), 2000u);
  EXPECT_EQ(run.batches, 4u);
}

TEST(Convergence, BatchedUnionEqualsSingleRun) {
  // Disjoint stream-index batches must reproduce one big run exactly
  // (counting statistics are integer sums, or 2^-26-quantized credits).
  for (const auto& cfg : test::with_event_twin(busy_group())) {
    ConvergenceOptions opt;
    opt.target_relative_sem = 1e-9;  // force it to run out the budget
    opt.batch_trials = 300;
    opt.min_trials = 300;
    opt.max_trials = 900;
    opt.seed = 3;
    const auto batched = run_until_converged(cfg, opt);
    const auto single = run_monte_carlo(
        cfg, {.trials = 900, .seed = 3, .threads = 0, .bucket_hours = 730.0});
    EXPECT_DOUBLE_EQ(batched.result.total_ddfs_per_1000(),
                     single.total_ddfs_per_1000());
    EXPECT_EQ(batched.result.op_failures(), single.op_failures());
    EXPECT_EQ(batched.result.latent_defects(), single.latent_defects());
    EXPECT_EQ(batched.result.rocof_per_1000(), single.rocof_per_1000());
  }
}

TEST(Convergence, MoreDemandingTargetUsesMoreTrials) {
  const auto cfg = busy_group();
  ConvergenceOptions loose;
  loose.target_relative_sem = 0.10;
  loose.batch_trials = 100;
  loose.min_trials = 100;
  loose.max_trials = 100000;
  loose.seed = 4;
  ConvergenceOptions tight = loose;
  tight.target_relative_sem = 0.005;
  const auto a = run_until_converged(cfg, loose);
  const auto b = run_until_converged(cfg, tight);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LT(a.result.trials(), b.result.trials());
}

TEST(Convergence, Validation) {
  ConvergenceOptions opt;
  opt.target_relative_sem = 0.0;
  EXPECT_THROW(run_until_converged(busy_group(), opt), ModelError);
  opt = {};
  opt.min_trials = 100;
  opt.max_trials = 50;
  EXPECT_THROW(run_until_converged(busy_group(), opt), ModelError);
  opt = {};
  opt.target_absolute_sem = -1.0;
  EXPECT_THROW(run_until_converged(busy_group(), opt), ModelError);
  opt = {};
  opt.zero_ddf_upper_bound = -0.1;
  EXPECT_THROW(run_until_converged(busy_group(), opt), ModelError);
  opt = {};
  opt.target_ess = -1.0;
  EXPECT_THROW(run_until_converged(busy_group(), opt), ModelError);
}

}  // namespace
}  // namespace raidrel::sim
