// The two independently implemented engines (event-driven GroupSimulator
// and the paper-procedure TimingDiagramEngine) must agree statistically on
// every scenario class the experiments use. Disagreement beyond Monte Carlo
// noise means one of them mis-implements the model.
#include <cmath>

#include <gtest/gtest.h>

#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "sim/timing_engine.h"
#include "stats/bootstrap.h"
#include "stats/weibull.h"
#include "util/math.h"

namespace raidrel::sim {
namespace {

struct EngineStats {
  util::RunningStats ddfs;
  util::RunningStats op_failures;
  util::RunningStats latent_defects;
};

template <typename Engine>
EngineStats collect(const raid::GroupConfig& cfg, std::size_t trials,
                    std::uint64_t seed) {
  Engine engine(cfg);
  rng::StreamFactory streams(seed);
  TrialResult out;
  EngineStats s;
  for (std::size_t i = 0; i < trials; ++i) {
    auto rs = streams.stream(i);
    engine.run_trial(rs, out);
    s.ddfs.add(static_cast<double>(out.ddfs.size()));
    s.op_failures.add(static_cast<double>(out.op_failures));
    s.latent_defects.add(static_cast<double>(out.latent_defects));
  }
  return s;
}

void expect_statistically_equal(const util::RunningStats& a,
                                const util::RunningStats& b,
                                const char* what, double sigmas = 5.0,
                                double slack = 0.0) {
  const double sem = std::sqrt(a.sem() * a.sem() + b.sem() * b.sem());
  // `slack` (relative) absorbs documented semantic differences when a test
  // deliberately runs the engines in non-identical modes.
  const double tol = sigmas * sem + slack * std::max(a.mean(), b.mean());
  EXPECT_NEAR(a.mean(), b.mean(), tol)
      << what << ": event=" << a.mean() << " timing=" << b.mean();
}

raid::SlotModel intense_slot(bool latent, bool scrub) {
  // Compressed time scales so a few thousand trials give tight statistics.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  if (latent) {
    m.time_to_latent_defect =
        std::make_unique<stats::Weibull>(0.0, 800.0, 1.0);
  }
  if (scrub) {
    m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 150.0, 3.0);
  }
  return m;
}

// The TimingDiagramEngine pre-generates defect timelines, so it cannot wipe
// them when a DDF restore completes; cross-validation runs the event engine
// with the same (paper §5 pairwise-procedure) convention.
raid::GroupConfig paper_s5_group(unsigned drives, unsigned redundancy,
                                 const raid::SlotModel& slot,
                                 double mission) {
  auto cfg = raid::make_uniform_group(drives, redundancy, slot, mission);
  cfg.clear_defects_on_ddf_restore = false;
  return cfg;
}

TEST(EngineCrossValidation, DoubleOpOnlyScenario) {
  const auto cfg =
      paper_s5_group(8, 1, intense_slot(false, false), 20000.0);
  const auto a = collect<GroupSimulator>(cfg, 4000, 11);
  const auto b = collect<TimingDiagramEngine>(cfg, 4000, 12);
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs");
  expect_statistically_equal(a.op_failures, b.op_failures, "op failures");
}

TEST(EngineCrossValidation, LatentDefectsNoScrub) {
  const auto cfg = paper_s5_group(8, 1, intense_slot(true, false), 20000.0);
  const auto a = collect<GroupSimulator>(cfg, 3000, 21);
  const auto b = collect<TimingDiagramEngine>(cfg, 3000, 22);
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs");
  expect_statistically_equal(a.latent_defects, b.latent_defects,
                             "latent defects");
}

TEST(EngineCrossValidation, LatentDefectsWithScrub) {
  const auto cfg = paper_s5_group(8, 1, intense_slot(true, true), 20000.0);
  const auto a = collect<GroupSimulator>(cfg, 3000, 31);
  const auto b = collect<TimingDiagramEngine>(cfg, 3000, 32);
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs");
  expect_statistically_equal(a.latent_defects, b.latent_defects,
                             "latent defects");
  expect_statistically_equal(a.op_failures, b.op_failures, "op failures");
}

TEST(EngineCrossValidation, Raid6Scenario) {
  const auto cfg = paper_s5_group(10, 2, intense_slot(true, true), 20000.0);
  const auto a = collect<GroupSimulator>(cfg, 3000, 41);
  const auto b = collect<TimingDiagramEngine>(cfg, 3000, 42);
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs");
}

TEST(EngineCrossValidation, TripleRedundancyScenario) {
  // m = 3: the generic `down + defective > redundancy` comparison and the
  // timing engine's pairwise §5 procedure must keep agreeing beyond the
  // two redundancy levels the paper evaluates.
  const auto cfg = paper_s5_group(12, 3, intense_slot(true, true), 20000.0);
  const auto a = collect<GroupSimulator>(cfg, 3000, 71);
  const auto b = collect<TimingDiagramEngine>(cfg, 3000, 72);
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs");
  expect_statistically_equal(a.op_failures, b.op_failures, "op failures");
}

TEST(EngineCrossValidation, QuadRedundancyScenario) {
  // m = 4: data loss needs five overlapping faults, deep in the regime
  // the census and freeze logic were never exercised in before.
  const auto cfg = paper_s5_group(12, 4, intense_slot(true, true), 20000.0);
  const auto a = collect<GroupSimulator>(cfg, 3000, 81);
  const auto b = collect<TimingDiagramEngine>(cfg, 3000, 82);
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs");
  expect_statistically_equal(a.op_failures, b.op_failures, "op failures");
}

TEST(EngineCrossValidation, StateOneResetOnlyTrimsDdfs) {
  // With defect wiping ON (the paper's state-1 semantics) the event engine
  // must report no more DDFs than the §5 convention, and the two must stay
  // within a modest band in a base-case-like (DDF-sparse) regime.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 8000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 150.0, 3.0);
  auto with_reset = raid::make_uniform_group(8, 1, m, 20000.0);
  auto without = with_reset.clone();
  without.clear_defects_on_ddf_restore = false;
  const auto a = collect<GroupSimulator>(with_reset, 4000, 51);
  const auto b = collect<GroupSimulator>(without, 4000, 51);
  EXPECT_LE(a.ddfs.mean(), b.ddfs.mean() + 3.0 * b.ddfs.sem());
  expect_statistically_equal(a.ddfs, b.ddfs, "ddfs", 5.0, 0.05);
}

TEST(EngineCrossValidation, ProbeAgreesWithCountingWhenDdfsArePlentiful) {
  // In a failure-heavy no-latent-defect scenario the conditional-
  // expectation probe and the raw counter estimate the same quantity.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 5000.0, 1.0);
  m.time_to_restore = std::make_unique<stats::Weibull>(0.0, 100.0, 1.0);
  const auto cfg = raid::make_uniform_group(8, 1, m, 20000.0);
  const auto r = run_monte_carlo(cfg, {.trials = 6000, .seed = 55,
                                       .threads = 0, .bucket_hours = 2000.0,
                                       .double_op_probe = true});
  const double counted = r.total_ddfs_per_1000();
  const double probed = r.total_ddfs_per_1000(Estimator::kDoubleOpProbe);
  ASSERT_GT(counted, 50.0);  // plenty of events
  // The probe scores each failure's chance of *initiating* data loss; at
  // these (non-rare) rates the no-DDF-path approximation and the freeze
  // convention cost a few percent, no more.
  EXPECT_NEAR(probed / counted, 1.0, 0.10);
}

TEST(EngineCrossValidation, TiltedEstimateWithinPlainBootstrapCi) {
  // The importance-sampled (tilted) estimator targets the same per-trial
  // DDF mean as the plain counting estimator. Bootstrap a 99% interval
  // around the plain estimate and require the tilted one to land inside
  // it, widened by the tilted run's own standard error.
  const auto cfg = paper_s5_group(8, 1, intense_slot(true, true), 20000.0);
  GroupSimulator engine(cfg);
  rng::StreamFactory streams(61);
  TrialResult out;
  stats::LifeData counts;
  for (std::size_t i = 0; i < 3000; ++i) {
    auto rs = streams.stream(i);
    engine.run_trial(rs, out);
    counts.push_back({static_cast<double>(out.ddfs.size()), true});
  }
  rng::RandomStream rs(62);
  const auto ci = stats::bootstrap_ci(
      counts,
      [](const stats::LifeData& d) {
        double s = 0.0;
        for (const auto& o : d) s += o.time;
        return s / static_cast<double>(d.size());
      },
      400, 0.99, rs);

  RunOptions opt{.trials = 3000, .seed = 63, .threads = 0,
                 .bucket_hours = 2000.0};
  opt.tilt = TiltSpec{1.5, 1.3};
  const auto tilted = run_monte_carlo(cfg, opt);
  const double estimate = tilted.total_ddfs_per_1000() / 1000.0;
  const double sem = tilted.total_ddfs_per_1000_sem() / 1000.0;
  ASSERT_GT(sem, 0.0);
  EXPECT_GT(estimate, ci.lower - 3.0 * sem);
  EXPECT_LT(estimate, ci.upper + 3.0 * sem);
  EXPECT_GT(tilted.ess(), 0.0);
}

}  // namespace
}  // namespace raidrel::sim
