// The importance-sampling layer (docs/MODEL.md §13) makes two promises.
// First, a present-but-unit tilt is *bit-identical* to the plain engines —
// same draws, same event histories, same aggregates — across every batch
// width and kernel policy. Second, an engaged tilt (failure biasing inside
// exposure windows) changes only the estimator's variance, never its
// target: tilted estimates must agree with untilted ones, and with an
// exact CTMC where one exists, within Monte Carlo error, and their
// intervals must cover it at the nominal rate.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/markov.h"
#include "obs/run_telemetry.h"
#include "sim/convergence.h"
#include "sim/fleet_simulator.h"
#include "sim/runner.h"
#include "stats/basic_distributions.h"
#include "stats/composite.h"
#include "stats/weibull.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"
#include "util/error.h"
#include "support/event_twin.h"

namespace raidrel::sim {
namespace {

raid::GroupConfig busy_group() {
  // Failure-heavy, with a spare pool so the cold paths (spare traffic,
  // freeze handling) run under the weighted samplers too.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  auto cfg = raid::make_uniform_group(8, 1, m, 20000.0);
  cfg.spare_pool = raid::SparePoolConfig{2, 200.0};
  return cfg;
}

RunOptions options_for(std::size_t width, KernelPolicy policy) {
  RunOptions opt{.trials = 400, .seed = 11, .threads = 1,
                 .bucket_hours = 1000.0};
  opt.kernel_policy = policy;
  opt.batch_width = width;
  opt.double_op_probe = true;
  return opt;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.trials(), b.trials());
  EXPECT_EQ(a.op_failures(), b.op_failures());
  EXPECT_EQ(a.latent_defects(), b.latent_defects());
  EXPECT_EQ(a.scrubs_completed(), b.scrubs_completed());
  EXPECT_EQ(a.restores_completed(), b.restores_completed());
  EXPECT_EQ(a.spare_arrivals(), b.spare_arrivals());
  const auto ca = a.cumulative_ddfs_per_1000();
  const auto cb = b.cumulative_ddfs_per_1000();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_DOUBLE_EQ(ca[i], cb[i]) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(Estimator::kDoubleOpProbe),
                   b.total_ddfs_per_1000(Estimator::kDoubleOpProbe));
}

TEST(ImportanceSampling, UnitTiltBitIdenticalAcrossWidthsAndPolicies) {
  // Widths {1, 64} x both kernel policies. Width 1 runs the scalar
  // GroupSimulator, width 64 the batched lockstep engine. busy_group() is
  // latent-credited under a unit tilt; its event twin
  // (support/event_twin.h) runs the event path.
  for (const auto& cfg : test::with_event_twin(busy_group())) {
    for (const auto policy :
         {KernelPolicy::kLowered, KernelPolicy::kVirtualOnly}) {
      for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
        const auto plain = run_monte_carlo(cfg, options_for(width, policy));
        auto tilted_opt = options_for(width, policy);
        tilted_opt.tilt = TiltSpec{};  // present but unit
        const auto unit = run_monte_carlo(cfg, tilted_opt);
        SCOPED_TRACE(testing::Message()
                     << "policy=" << static_cast<int>(policy)
                     << " width=" << width);
        expect_identical(plain, unit);
        // Unit weights: every trial contributes exactly 1.0.
        EXPECT_DOUBLE_EQ(unit.ess(), static_cast<double>(unit.trials()));
        EXPECT_DOUBLE_EQ(unit.weight_sum(), static_cast<double>(unit.trials()));
        EXPECT_DOUBLE_EQ(unit.max_weight(), 1.0);
      }
    }
  }
}

TEST(ImportanceSampling, UntiltedRunHasUnitWeights) {
  const auto r = run_monte_carlo(busy_group(), options_for(64, {}));
  EXPECT_DOUBLE_EQ(r.ess(), static_cast<double>(r.trials()));
  EXPECT_DOUBLE_EQ(r.weight_sum(), static_cast<double>(r.trials()));
  EXPECT_DOUBLE_EQ(r.max_weight(), 1.0);
}

TEST(ImportanceSampling, TiltedEstimateAgreesWithPlain) {
  // An engaged tilt reweights the sample, not the target: the weighted
  // total-DDF estimate must agree with the plain one within the combined
  // standard errors, at both widths (the batched engine forwards tilted
  // trials to the scalar core).
  const auto cfg = busy_group();
  RunOptions plain_opt{.trials = 6000, .seed = 21, .threads = 0,
                       .bucket_hours = 1000.0};
  const auto plain = run_monte_carlo(cfg, plain_opt);
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    RunOptions tilted_opt{.trials = 6000, .seed = 22, .threads = 0,
                          .bucket_hours = 1000.0};
    tilted_opt.batch_width = width;
    // A busy config opens many windows per trial, so per-draw weight
    // variance compounds; rare-event studies tilt hard because few draws
    // matter, a busy study must tilt gently.
    tilted_opt.tilt = TiltSpec{1.1, 1.0};
    const auto tilted = run_monte_carlo(cfg, tilted_opt);
    const double sem = std::hypot(plain.total_ddfs_per_1000_sem(),
                                  tilted.total_ddfs_per_1000_sem());
    EXPECT_NEAR(tilted.total_ddfs_per_1000(), plain.total_ddfs_per_1000(),
                5.0 * sem)
        << "width " << width;
    // The tilt concentrates on failure paths: weights spread, ESS drops
    // below the trial count but must stay a real sample.
    EXPECT_LT(tilted.ess(), static_cast<double>(tilted.trials()));
    EXPECT_GT(tilted.ess(), 0.05 * static_cast<double>(tilted.trials()));
    EXPECT_GT(tilted.max_weight(), 0.0);
  }
}

// All-exponential RAID-5-ish group: 4 drives, redundancy 1, memoryless
// failures and repairs, no latent defects. The group is then exactly the
// birth-death CTMC with state k = drives down, failure rate (N-k)*lambda
// and *parallel* repair rate k*mu, absorbing at k = 2. (The library's
// raid5_chain models a single repairman, which is not this simulator.)
struct CtmcCell {
  raid::GroupConfig cfg;
  double p;
};

CtmcCell parallel_repair_raid5() {
  constexpr double kLambda = 1e-5;
  constexpr double kMu = 0.1;
  constexpr double kMission = 10000.0;
  raid::SlotModel m;
  m.time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, 1.0 / kLambda, 1.0);
  m.time_to_restore = std::make_unique<stats::Weibull>(0.0, 1.0 / kMu, 1.0);
  const std::vector<double> q = {
      -4.0 * kLambda, 4.0 * kLambda,        0.0,
      kMu,            -(kMu + 3.0 * kLambda), 3.0 * kLambda,
      0.0,            0.0,                  0.0};
  return {raid::make_uniform_group(4, 1, m, kMission),
          analytic::MarkovChain(3, q).absorption_probability(0, 2, kMission)};
}

TEST(ImportanceSampling, TiltedEstimateMatchesParallelRepairCtmc) {
  const auto [cfg, p] = parallel_repair_raid5();
  ASSERT_LT(p, 5e-4);  // rare enough that brute force would struggle
  ASSERT_GT(p, 1e-5);

  RunOptions opt{.trials = 40000, .seed = 33, .threads = 0,
                 .bucket_hours = 2000.0};
  opt.tilt = TiltSpec{4.0, 1.0};
  const auto r = run_monte_carlo(cfg, opt);
  const double estimate = r.total_ddfs_per_1000() / 1000.0;
  const double sem = r.total_ddfs_per_1000_sem() / 1000.0;
  ASSERT_GT(sem, 0.0);
  EXPECT_NEAR(estimate, p, 5.0 * sem + 0.02 * p);
  // The same budget untilted would see ~p*trials (a handful) of events;
  // the tilt must retain a usable effective sample while doing far better.
  EXPECT_GT(r.ess(), 100.0);
}

TEST(ImportanceSampling, TiltedIntervalCoversTheCtmc) {
  // A strong tilt is where a global tilt's weights collapsed: its interval
  // covered the exact value in only 64% of seeds here, with |z| up to 22.
  // Tilting only inside exposure windows keeps the interval honest.
  const CtmcCell cell = parallel_repair_raid5();
  ASSERT_NEAR(cell.p, 1.198e-4, 0.001e-4);
  constexpr int kSeeds = 200;
  int covered = 0;
  double max_z = 0.0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    RunOptions opt{.trials = 20000,
                   .seed = static_cast<std::uint64_t>(seed), .threads = 0,
                   .bucket_hours = 2000.0};
    opt.tilt = TiltSpec{16.0, 1.0};
    const auto r = run_monte_carlo(cell.cfg, opt);
    const double est = r.total_ddfs_per_1000() / 1000.0;
    const double sem = r.total_ddfs_per_1000_sem() / 1000.0;
    ASSERT_GT(sem, 0.0) << "seed " << seed;
    const double z = std::fabs(est - cell.p) / sem;
    covered += z <= 1.96 ? 1 : 0;
    max_z = std::max(max_z, z);
  }
  EXPECT_GE(covered, 0.90 * kSeeds);
  EXPECT_LT(max_z, 6.0);
}

TEST(ImportanceSampling, WindowTiltKeepsWeightsHealthyOnABusyGroup) {
  // A busy 8-drive group with latent defects and scrubs (engine cross-
  // validation's paper-§5 cell): many windows open per mission, yet each
  // tilts only the partners of the drive being restored, so the weights
  // stay a real sample where a global tilt left an ESS under 1% of n.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 800.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 150.0, 3.0);
  auto cfg = raid::make_uniform_group(8, 1, m, 20000.0);
  cfg.clear_defects_on_ddf_restore = false;

  constexpr std::size_t kTrials = 20000;
  RunOptions opt{.trials = kTrials, .seed = 71, .threads = 0,
                 .bucket_hours = 2000.0};
  const auto plain = run_monte_carlo(cfg, opt);
  opt.seed = 72;
  opt.tilt = TiltSpec{1.5, 1.0};
  const auto tilted = run_monte_carlo(cfg, opt);
  const auto n = static_cast<double>(kTrials);
  EXPECT_GE(tilted.ess(), 0.2 * n);
  EXPECT_NEAR(tilted.weight_sum() / n, 1.0, 0.05);
  const double sem = std::hypot(plain.total_ddfs_per_1000_sem(),
                                tilted.total_ddfs_per_1000_sem());
  EXPECT_NEAR(tilted.total_ddfs_per_1000(), plain.total_ddfs_per_1000(),
              4.0 * sem);
}

TEST(ImportanceSampling, RejectsInvalidTheta) {
  const auto cfg = busy_group();
  for (const double bad : {0.0, -2.0}) {
    RunOptions opt{.trials = 10, .seed = 1, .threads = 1,
                   .bucket_hours = 1000.0};
    opt.tilt = TiltSpec{bad, 1.0};
    EXPECT_THROW(run_monte_carlo(cfg, opt), ModelError) << bad;
    opt.tilt = TiltSpec{1.0, bad};
    EXPECT_THROW(run_monte_carlo(cfg, opt), ModelError) << bad;
  }
}

TEST(ImportanceSampling, RejectsEngagedTiltOnVirtualLaws) {
  // kVirtualOnly forces every law onto the Distribution* fallback, which
  // has no exposed Exp(1) draw to tilt. Unit tilt stays legal (and is the
  // equivalence test above); engaged tilt must be rejected up front.
  const auto cfg = busy_group();
  RunOptions opt{.trials = 10, .seed = 1, .threads = 1,
                 .bucket_hours = 1000.0};
  opt.kernel_policy = KernelPolicy::kVirtualOnly;
  opt.tilt = TiltSpec{2.0, 1.0};
  EXPECT_THROW(run_monte_carlo(cfg, opt), ModelError);
  opt.tilt = TiltSpec{1.0, 2.0};
  EXPECT_THROW(run_monte_carlo(cfg, opt), ModelError);
  opt.tilt = TiltSpec{};  // unit: fine
  EXPECT_NO_THROW(run_monte_carlo(cfg, opt));
}

TEST(ImportanceSampling, RejectsEngagedTiltOnCompositeLawOnly) {
  // A composite op law is not lowerable: op tilt must throw. The latent
  // tilt is retired, so tilting only the (lowerable) latent law throws
  // too.
  raid::SlotModel m;
  std::vector<stats::DistributionPtr> risks;
  risks.push_back(std::make_unique<stats::Weibull>(0.0, 30000.0, 0.7));
  risks.push_back(std::make_unique<stats::Weibull>(0.0, 6000.0, 2.0));
  m.time_to_op_failure =
      std::make_unique<stats::CompetingRisks>(std::move(risks));
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  const auto cfg = raid::make_uniform_group(6, 1, m, 20000.0);
  RunOptions opt{.trials = 50, .seed = 2, .threads = 1,
                 .bucket_hours = 1000.0};
  opt.tilt = TiltSpec{2.0, 1.0};
  EXPECT_THROW(run_monte_carlo(cfg, opt), ModelError);
  opt.tilt = TiltSpec{1.0, 2.0};
  EXPECT_THROW(run_monte_carlo(cfg, opt), ModelError);
}

TEST(ImportanceSampling, FleetRunsRejectEngagedTilt) {
  FleetConfig fleet;
  fleet.groups.push_back(busy_group());
  RunOptions opt{.trials = 10, .seed = 3, .threads = 1,
                 .bucket_hours = 1000.0};
  opt.tilt = TiltSpec{2.0, 1.0};
  EXPECT_THROW(run_fleet_monte_carlo(fleet, opt), ModelError);
}

TEST(ImportanceSampling, TelemetryRecordsDiagnosticsOnlyWhenEngaged) {
  const auto cfg = busy_group();
  obs::RunTelemetry tilted_tel;
  RunOptions opt{.trials = 400, .seed = 4, .threads = 1,
                 .bucket_hours = 1000.0};
  opt.telemetry = &tilted_tel;
  opt.tilt = TiltSpec{2.0, 1.0};
  const auto r = run_monte_carlo(cfg, opt);
  ASSERT_TRUE(tilted_tel.has_importance_sampling());
  const auto& is = tilted_tel.importance_sampling();
  EXPECT_DOUBLE_EQ(is.op_theta, 2.0);
  EXPECT_DOUBLE_EQ(is.ld_theta, 1.0);
  EXPECT_DOUBLE_EQ(is.ess, r.ess());
  EXPECT_NE(tilted_tel.json().find("\"importance_sampling\""),
            std::string::npos);

  // Unit tilt and plain runs keep the manifest byte-identical to before
  // the feature existed: no importance_sampling object at all.
  obs::RunTelemetry unit_tel;
  opt.telemetry = &unit_tel;
  opt.tilt = TiltSpec{};
  run_monte_carlo(cfg, opt);
  EXPECT_FALSE(unit_tel.has_importance_sampling());
  EXPECT_EQ(unit_tel.json().find("importance_sampling"), std::string::npos);
}

TEST(ImportanceSampling, ConvergenceForwardsTiltAndReportsEss) {
  ConvergenceOptions opt;
  opt.target_relative_sem = 0.25;
  opt.batch_trials = 500;
  opt.min_trials = 500;
  opt.max_trials = 50000;
  opt.seed = 5;
  opt.tilt = TiltSpec{1.5, 1.0};
  const auto run = run_until_converged(busy_group(), opt);
  ASSERT_TRUE(run.converged);
  EXPECT_GT(run.ess, 0.0);
  EXPECT_LT(run.ess, static_cast<double>(run.result.trials()));
  EXPECT_DOUBLE_EQ(run.ess, run.result.ess());
}

// Sweep integration: a tilt axis varies only the proposal, never the model,
// so every point shares the config digest but gets its own cache key.
TEST(ImportanceSampling, SweepTiltAxisKeysCellsByTilt) {
  core::ScenarioConfig base;
  base.group_drives = 4;
  base.mission_hours = 20000.0;
  base.ttop = {0.0, 4000.0, 1.2};
  base.ttr = {6.0, 100.0, 2.0};
  base.ttld = stats::WeibullParams{0.0, 2000.0, 1.0};
  base.ttscrub = stats::WeibullParams{6.0, 300.0, 3.0};
  sweep::SweepSpec spec("tilt-check", base);
  spec.add_op_tilt_axis({1.0, 2.0});

  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[0].scenario.op_tilt, 1.0);
  EXPECT_DOUBLE_EQ(cells[1].scenario.op_tilt, 2.0);
  // Same model, same digest — the tilt is an estimation knob.
  EXPECT_EQ(cells[0].config_digest, cells[1].config_digest);

  sweep::SweepOptions opt;
  opt.convergence.target_relative_sem = 1e-9;
  opt.convergence.batch_trials = 300;
  opt.convergence.min_trials = 300;
  opt.convergence.max_trials = 600;
  opt.convergence.seed = 42;
  opt.threads = 1;
  const auto result = sweep::SweepRunner(opt).run(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_FALSE(result.cells[0].tilted());
  EXPECT_TRUE(result.cells[1].tilted());
  EXPECT_DOUBLE_EQ(result.cells[1].op_tilt, 2.0);
  EXPECT_GT(result.cells[1].ess, 0.0);
  // Equal digests but distinct cache keys: a tilted cell can never
  // satisfy an untilted cache lookup or vice versa.
  EXPECT_NE(result.cells[0].cell_key, result.cells[1].cell_key);
}

}  // namespace
}  // namespace raidrel::sim
