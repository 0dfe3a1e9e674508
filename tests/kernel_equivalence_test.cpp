// The compiled-kernel fast paths (sim/slot_kernel.h) promise *bit-identical*
// results to the virtual Distribution dispatch they replace — not merely
// statistically equivalent. These tests hold the lowered engine to that
// promise: full Monte Carlo runs under KernelPolicy::kLowered and
// KernelPolicy::kVirtualOnly must produce exactly equal event counters and
// counting-estimator curves, for every lowering class (general Weibull,
// beta=1 Weibull) and for laws that stay on the virtual
// fallback (composite distributions).
//
// Threading note: per-trial counters are integers and the counting DDF
// series sums integers per bucket, so both are exact under any merge
// order and safe to compare across thread counts. Probe-estimator sums
// are order-sensitive doubles and are only compared at threads=1.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/presets.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "sim/slot_kernel.h"
#include "sim/thread_pool.h"
#include "stats/composite.h"
#include "stats/weibull.h"

namespace raidrel::sim {
namespace {

raid::GroupConfig busy_group(double mission = 20000.0) {
  // Failure-heavy so short runs exercise restores, scrubs and the spare
  // queue, not just quiet missions.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  auto cfg = raid::make_uniform_group(8, 1, m, mission);
  cfg.spare_pool = raid::SparePoolConfig{2, 200.0};
  return cfg;
}

raid::GroupConfig exponential_group() {
  // Every law beta=1: the whole group lowers to the closed-form
  // exponential kernels.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
  m.time_to_restore = std::make_unique<stats::Weibull>(0.0, 50.0, 1.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(0.0, 300.0, 1.0);
  return raid::make_uniform_group(8, 1, m, 20000.0);
}

raid::GroupConfig composite_group() {
  // Op law is a competing-risks composite (infant mortality + wear-out):
  // not lowerable, so the engine must route it through the virtual
  // fallback while the other three laws still use fast paths.
  raid::SlotModel m;
  std::vector<stats::DistributionPtr> risks;
  risks.push_back(std::make_unique<stats::Weibull>(0.0, 30000.0, 0.7));
  risks.push_back(std::make_unique<stats::Weibull>(0.0, 6000.0, 2.0));
  m.time_to_op_failure =
      std::make_unique<stats::CompetingRisks>(std::move(risks));
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(6, 1, m, 20000.0);
}

RunOptions options_for(unsigned threads, KernelPolicy policy) {
  RunOptions opt{.trials = 400, .seed = 11, .threads = threads,
                 .bucket_hours = 1000.0};
  opt.kernel_policy = policy;
  return opt;
}

void expect_identical_runs(const raid::GroupConfig& cfg, unsigned threads) {
  const auto lowered =
      run_monte_carlo(cfg, options_for(threads, KernelPolicy::kLowered));
  const auto reference =
      run_monte_carlo(cfg, options_for(threads, KernelPolicy::kVirtualOnly));
  EXPECT_EQ(lowered.trials(), reference.trials());
  EXPECT_EQ(lowered.op_failures(), reference.op_failures());
  EXPECT_EQ(lowered.latent_defects(), reference.latent_defects());
  EXPECT_EQ(lowered.scrubs_completed(), reference.scrubs_completed());
  EXPECT_EQ(lowered.restores_completed(), reference.restores_completed());
  EXPECT_EQ(lowered.spare_arrivals(), reference.spare_arrivals());
  const auto cl = lowered.cumulative_ddfs_per_1000();
  const auto cr = reference.cumulative_ddfs_per_1000();
  ASSERT_EQ(cl.size(), cr.size());
  for (std::size_t i = 0; i < cl.size(); ++i) {
    EXPECT_DOUBLE_EQ(cl[i], cr[i]) << "bucket " << i;
  }
  if (threads == 1) {
    // Single worker: even the order-sensitive probe sums accumulate in
    // one deterministic order, so the rare-event estimator matches too.
    EXPECT_DOUBLE_EQ(lowered.total_ddfs_per_1000(Estimator::kDoubleOpProbe),
                     reference.total_ddfs_per_1000(Estimator::kDoubleOpProbe));
  }
}

TEST(KernelEquivalence, BaseCaseSingleThread) {
  expect_identical_runs(core::presets::base_case().to_group_config(), 1);
}

TEST(KernelEquivalence, BaseCaseFourThreads) {
  expect_identical_runs(core::presets::base_case().to_group_config(), 4);
}

TEST(KernelEquivalence, BusyGroupWithSparePoolSingleThread) {
  expect_identical_runs(busy_group(), 1);
}

TEST(KernelEquivalence, ExponentialLawsSingleThread) {
  expect_identical_runs(exponential_group(), 1);
}

TEST(KernelEquivalence, ExponentialLawsFourThreads) {
  expect_identical_runs(exponential_group(), 4);
}

TEST(KernelEquivalence, CompositeLawFallbackSingleThread) {
  expect_identical_runs(composite_group(), 1);
}

TEST(KernelEquivalence, CompositeLawFallbackFourThreads) {
  expect_identical_runs(composite_group(), 4);
}

TEST(KernelEquivalence, DigestIndependentOfPolicy) {
  // The digest describes the model, not the execution strategy; the
  // equivalence claim "same digest, same results" needs both halves.
  const auto cfg = core::presets::base_case().to_group_config();
  EXPECT_EQ(config_digest(cfg), config_digest(cfg));
  const auto lowered =
      run_monte_carlo(cfg, options_for(1, KernelPolicy::kLowered));
  const auto reference =
      run_monte_carlo(cfg, options_for(1, KernelPolicy::kVirtualOnly));
  EXPECT_DOUBLE_EQ(lowered.total_ddfs_per_1000(),
                   reference.total_ddfs_per_1000());
}

TEST(KernelEquivalence, FleetSingleAndFourThreads) {
  FleetConfig fleet;
  for (int g = 0; g < 3; ++g) fleet.groups.push_back(busy_group());
  for (auto& group : fleet.groups) group.spare_pool.reset();
  fleet.shared_pool = raid::SparePoolConfig{2, 300.0};
  for (unsigned threads : {1u, 4u}) {
    const auto lowered = run_fleet_monte_carlo(
        fleet, options_for(threads, KernelPolicy::kLowered));
    const auto reference = run_fleet_monte_carlo(
        fleet, options_for(threads, KernelPolicy::kVirtualOnly));
    EXPECT_EQ(lowered.trials(), reference.trials());
    EXPECT_EQ(lowered.op_failures(), reference.op_failures());
    EXPECT_EQ(lowered.latent_defects(), reference.latent_defects());
    EXPECT_EQ(lowered.scrubs_completed(), reference.scrubs_completed());
    EXPECT_EQ(lowered.restores_completed(), reference.restores_completed());
    EXPECT_EQ(lowered.spare_arrivals(), reference.spare_arrivals());
    const auto cl = lowered.cumulative_ddfs_per_1000();
    const auto cr = reference.cumulative_ddfs_per_1000();
    ASSERT_EQ(cl.size(), cr.size());
    for (std::size_t i = 0; i < cl.size(); ++i) {
      EXPECT_DOUBLE_EQ(cl[i], cr[i]) << "threads " << threads << " bucket "
                                     << i;
    }
  }
}

// Draw-level equality: each CompiledLaw fast path against the Distribution
// it lowered, on identical random streams. EXPECT_EQ on doubles — the
// contract is bit-identity, not closeness.
template <typename Dist>
void expect_draws_identical(const Dist& dist) {
  const CompiledLaw law = CompiledLaw::compile(&dist);
  rng::RandomStream rs_law(99);
  rng::RandomStream rs_ref(99);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(law.sample(rs_law), dist.sample(rs_ref)) << i;
  }
  for (int i = 0; i < 2000; ++i) {
    const double age = static_cast<double>(i) * 37.0;
    EXPECT_EQ(law.sample_residual(age, rs_law),
              dist.sample_residual(age, rs_ref))
        << i;
  }
  for (int i = -10; i < 2000; ++i) {
    const double t = static_cast<double>(i) * 13.0;
    EXPECT_EQ(law.cum_hazard(t), dist.cum_hazard(t)) << t;
  }
}

TEST(CompiledLaw, GeneralWeibullDrawsBitIdentical) {
  expect_draws_identical(stats::Weibull(0.0, 461386.0, 1.12));
  expect_draws_identical(stats::Weibull(6.0, 12.0, 2.0));
  expect_draws_identical(stats::Weibull(0.0, 9259.0, 0.8));
}

TEST(CompiledLaw, UnitShapeWeibullDrawsBitIdentical) {
  expect_draws_identical(stats::Weibull(0.0, 9259.0, 1.0));
  expect_draws_identical(stats::Weibull(6.0, 168.0, 1.0));
}

TEST(CompiledLaw, ExtremeAgeResidualDrawsBitIdentical) {
  // Ages orders of magnitude past the scale route through the log-space
  // residual arms (see Weibull::sample_residual). The lowered kernels
  // mirror that fixed arithmetic expression for expression, so the
  // bit-identity contract must hold there too — and no draw may collapse
  // to the old exactly-0 underflow.
  const std::vector<stats::Weibull> laws = {
      stats::Weibull(0.0, 100.0, 2.0), stats::Weibull(0.0, 9259.0, 1.0),
      stats::Weibull(6.0, 168.0, 3.0), stats::Weibull(0.0, 461386.0, 1.12)};
  for (const auto& dist : laws) {
    const CompiledLaw law = CompiledLaw::compile(&dist);
    rng::RandomStream rs_law(7);
    rng::RandomStream rs_ref(7);
    for (const double age : {1e6, 1e9, 1e12, 1e15}) {
      for (int i = 0; i < 200; ++i) {
        const double a = law.sample_residual(age, rs_law);
        const double b = dist.sample_residual(age, rs_ref);
        EXPECT_EQ(a, b) << dist.describe() << " age " << age;
        EXPECT_GT(b, 0.0) << dist.describe() << " age " << age;
      }
    }
  }
}

TEST(CompiledLaw, LowersToExpectedKinds) {
  const stats::Weibull general(0.0, 461386.0, 1.12);
  const stats::Weibull unit_shape(0.0, 9259.0, 1.0);
  EXPECT_EQ(CompiledLaw::compile(&general).kind(),
            CompiledLaw::Kind::kWeibull);
  EXPECT_EQ(CompiledLaw::compile(&unit_shape).kind(),
            CompiledLaw::Kind::kExponentialWeibull);
  EXPECT_EQ(CompiledLaw::compile(nullptr).kind(), CompiledLaw::Kind::kNull);
  EXPECT_FALSE(CompiledLaw::compile(nullptr).present());

  std::vector<stats::DistributionPtr> risks;
  risks.push_back(std::make_unique<stats::Weibull>(0.0, 30000.0, 0.7));
  risks.push_back(std::make_unique<stats::Weibull>(0.0, 6000.0, 2.0));
  const stats::CompetingRisks composite(std::move(risks));
  EXPECT_EQ(CompiledLaw::compile(&composite).kind(),
            CompiledLaw::Kind::kVirtual);
  // The policy escape hatch keeps even lowerable laws on virtual dispatch.
  EXPECT_EQ(
      CompiledLaw::compile(&general, KernelPolicy::kVirtualOnly).kind(),
      CompiledLaw::Kind::kVirtual);
}

TEST(ThreadPool, PooledRunMatchesSpawnJoin) {
  const auto cfg = busy_group();
  ThreadPool pool;
  RunOptions pooled{.trials = 300, .seed = 5, .threads = 4,
                    .bucket_hours = 1000.0};
  pooled.pool = &pool;
  const RunOptions spawned{.trials = 300, .seed = 5, .threads = 4,
                           .bucket_hours = 1000.0};
  const auto a = run_monte_carlo(cfg, pooled);
  const auto b = run_monte_carlo(cfg, spawned);
  EXPECT_EQ(a.op_failures(), b.op_failures());
  EXPECT_EQ(a.latent_defects(), b.latent_defects());
  EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
  // Workers persist between runs and are reused, not respawned.
  EXPECT_EQ(pool.worker_count(), 4u);
  const auto c = run_monte_carlo(cfg, pooled);
  EXPECT_EQ(c.op_failures(), b.op_failures());
  EXPECT_EQ(pool.worker_count(), 4u);
}

}  // namespace
}  // namespace raidrel::sim
