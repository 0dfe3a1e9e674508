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
// series sums integers (and 2^-26-quantized latent credits) per bucket, so
// both are exact under any merge order and safe to compare across thread
// counts. Probe-estimator sums are order-sensitive doubles and are only
// compared at threads=1.
//
// Latent-credited configs (sim/latent_credit.h) draw no latent or scrub
// lifetimes, so every in-scope config is also compared as its event twin
// (support/event_twin.h); the exponential group additionally runs at
// redundancy 2, which keeps its beta = 1 latent law on the event path.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/presets.h"
#include "obs/trace.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "sim/slot_kernel.h"
#include "sim/thread_pool.h"
#include "stats/composite.h"
#include "stats/weibull.h"
#include "support/event_twin.h"

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
  opt.double_op_probe = true;
  return opt;
}

void expect_identical_runs(const raid::GroupConfig& config, unsigned threads) {
  for (const auto& cfg : test::with_event_twin(config)) {
    SCOPED_TRACE(latent_credit_exclusion(cfg) ? "events" : "latent credit");
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
      EXPECT_DOUBLE_EQ(
          lowered.total_ddfs_per_1000(Estimator::kDoubleOpProbe),
          reference.total_ddfs_per_1000(Estimator::kDoubleOpProbe));
    }
  }
}

raid::GroupConfig exponential_raid6_group() {
  auto cfg = exponential_group();
  cfg.redundancy = 2;
  return cfg;
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
  expect_identical_runs(exponential_raid6_group(), 1);
}

TEST(KernelEquivalence, ExponentialLawsFourThreads) {
  expect_identical_runs(exponential_group(), 4);
  expect_identical_runs(exponential_raid6_group(), 4);
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
  // The busy groups are latent-credited; the twin fleet runs on events.
  for (const bool twin : {false, true}) {
    SCOPED_TRACE(twin ? "event twins" : "latent credit");
    FleetConfig fleet;
    for (int g = 0; g < 3; ++g) {
      fleet.groups.push_back(twin ? test::event_twin(busy_group())
                                  : busy_group());
    }
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

// ---- Censored op draws (docs/MODEL.md §9) ------------------------------

constexpr std::uint64_t kIndices = std::uint64_t{1} << 52;

/// A stream whose next engine word is `word`: xoshiro256++ outputs
/// rotl(s0 + s3, 23) + s0, so s0 = 0 and s3 = rotr(word, 23) yield it.
rng::RandomStream stream_yielding(std::uint64_t word) {
  const std::uint64_t s3 = (word >> 23) | (word << 41);
  return rng::RandomStream(rng::Xoshiro256({0, 1, 1, s3}));
}

/// The censored draw at 52-bit index `index` against the full draw: +inf
/// only where the full draw is past the horizon, otherwise the same bits,
/// and one engine word consumed either way. `low` fills the 12 bits the
/// index drops.
void expect_censored_draw_agrees(const CompiledLaw& law, double horizon,
                                 std::uint64_t censor, std::uint64_t index,
                                 std::uint64_t low = 0) {
  const std::uint64_t word = (index << 12) | (low & 0xfff);
  rng::RandomStream full_rs = stream_yielding(word);
  rng::RandomStream censored_rs = stream_yielding(word);
  const double full = law.sample(full_rs);
  const double censored = law.sample_censored(censor, censored_rs);
  if (index < censor) {
    EXPECT_EQ(censored, std::numeric_limits<double>::infinity()) << index;
    EXPECT_GE(full, horizon) << index;
  } else {
    EXPECT_EQ(censored, full) << index;
  }
  EXPECT_EQ(censored_rs.next_u64(), full_rs.next_u64()) << index;
}

TEST(CompiledLaw, CensorIndexIsTheSurvivalAtTheHorizon) {
  // Base-case TTOp at the 10-year mission, and an exponential law: K/2^52
  // is P(index < K) = S(horizon) up to the 1e-9 margin, so the engine
  // really censors (a K stuck at 0 would pass every bit-identity suite).
  const stats::Weibull base(0.0, 461386.0, 1.12);
  const stats::Weibull expo(0.0, 9259.0, 1.0);
  for (const auto& [dist, horizon] :
       {std::pair{&base, 87600.0}, std::pair{&expo, 8760.0}}) {
    const CompiledLaw law = CompiledLaw::compile(dist);
    const double k = static_cast<double>(law.censor_index(horizon));
    EXPECT_NEAR(k / static_cast<double>(kIndices), dist->survival(horizon),
                1e-6 * dist->survival(horizon))
        << dist->describe();
  }
}

TEST(CompiledLaw, CensoredDrawsAreTheFullDrawOrPastTheHorizon) {
  const std::vector<std::pair<stats::Weibull, double>> cases = {
      {stats::Weibull(0.0, 461386.0, 1.12), 87600.0},
      {stats::Weibull(0.0, 9259.0, 1.0), 8760.0},
      {stats::Weibull(500.0, 3000.0, 0.7), 2000.0},
      {stats::Weibull(6.0, 168.0, 3.0), 200.0}};
  std::mt19937_64 gen(2007);
  for (const auto& [dist, horizon] : cases) {
    SCOPED_TRACE(dist.describe());
    const CompiledLaw law = CompiledLaw::compile(&dist);
    const std::uint64_t k = law.censor_index(horizon);
    ASSERT_GT(k, 0u);
    ASSERT_LT(k, kIndices);
    for (const std::uint64_t index : {k - 1, k, k + 1}) {
      expect_censored_draw_agrees(law, horizon, k, index, gen());
    }
    for (int n = 0; n < 100000; ++n) {
      expect_censored_draw_agrees(law, horizon, k, gen() >> 12, gen());
    }
  }
}

TEST(CompiledLaw, CensorIndexEdgeCases) {
  // Every draw of a law located past the horizon outlives it.
  const stats::Weibull late(2.0 * 87600.0, 1000.0, 1.5);
  EXPECT_EQ(CompiledLaw::compile(&late).censor_index(87600.0), kIndices);
  // Even the longest draw of a tiny-scale law falls short.
  const stats::Weibull tiny(0.0, 1e-3, 1.12);
  EXPECT_EQ(CompiledLaw::compile(&tiny).censor_index(87600.0), 0u);
  // The virtual fallback and an absent law never censor.
  const stats::Weibull base(0.0, 461386.0, 1.12);
  const CompiledLaw virt =
      CompiledLaw::compile(&base, KernelPolicy::kVirtualOnly);
  EXPECT_EQ(virt.censor_index(87600.0), 0u);
  EXPECT_EQ(CompiledLaw::compile(nullptr).censor_index(87600.0), 0u);
  // A fallback law's censored draw is its plain draw.
  rng::RandomStream a(3);
  rng::RandomStream b(3);
  EXPECT_EQ(virt.sample_censored(0, a), base.sample(b));
}

/// Lowered (censoring) against virtual-only (never censoring), trial by
/// trial on the same streams: results and traces must be equal.
void expect_equal_trials(const TrialResult& x, const TrialResult& y) {
  ASSERT_EQ(x.ddfs.size(), y.ddfs.size());
  for (std::size_t k = 0; k < x.ddfs.size(); ++k) {
    EXPECT_EQ(x.ddfs[k].time, y.ddfs[k].time);
    EXPECT_EQ(x.ddfs[k].kind, y.ddfs[k].kind);
  }
  EXPECT_EQ(x.latent_credit, y.latent_credit);
  EXPECT_EQ(x.op_failures, y.op_failures);
  EXPECT_EQ(x.latent_defects, y.latent_defects);
  EXPECT_EQ(x.scrubs_completed, y.scrubs_completed);
  EXPECT_EQ(x.restores_completed, y.restores_completed);
  EXPECT_EQ(x.spare_arrivals, y.spare_arrivals);
}

TEST(KernelEquivalence, HeavilyCensoredShortMissionTraces) {
  // A 2,000 h mission against a 4,000 h TTOp scale: about 65% of first
  // lifetimes outlive it and are censored on the lowered path.
  for (const auto& cfg : test::with_event_twin(busy_group(2000.0))) {
    SCOPED_TRACE(latent_credit_exclusion(cfg) ? "events" : "latent credit");
    GroupSimulator lowered(cfg, KernelPolicy::kLowered);
    GroupSimulator reference(cfg, KernelPolicy::kVirtualOnly);
    const rng::StreamFactory streams(21);
    TrialResult x;
    TrialResult y;
    obs::TrialTrace tx;
    obs::TrialTrace ty;
    for (std::uint64_t t = 0; t < 400; ++t) {
      auto rx = streams.stream(t);
      auto ry = streams.stream(t);
      lowered.run_trial(rx, x, &tx);
      reference.run_trial(ry, y, &ty);
      expect_equal_trials(x, y);
      EXPECT_EQ(tx.events(), ty.events()) << "trial " << t;
      EXPECT_EQ(rx.next_u64(), ry.next_u64()) << "trial " << t;
    }
  }
}

TEST(KernelEquivalence, HeavilyCensoredSharedPoolFleetTraces) {
  for (const bool twin : {false, true}) {
    SCOPED_TRACE(twin ? "event twins" : "latent credit");
    FleetConfig fleet;
    for (int g = 0; g < 3; ++g) {
      fleet.groups.push_back(twin ? test::event_twin(busy_group(2000.0))
                                  : busy_group(2000.0));
    }
    for (auto& group : fleet.groups) group.spare_pool.reset();
    fleet.shared_pool = raid::SparePoolConfig{1, 300.0};
    FleetSimulator lowered(fleet, KernelPolicy::kLowered);
    FleetSimulator reference(fleet, KernelPolicy::kVirtualOnly);
    const rng::StreamFactory streams(22);
    FleetTrialResult x;
    FleetTrialResult y;
    obs::TrialTrace tx;
    obs::TrialTrace ty;
    for (std::uint64_t t = 0; t < 200; ++t) {
      auto rx = streams.stream(t);
      auto ry = streams.stream(t);
      lowered.run_trial(rx, x, &tx);
      reference.run_trial(ry, y, &ty);
      ASSERT_EQ(x.per_group.size(), y.per_group.size());
      for (std::size_t g = 0; g < x.per_group.size(); ++g) {
        expect_equal_trials(x.per_group[g], y.per_group[g]);
      }
      EXPECT_EQ(tx.events(), ty.events()) << "trial " << t;
    }
  }
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
