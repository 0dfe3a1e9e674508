// MathTier::kFast (sim/lane_ops.h) trades the exact tier's bit-identity
// for polynomial SIMD transforms. Its contract has three legs, each
// pinned here:
//
//  1. per-sample accuracy — every fast draw is within 1e-12 relative of
//     the exact draw made from the same uniform (the kernels target
//     ~1e-15; the margin absorbs argument-range variation);
//  2. determinism — the fast kernels produce the *same bits* at every
//     backend (generic scalar included) and every lane width, because
//     they evaluate a fixed operation order with contraction disabled.
//     kFast is a different arithmetic, not a looser one;
//  3. statistical equivalence — a fast-tier run of a failure-heavy
//     model reproduces the exact tier's event totals to well within
//     Monte Carlo noise.
//
// The default everywhere stays kExact; that default is asserted last.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/presets.h"
#include "sim/batch_engine.h"
#include "sim/convergence.h"
#include "sim/lane_ops.h"
#include "sim/runner.h"
#include "stats/weibull.h"
#include "util/cpu_features.h"

namespace raidrel::sim {
namespace {

constexpr std::uint64_t kSeed = 20070625;

raid::GroupConfig busy_group(double mission = 20000.0) {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 100.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 2000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 300.0, 3.0);
  return raid::make_uniform_group(8, 1, m, mission);
}

std::vector<double> test_uniforms(std::size_t n) {
  rng::StreamFactory factory(kSeed);
  auto rs = factory.stream(0);
  std::vector<double> u(n);
  for (auto& x : u) x = rs.uniform_open();
  // Pin the extremes of the achievable range too.
  if (n >= 2) {
    u[0] = 0x1.0p-53 + 0x1.0p-54;  // smallest uniform_open output
    u[1] = 1.0 - 0x1.0p-53;        // largest
  }
  return u;
}

TEST(MathTier, FastNegLogMatchesLibmTo1e12) {
  const LaneOps& ops = lane_ops();
  const auto u = test_uniforms(1001);  // odd length: SIMD blocks + tail
  std::vector<double> fast(u.size());
  ops.neg_log_n(u.data(), fast.data(), u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double exact = -std::log(u[i]);
    EXPECT_NEAR(fast[i], exact, std::abs(exact) * 1e-12 + 1e-300)
        << "u=" << u[i];
  }
}

TEST(MathTier, FastWeibullQuantileMatchesLibmTo1e12) {
  const LaneOps& ops = lane_ops();
  const auto u = test_uniforms(517);
  std::vector<double> e(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) e[i] = -std::log(u[i]);
  // Base-case-like shapes: gamma/eta/beta spanning the model's range.
  const struct { double a, b, c; } params[] = {
      {0.0, 4000.0, 1.0 / 1.2}, {6.0, 100.0, 1.0 / 2.0},
      {6.0, 300.0, 1.0 / 3.0},  {0.0, 461386.0, 1.0}};
  for (const auto& p : params) {
    std::vector<double> fast(e.size());
    ops.weibull_quantile_n(e.data(), fast.data(), e.size(), p.a, p.b, p.c);
    for (std::size_t i = 0; i < e.size(); ++i) {
      const double exact = p.a + p.b * std::pow(e[i], p.c);
      EXPECT_NEAR(fast[i], exact, std::abs(exact) * 1e-12)
          << "e=" << e[i] << " beta=" << 1.0 / p.c;
    }
  }
}

TEST(MathTier, FastKernelsAreBitIdenticalAcrossBackends) {
  const auto u = test_uniforms(333);
  const LaneOps& reference = lane_ops_for(util::SimdIsa::kGeneric);
  std::vector<double> ref_log(u.size()), ref_wq(u.size());
  reference.neg_log_n(u.data(), ref_log.data(), u.size());
  reference.weibull_quantile_n(ref_log.data(), ref_wq.data(), u.size(), 6.0,
                               300.0, 1.0 / 3.0);
  // Without AVX-512 the generic table is the only backend: nothing to
  // compare it against.
  if (util::detected_isa() < util::SimdIsa::kAvx512) return;
  const LaneOps& ops = lane_ops_for(util::SimdIsa::kAvx512);
  std::vector<double> got_log(u.size()), got_wq(u.size());
  ops.neg_log_n(u.data(), got_log.data(), u.size());
  ops.weibull_quantile_n(got_log.data(), got_wq.data(), u.size(), 6.0, 300.0,
                         1.0 / 3.0);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(got_log[i], ref_log[i]) << "i=" << i;
    EXPECT_EQ(got_wq[i], ref_wq[i]) << "i=" << i;
  }
}

std::vector<TrialResult> fast_batch_trials(const raid::GroupConfig& cfg,
                                           std::size_t n,
                                           std::size_t width) {
  const rng::StreamFactory streams(kSeed);
  BatchGroupSimulator simulator(cfg, width, KernelPolicy::kLowered,
                                std::nullopt, MathTier::kFast);
  std::vector<TrialResult> out;
  out.reserve(n);
  for (std::size_t begin = 0; begin < n; begin += width) {
    const std::size_t count = std::min(width, n - begin);
    simulator.run_lane(streams, begin, count);
    for (std::size_t w = 0; w < count; ++w) {
      out.push_back(simulator.result(w));
    }
  }
  return out;
}

TEST(MathTier, FastTierIsWidthInvariant) {
  // kFast gives up bit-comparability with kExact, NOT with itself: the
  // same trial draws the same lifetimes at any lane width.
  const auto cfg = busy_group();
  constexpr std::size_t kTrials = 96;
  const auto narrow = fast_batch_trials(cfg, kTrials, 4);
  const auto wide = fast_batch_trials(cfg, kTrials, 32);
  ASSERT_EQ(narrow.size(), wide.size());
  for (std::size_t i = 0; i < kTrials; ++i) {
    EXPECT_EQ(narrow[i].op_failures, wide[i].op_failures) << i;
    EXPECT_EQ(narrow[i].latent_defects, wide[i].latent_defects) << i;
    ASSERT_EQ(narrow[i].ddfs.size(), wide[i].ddfs.size()) << i;
    for (std::size_t d = 0; d < narrow[i].ddfs.size(); ++d) {
      EXPECT_EQ(narrow[i].ddfs[d].time, wide[i].ddfs[d].time) << i;
    }
  }
}

TEST(MathTier, FastRunIsStatisticallyEquivalentToExact) {
  // Distribution-level validation of the fast tier: simulate a
  // failure-heavy group at both tiers with the same seeds and compare
  // aggregate event totals. A 1e-12 per-draw perturbation occasionally
  // flips an event-order race, so totals differ slightly — but far
  // inside sampling noise. With ~4000 trials the totals are ~1e5
  // events; 2% bounds are many standard deviations wide while still
  // catching any real distributional change (a wrong polynomial or a
  // mis-ranged reduction shifts means by far more).
  const auto cfg = busy_group();
  constexpr std::size_t kTrials = 4096;
  const rng::StreamFactory streams(kSeed);
  std::uint64_t ops[2] = {0, 0}, latents[2] = {0, 0}, ddfs[2] = {0, 0};
  const MathTier tiers[2] = {MathTier::kExact, MathTier::kFast};
  for (int t = 0; t < 2; ++t) {
    BatchGroupSimulator simulator(cfg, kDefaultBatchWidth,
                                  KernelPolicy::kLowered, std::nullopt,
                                  tiers[t]);
    for (std::size_t begin = 0; begin < kTrials;
         begin += kDefaultBatchWidth) {
      simulator.run_lane(streams, begin, kDefaultBatchWidth);
      for (std::size_t w = 0; w < kDefaultBatchWidth; ++w) {
        ops[t] += simulator.result(w).op_failures;
        latents[t] += simulator.result(w).latent_defects;
        ddfs[t] += simulator.result(w).ddfs.size();
      }
    }
  }
  ASSERT_GT(ops[0], 10000u);  // the model really is failure-heavy
  EXPECT_NEAR(static_cast<double>(ops[1]), static_cast<double>(ops[0]),
              0.02 * static_cast<double>(ops[0]));
  EXPECT_NEAR(static_cast<double>(latents[1]),
              static_cast<double>(latents[0]),
              0.02 * static_cast<double>(latents[0]));
  // DDFs are rarer; allow a wider relative band plus an absolute floor.
  EXPECT_NEAR(static_cast<double>(ddfs[1]), static_cast<double>(ddfs[0]),
              0.08 * static_cast<double>(ddfs[0]) + 8.0);
}

TEST(MathTier, DefaultsStayExactEverywhere) {
  EXPECT_EQ(RunOptions{}.math_tier, MathTier::kExact);
  EXPECT_EQ(ConvergenceOptions{}.math_tier, MathTier::kExact);
}

}  // namespace
}  // namespace raidrel::sim
