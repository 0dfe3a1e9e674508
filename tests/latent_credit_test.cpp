// The latent-credit estimator (sim/latent_credit.h, docs/MODEL.md §19):
// its renewal curve against closed forms and a half-step solve, its scope
// predicate and exact table keys, the table cache a sweep or convergence
// call shares, the exactness of its quantized sums, and z-tests of credited
// runs against the event path on the same law. The event-path reference
// writes the exponential TTLd as a one-segment PiecewiseConstantHazard —
// the same law, which the predicate does not take — so no switch is
// needed to force either path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analytic/latent_curve.h"
#include "analytic/latent_ddf.h"
#include "core/presets.h"
#include "sim/convergence.h"
#include "sim/fleet_simulator.h"
#include "sim/group_simulator.h"
#include "sim/latent_credit.h"
#include "sim/runner.h"
#include "sim/timing_engine.h"
#include "stats/piecewise.h"
#include "stats/weibull.h"
#include "sweep/sweep_runner.h"
#include "util/grid.h"
#include "workload/read_errors.h"

namespace raidrel::sim {
namespace {

using analytic::LatentCurve;

constexpr double kMission = 87600.0;

// Table 1's lowest and highest latent-defect rates (Low RER x low read
// rate, High RER x high read rate).
double table1_rate(bool high) {
  const auto grid = workload::table1_grid();
  double lo = grid.front().errors_per_hour;
  double hi = lo;
  for (const auto& cell : grid) {
    lo = std::min(lo, cell.errors_per_hour);
    hi = std::max(hi, cell.errors_per_hour);
  }
  return high ? hi : lo;
}

// ---------------------------------------------------------------- curve

TEST(LatentCurve, NoScrubIsTheClosedForm) {
  for (const double rate : {1.08e-5, 1.08e-4, 4.32e-3}) {
    const LatentCurve a(rate, nullptr, kMission);
    EXPECT_EQ(a.nodes(), 0u);
    EXPECT_EQ(a.steady_state(), 1.0);
    for (double tau = 0.0; tau <= kMission; tau += 997.0) {
      EXPECT_NEAR(a(tau), 1.0 - std::exp(-rate * tau), 1e-12) << tau;
    }
  }
}

TEST(LatentCurve, ExponentialScrubMatchesTheTwoStateOde) {
  // MODEL.md §5: with an Exp(mean S) scrub the down-state probability is
  // q_ss (1 - exp(-(lambda + 1/S) t)) — analytic::defective_probability.
  const stats::Weibull op(0.0, 461386.0, 1.12);
  for (const double rate : {1.08e-5, 1.08e-4, 1.08e-3}) {
    for (const double mean : {12.0, 168.0, 720.0}) {
      const stats::Weibull scrub(0.0, mean, 1.0);
      const LatentCurve a(rate, &scrub, kMission);
      analytic::LatentDdfInputs in;
      in.ttop = &op;
      in.latent_rate = rate;
      in.mean_scrub_residence = mean;
      double worst = 0.0;
      for (double tau = 0.05; tau < kMission; tau *= 1.05) {
        worst = std::max(
            worst, std::fabs(a(tau) - analytic::defective_probability(in, tau)));
      }
      EXPECT_LT(worst, 1e-6) << "rate " << rate << " scrub " << mean;
      EXPECT_NEAR(a(kMission), a.steady_state(), 1e-7 * a.steady_state());
    }
  }
}

TEST(LatentCurve, HalfStepSolveAgrees) {
  // The solver's own error estimate at the corners of the sweep_grid
  // latent-rate x scrub grid: the default step against half of it.
  for (const bool high : {false, true}) {
    for (const double eta : {12.0, 720.0}) {
      const double rate = table1_rate(high);
      const stats::Weibull scrub(6.0, eta, 3.0);
      const LatentCurve a(rate, &scrub, kMission);
      const LatentCurve fine(rate, &scrub, kMission, a.step() / 2.0);
      double worst = 0.0;
      for (double tau = 0.0; tau < kMission; tau += a.step() * 0.37) {
        worst = std::max(worst, std::fabs(a(tau) - fine(tau)));
        if (tau > 20.0 * eta) tau += 10.0 * a.step();
      }
      EXPECT_LT(worst, 1e-5 * a.steady_state())
          << "rate " << rate << " scrub " << eta;
      EXPECT_LT(a.nodes(), 4096u);
    }
  }
}

TEST(LatentCurve, SlowToSettleScrubFallsBackToACoarserStep) {
  // A heavy-tailed scrub law does not flatten within the node cap at its
  // default step; the curve is re-solved on a grid that reaches the
  // horizon and must still be a probability heading to q_ss.
  const stats::Weibull scrub(0.0, 10.0, 0.3);
  const LatentCurve a(1e-3, &scrub, kMission);
  EXPECT_GT(a.step(), analytic::latent_curve_step(scrub));
  double prev = 0.0;
  for (double tau = 0.0; tau <= kMission; tau += 50.0) {
    const double v = a(tau);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, prev - 1e-9) << tau;  // no overshoot for a monotone tail
    prev = v;
  }
  EXPECT_NEAR(a(kMission), a.steady_state(), 0.02 * a.steady_state());
}

TEST(LatentCurve, InstantScrubNeverLeavesADefect) {
  struct Instant final : stats::Distribution {
    double pdf(double) const override { return 0.0; }
    double cdf(double) const override { return 1.0; }
    double quantile(double) const override { return 0.0; }
    double mean() const override { return 0.0; }
    std::string describe() const override { return "instant"; }
    std::string exact_key() const override { return "instant"; }
    stats::DistributionPtr clone() const override {
      return std::make_unique<Instant>();
    }
  } instant;
  const LatentCurve a(1e-3, &instant, kMission);
  EXPECT_EQ(a(0.0), 0.0);
  EXPECT_EQ(a(5000.0), 0.0);
}

TEST(LatentCurve, MeanUntilAveragesTheCurve) {
  // Closed form without scrubbing: 1 - (1 - e^{-x}) / x at x = lambda h.
  const LatentCurve never(1e-4, nullptr, kMission);
  EXPECT_NEAR(never.mean_until(20000.0), 1.0 - (1.0 - std::exp(-2.0)) / 2.0,
              1e-12);
  // Tabulated: a midpoint sum of the lookups, inside the table and past
  // its flat end.
  const stats::Weibull scrub(6.0, 168.0, 3.0);
  const LatentCurve a(1e-3, &scrub, kMission);
  for (const double h : {50.0, 3000.0, kMission}) {
    constexpr int kPoints = 20000;
    double sum = 0.0;
    for (int k = 0; k < kPoints; ++k) sum += a((k + 0.5) * h / kPoints);
    EXPECT_NEAR(a.mean_until(h), sum / kPoints, 1e-6 * a.steady_state())
        << h;
  }
  EXPECT_LT(a.mean_until(kMission), a.steady_state());
}

// ---------------------------------------------------------------- scope

raid::GroupConfig base() {
  return core::presets::base_case().to_group_config();
}

TEST(LatentCreditScope, PredicateNamesWhatKeepsAConfigOnEvents) {
  EXPECT_EQ(latent_credit_exclusion(base()), nullptr);
  EXPECT_EQ(latent_credit_exclusion(base(), TiltSpec{}), nullptr);  // unit
  EXPECT_STREQ(latent_credit_exclusion(base(), TiltSpec{2.0, 1.0}),
               "importance-sampling tilt engaged");
  auto c = base();
  c.redundancy = 2;
  EXPECT_STREQ(latent_credit_exclusion(c), "redundancy above 1");
  c = base();
  c.stripe_zones = 16;
  EXPECT_STREQ(latent_credit_exclusion(c), "stripe zones modelled");
  c = base();
  c.reconstruction_defect_probability = 0.01;
  EXPECT_STREQ(latent_credit_exclusion(c), "reconstruction defects modelled");
  c = base();
  c.clear_defects_on_ddf_restore = false;
  EXPECT_STREQ(latent_credit_exclusion(c),
               "defects kept across a DDF restore");
  c = core::presets::no_latent_defects().to_group_config();
  EXPECT_STREQ(latent_credit_exclusion(c), "no latent-defect law");
  for (const stats::WeibullParams p :
       {stats::WeibullParams{0.0, 9259.0, 1.2},
        stats::WeibullParams{5.0, 9259.0, 1.0}}) {
    c = base();
    c.slots[3].time_to_latent_defect = std::make_unique<stats::Weibull>(p);
    EXPECT_STREQ(latent_credit_exclusion(c),
                 "latent-defect law is not exponential");
  }
  // Scrub laws and the latent clock do not matter.
  c = core::presets::base_case_no_scrub().to_group_config();
  c.latent_clock = raid::LatentClock::kDriveAge;
  EXPECT_EQ(latent_credit_exclusion(c), nullptr);
}

TEST(LatentCreditScope, CurvesAreSharedPerDistinctLaw) {
  auto cfg = base();
  cfg.slots[0].time_to_scrub.reset();
  cfg.slots[1].time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
  const raid::GroupConfig* groups[] = {&cfg};
  const LatentCurves curves(groups);
  EXPECT_EQ(curves.size(), 3u);  // base, no-scrub, faster-latent slots
  EXPECT_EQ(&curves.of(cfg.slots[2]), &curves.of(cfg.slots[7]));
  EXPECT_NE(&curves.of(cfg.slots[0]), &curves.of(cfg.slots[2]));
}

// A table equals a fresh solve of the same law bit for bit: same grid, and
// the same value at and between every node.
void expect_same_table(const LatentCurve& got, const LatentCurve& want) {
  ASSERT_EQ(got.step(), want.step());
  ASSERT_EQ(got.nodes(), want.nodes());
  for (std::size_t k = 0; k <= got.nodes(); ++k) {
    for (const double at : {0.0, 0.37}) {
      const double tau = (static_cast<double>(k) + at) * got.step();
      ASSERT_EQ(got(tau), want(tau)) << "node " << k;
    }
  }
}

TEST(LatentCreditScope, CurveKeysAreExactPastTheSixthDigit) {
  // describe() prints both scrub laws as "Weibull(gamma=6, eta=168,
  // beta=3)"; they still need two tables.
  auto cfg = base();
  const auto& scrub = dynamic_cast<const stats::Weibull&>(
      *cfg.slots[0].time_to_scrub);
  cfg.slots[1].time_to_scrub = std::make_unique<stats::Weibull>(
      scrub.location(), std::nextafter(168.0, 200.0), scrub.shape());
  ASSERT_EQ(scrub.scale(), 168.0);
  ASSERT_EQ(cfg.slots[0].time_to_scrub->describe(),
            cfg.slots[1].time_to_scrub->describe());
  const raid::GroupConfig* groups[] = {&cfg};
  const LatentCurves curves(groups);
  EXPECT_EQ(curves.size(), 2u);
  const double rate = 1.0 / dynamic_cast<const stats::Weibull&>(
                                *cfg.slots[0].time_to_latent_defect)
                                .scale();
  for (const std::size_t j : {0u, 1u}) {
    SCOPED_TRACE("slot " + std::to_string(j));
    expect_same_table(curves.of(cfg.slots[j]),
                      LatentCurve(rate, cfg.slots[j].time_to_scrub.get(),
                                  cfg.mission_hours));
  }
}

// ---------------------------------------------------------------- cache

TEST(LatentCurveCache, SameKeySameTableNewKeyNewTable) {
  LatentCurveCache cache;
  const stats::Weibull scrub(6.0, 168.0, 3.0);
  const stats::Weibull same(6.0, 168.0, 3.0);
  const stats::Weibull ulp(6.0, std::nextafter(168.0, 0.0), 3.0);
  const double rate = 1.08e-4;
  const auto a = cache.get(rate, &scrub, kMission);
  EXPECT_EQ(cache.get(rate, &same, kMission), a);  // another equal law
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_NE(cache.get(rate, &scrub, kMission / 2.0), a);
  EXPECT_NE(cache.get(rate, &ulp, kMission), a);
  EXPECT_NE(cache.get(std::nextafter(rate, 1.0), &scrub, kMission), a);
  EXPECT_NE(cache.get(rate, nullptr, kMission), a);
  EXPECT_EQ(cache.builds(), 5u);
  expect_same_table(*a, LatentCurve(rate, &scrub, kMission));
}

TEST(LatentCurveCache, ConcurrentRequestsBuildEachKeyOnce) {
  LatentCurveCache cache;
  std::vector<std::unique_ptr<stats::Weibull>> laws;
  for (const double eta : {24.0, 48.0, 96.0, 168.0}) {
    laws.push_back(std::make_unique<stats::Weibull>(6.0, eta, 3.0));
  }
  constexpr int kThreads = 4;
  constexpr std::size_t kKeys = 8;  // 4 scrub laws x 2 latent rates
  std::vector<std::vector<const LatentCurve*>> seen(
      kThreads, std::vector<const LatentCurve*>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kKeys; ++i) {
        const std::size_t k = (i + 3 * static_cast<std::size_t>(t)) % kKeys;
        seen[t][k] =
            cache.get(k % 2 ? 1e-4 : 1e-3, laws[k / 2].get(), kMission).get();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.builds(), kKeys);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(LatentCurveCache, SharedCacheLeavesRunsBitIdentical) {
  const auto cfg = base();
  RunOptions opt{.trials = 2000, .seed = 11, .threads = 1};
  const RunResult own = run_monte_carlo(cfg, opt);
  LatentCurveCache cache;
  opt.latent_curves = &cache;
  for (int pass = 0; pass < 2; ++pass) {  // a cold, then a warm cache
    const RunResult shared = run_monte_carlo(cfg, opt);
    EXPECT_EQ(shared.trials(), own.trials());
    EXPECT_EQ(shared.op_failures(), own.op_failures());
    EXPECT_EQ(shared.restores_completed(), own.restores_completed());
    EXPECT_EQ(shared.latent_defects(), own.latent_defects());
    EXPECT_EQ(shared.scrubs_completed(), own.scrubs_completed());
    EXPECT_EQ(shared.rocof_per_1000(), own.rocof_per_1000());
    EXPECT_EQ(shared.total_ddfs_per_1000(), own.total_ddfs_per_1000());
    EXPECT_EQ(shared.total_ddfs_per_1000_sem(), own.total_ddfs_per_1000_sem());
    for (const auto kind : {raid::DdfKind::kDoubleOperational,
                            raid::DdfKind::kLatentThenOp}) {
      EXPECT_EQ(shared.total_per_1000(kind), own.total_per_1000(kind));
    }
    EXPECT_EQ(shared.ddfs_per_1000_at(8760.0), own.ddfs_per_1000_at(8760.0));
  }
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(LatentCurveCache, SweepBuildsOneTablePerLawAndKeepsItsBytes) {
  sweep::SweepSpec spec("cache-grid", core::presets::base_case());
  spec.add_scrub_period_axis({48.0, 168.0, 720.0})
      .add_restore_eta_axis({12.0, 48.0})
      .add_latent_rate_axis({{"lo", 1e-4}, {"hi", 1e-3}});
  std::vector<std::string> manifests;
  std::vector<std::uint64_t> digests;
  for (const unsigned threads : {1u, 4u}) {
    sweep::SweepOptions opt;
    opt.convergence.batch_trials = 400;
    opt.convergence.min_trials = 400;
    opt.convergence.max_trials = 800;
    opt.convergence.seed = 3;
    opt.threads = threads;
    opt.manifest_path = ::testing::TempDir() + "raidrel_curve_cache_t" +
                        std::to_string(threads) + ".json";
    std::remove(opt.manifest_path.c_str());
    const sweep::SweepResult r = sweep::SweepRunner(opt).run(spec);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.simulated, 12u);
    EXPECT_EQ(r.latent_tables_built, 6u);  // 3 scrub laws x 2 latent rates
    std::ifstream in(opt.manifest_path, std::ios::binary);
    manifests.emplace_back(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    digests.push_back(r.sweep_digest);
    std::remove(opt.manifest_path.c_str());
  }
  EXPECT_EQ(manifests[0], manifests[1]);
  EXPECT_EQ(digests[0], digests[1]);
}

// ---------------------------------------------------------------- sums

TEST(LatentCredit, QuantizedCreditsMergeInAnyOrder) {
  // Credits are multiples of 2^-26, so every bucket is an exact sum:
  // folding the same credited trials under any partition and merge order
  // gives bit-identical series.
  const auto cfg = base();
  GroupSimulator sim(cfg);
  const rng::StreamFactory streams(5);
  std::vector<TrialResult> trials(3000);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    auto rs = streams.stream(i);
    sim.run_trial(rs, trials[i]);
  }
  ASSERT_TRUE(trials[0].latent_credited);
  auto fold = [&](std::mt19937_64& shuffle) {
    std::vector<std::size_t> order(trials.size());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), shuffle);
    std::vector<RunResult> parts;
    std::size_t at = 0;
    while (at < order.size()) {
      const std::size_t n = std::min<std::size_t>(1 + shuffle() % 700,
                                                  order.size() - at);
      parts.emplace_back(cfg.mission_hours, 730.0);
      for (std::size_t k = 0; k < n; ++k) {
        parts.back().add_trial(trials[order[at + k]]);
      }
      at += n;
    }
    std::shuffle(parts.begin(), parts.end(), shuffle);
    RunResult total(cfg.mission_hours, 730.0);
    for (const RunResult& p : parts) total.merge(p);
    return total;
  };
  std::mt19937_64 shuffle(17);
  const RunResult first = fold(shuffle);
  EXPECT_GT(first.total_per_1000(raid::DdfKind::kLatentThenOp), 0.0);
  for (int rep = 0; rep < 4; ++rep) {
    const RunResult again = fold(shuffle);
    EXPECT_EQ(again.rocof_per_1000(), first.rocof_per_1000());
    EXPECT_EQ(again.total_per_1000(raid::DdfKind::kLatentThenOp),
              first.total_per_1000(raid::DdfKind::kLatentThenOp));
  }
  EXPECT_EQ(quantize_credit(0.1), std::ldexp(std::nearbyint(0.1 * 0x1p26), -26));
}

TEST(LatentCredit, OneAndFourThreadsAgreeBitForBit) {
  const auto cfg = base();
  RunOptions one{.trials = 3000, .seed = 9, .threads = 1};
  RunOptions four = one;
  four.threads = 4;
  const auto a = run_monte_carlo(cfg, one);
  const auto b = run_monte_carlo(cfg, four);
  EXPECT_EQ(a.op_failures(), b.op_failures());
  EXPECT_EQ(a.restores_completed(), b.restores_completed());
  EXPECT_EQ(a.latent_defects(), 0u);
  EXPECT_EQ(a.scrubs_completed(), 0u);
  EXPECT_EQ(a.rocof_per_1000(), b.rocof_per_1000());
  EXPECT_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
}

// ---------------------------------------------------------------- z-tests

// `config` with every slot's exponential TTLd written as a one-segment
// piecewise-constant hazard: the same law, on the event path.
raid::GroupConfig events_of(const raid::GroupConfig& config) {
  raid::GroupConfig twin = config.clone();
  for (raid::SlotModel& slot : twin.slots) {
    const auto& w =
        dynamic_cast<const stats::Weibull&>(*slot.time_to_latent_defect);
    slot.time_to_latent_defect =
        std::make_unique<stats::PiecewiseConstantHazard>(
            std::vector<stats::PiecewiseConstantHazard::Segment>{
                {0.0, 1.0 / w.scale()}});
  }
  return twin;
}

double z_score(const RunResult& a, const RunResult& b) {
  const double sa = a.total_ddfs_per_1000_sem();
  const double sb = b.total_ddfs_per_1000_sem();
  return (a.total_ddfs_per_1000() - b.total_ddfs_per_1000()) /
         std::sqrt(sa * sa + sb * sb);
}

void expect_credit_matches_events(const raid::GroupConfig& credited,
                                  std::size_t trials, std::uint64_t seed) {
  const raid::GroupConfig events = events_of(credited);
  ASSERT_EQ(latent_credit_exclusion(credited), nullptr);
  ASSERT_NE(latent_credit_exclusion(events), nullptr);
  RunOptions opt{.trials = trials, .seed = seed, .threads = 4};
  const auto c = run_monte_carlo(credited, opt);
  opt.seed = seed + 1;
  const auto e = run_monte_carlo(events, opt);
  EXPECT_GT(e.latent_defects(), 0u);
  EXPECT_EQ(c.latent_defects(), 0u);
  EXPECT_LT(std::fabs(z_score(c, e)), 4.0)
      << "credited " << c.total_ddfs_per_1000() << " +/- "
      << c.total_ddfs_per_1000_sem() << ", events "
      << e.total_ddfs_per_1000() << " +/- " << e.total_ddfs_per_1000_sem();
  // The credit removes Bernoulli noise: its SEM is not above the event
  // path's (beyond sampling noise; the two runs use different seeds).
  EXPECT_LT(c.total_ddfs_per_1000_sem(), e.total_ddfs_per_1000_sem() * 1.05);
}

// A busy 6-drive group over 20,000 h: about one op failure per drive, so
// a few thousand trials resolve the latent-then-op rate.
raid::GroupConfig busy(double latent_rate, double scrub_eta) {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 20000.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 24.0, 2.0);
  m.time_to_latent_defect =
      std::make_unique<stats::Weibull>(0.0, 1.0 / latent_rate, 1.0);
  if (scrub_eta > 0.0) {
    m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, scrub_eta, 3.0);
  }
  return raid::make_uniform_group(6, 1, m, 20000.0);
}

TEST(LatentCreditZ, ScrubAndTable1RateGrid) {
  std::uint64_t seed = 100;
  for (const bool high : {false, true}) {
    for (const double scrub : {0.0, 12.0, 168.0, 720.0}) {
      SCOPED_TRACE(::testing::Message()
                   << (high ? "high" : "low") << " rate, scrub " << scrub);
      expect_credit_matches_events(busy(table1_rate(high), scrub),
                                   high ? 6000 : 20000, seed += 2);
    }
  }
}

TEST(LatentCreditZ, SparePoolDeclusteredAndMixedVintages) {
  auto pool = busy(2e-4, 168.0);
  pool.spare_pool = raid::SparePoolConfig{1, 400.0};
  expect_credit_matches_events(pool, 10000, 300);

  auto declustered = busy(2e-4, 168.0);
  declustered.rebuild = raid::RebuildModel::kDeclustered;
  expect_credit_matches_events(declustered, 10000, 310);

  // Mixed vintages: per-slot latent rates and scrub laws, one curve each.
  auto mixed = busy(2e-4, 168.0);
  for (std::size_t s = 0; s < mixed.slots.size(); s += 2) {
    mixed.slots[s].time_to_latent_defect =
        std::make_unique<stats::Weibull>(0.0, 1500.0, 1.0);
    mixed.slots[s].time_to_scrub =
        std::make_unique<stats::Weibull>(6.0, 336.0, 3.0);
  }
  mixed.slots[1].time_to_scrub.reset();
  expect_credit_matches_events(mixed, 10000, 320);
}

TEST(LatentCreditZ, SharedPoolFleet) {
  // Ten busy groups sharing two spares: credited cores on the shared
  // event loop against event cores.
  FleetConfig credited;
  FleetConfig events;
  for (int g = 0; g < 10; ++g) {
    credited.groups.push_back(busy(2e-4, 168.0));
    events.groups.push_back(events_of(credited.groups.back()));
  }
  credited.shared_pool = events.shared_pool = raid::SparePoolConfig{2, 300.0};
  RunOptions opt{.trials = 1000, .seed = 400, .threads = 4};
  const auto c = run_fleet_monte_carlo(credited, opt);
  opt.seed = 401;
  const auto e = run_fleet_monte_carlo(events, opt);
  EXPECT_EQ(c.latent_defects(), 0u);
  EXPECT_GT(e.latent_defects(), 0u);
  EXPECT_LT(std::fabs(z_score(c, e)), 4.0)
      << c.total_ddfs_per_1000() << " vs " << e.total_ddfs_per_1000();
}

TEST(LatentCreditZ, BaseCaseAgainstTheTimingEngine) {
  // The paper-procedure engine is a second, independent event reference.
  // It keeps surviving defects after a DDF; at the base case's DDF rate
  // that difference is far below the tolerance.
  const auto cfg = base();
  const auto credited = run_monte_carlo(
      cfg, RunOptions{.trials = 20000, .seed = 500, .threads = 4});
  TimingDiagramEngine timing(cfg);
  const rng::StreamFactory streams(501);
  TrialResult out;
  util::RunningStats ddfs;
  for (std::size_t i = 0; i < 30000; ++i) {
    auto rs = streams.stream(i);
    timing.run_trial(rs, out);
    ddfs.add(static_cast<double>(out.ddfs.size()));
  }
  const double sc = credited.total_ddfs_per_1000_sem() / 1000.0;
  const double z = (credited.total_ddfs_per_1000() / 1000.0 - ddfs.mean()) /
                   std::sqrt(sc * sc + ddfs.sem() * ddfs.sem());
  EXPECT_LT(std::fabs(z), 4.0) << credited.total_ddfs_per_1000() / 1000.0
                               << " vs " << ddfs.mean();
}

// ---------------------------------------------------------------- first drive

// The first-drive control variate (docs/MODEL.md §19): per bucket, the
// run's first_drive_mean minus the constants of the first-drive failures
// marked in it. Its sample means over many group-missions, per bucket and
// in total, must sit within 4 SEM of 0 — the term adds no bias anywhere.
class FirstDriveTerm {
 public:
  FirstDriveTerm(std::vector<double> mean, double mission, double bucket)
      : mean_(std::move(mean)),
        mission_(mission),
        bucket_(bucket),
        buckets_(mean_.size()) {}

  /// One sample: the term summed over `trials` (a fleet's groups), each of
  /// which adds the mean once.
  void add(std::span<const TrialResult> trials) {
    std::vector<double> term(mean_.size(), 0.0);
    for (const TrialResult& t : trials) {
      for (std::size_t b = 0; b < term.size(); ++b) term[b] += mean_[b];
      for (const auto& [time, c] : t.first_drive_failures) {
        term[util::bucket_index(time, mission_, bucket_)] -=
            quantize_credit(c);
        ++marks_;
      }
    }
    double total = 0.0;
    for (std::size_t b = 0; b < term.size(); ++b) {
      buckets_[b].add(term[b]);
      total += term[b];
    }
    total_.add(total);
  }

  void expect_mean_zero() const {
    EXPECT_GT(marks_, 1000u);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      EXPECT_LT(std::fabs(buckets_[b].mean()), 4.0 * buckets_[b].sem())
          << "bucket " << b;
    }
    EXPECT_GT(total_.sem(), 0.0);
    EXPECT_LT(std::fabs(total_.mean()), 4.0 * total_.sem())
        << total_.mean() << " +/- " << total_.sem();
  }

 private:
  std::vector<double> mean_;
  double mission_;
  double bucket_;
  std::vector<util::RunningStats> buckets_;
  util::RunningStats total_;
  std::size_t marks_ = 0;
};

// Yearly buckets: few enough that 4 SEM is a tight test per bucket.
constexpr double kYear = 8760.0;

void expect_group_term_mean_zero(const raid::GroupConfig& cfg,
                                 std::size_t trials, std::uint64_t seed) {
  const auto curves = latent_curves_for(cfg);
  ASSERT_NE(curves, nullptr);
  FirstDriveTerm term(first_drive_mean({&cfg, 1}, *curves, kYear),
                      cfg.mission_hours, kYear);
  GroupSimulator sim(cfg, KernelPolicy::kLowered, std::nullopt, curves);
  const rng::StreamFactory streams(seed);
  TrialResult out;
  for (std::size_t i = 0; i < trials; ++i) {
    auto rs = streams.stream(i);
    sim.run_trial(rs, out);
    term.add({&out, 1});
  }
  term.expect_mean_zero();
}

TEST(FirstDriveVariate, FirstDriveTermIsMeanZero) {
  {
    SCOPED_TRACE("base case");
    expect_group_term_mean_zero(base(), 200000, 600);
  }
  {
    // Three Fig. 2 vintages: a different op law, so a different F_i, per
    // slot.
    SCOPED_TRACE("mixed vintages");
    expect_group_term_mean_zero(core::presets::mixed_vintage_group(), 200000,
                                610);
  }
  {
    // A fleet of base-case and mixed-vintage groups on two shared spares:
    // the run's mean is the groups' average, so only a whole fleet trial
    // (every group adding it once) is a mean-zero sample.
    SCOPED_TRACE("spare-pool fleet");
    FleetConfig fleet;
    for (int g = 0; g < 8; ++g) {
      fleet.groups.push_back(g % 2 == 0 ? base()
                                        : core::presets::mixed_vintage_group());
    }
    fleet.shared_pool = raid::SparePoolConfig{2, 400.0};
    const auto curves = latent_curves_for(fleet.groups);
    FirstDriveTerm term(first_drive_mean(fleet.groups, *curves, kYear),
                        kMission, kYear);
    FleetSimulator sim(fleet, KernelPolicy::kLowered, curves);
    const rng::StreamFactory streams(620);
    FleetTrialResult out;
    for (std::size_t i = 0; i < 25000; ++i) {
      auto rs = streams.stream(i);
      sim.run_trial(rs, out);
      term.add(out.per_group);
    }
    term.expect_mean_zero();
  }
}

TEST(FirstDriveVariate, StopsHonestlyAtTheFloor) {
  // The base case to 0.5% relative SEM stops on its first 20,000-trial
  // batch, and each such estimate lies within 4 of its own reported SEMs
  // of a pooled reference of 1M trials: the SEM the stop rule reads is
  // honest.
  const auto cfg = base();
  const RunResult ref = run_monte_carlo(
      cfg, RunOptions{.trials = 1000000, .seed = 700, .threads = 4});
  const double ref_sem = ref.total_ddfs_per_1000_sem();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    ConvergenceOptions opt;
    opt.target_relative_sem = 0.005;
    opt.seed = seed;
    opt.threads = 4;
    const ConvergedRun run = run_until_converged(cfg, opt);
    EXPECT_EQ(run.stop, ConvergedRun::StopRule::kRelativeSem);
    EXPECT_EQ(run.batches, 1u);
    EXPECT_EQ(run.result.trials(), 20000u);
    const double sem = run.result.total_ddfs_per_1000_sem();
    const double z =
        (run.result.total_ddfs_per_1000() - ref.total_ddfs_per_1000()) /
        std::sqrt(sem * sem + ref_sem * ref_sem);
    EXPECT_LT(std::fabs(z), 4.0)
        << run.result.total_ddfs_per_1000() << " +/- " << sem << " vs "
        << ref.total_ddfs_per_1000() << " +/- " << ref_sem;
  }
}

}  // namespace
}  // namespace raidrel::sim
