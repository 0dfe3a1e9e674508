#include "sim/fleet_simulator.h"

#include "sim/runner.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/presets.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"
#include "util/math.h"

namespace raidrel::sim {
namespace {

using raid::GroupConfig;
using raid::SlotModel;
using stats::Degenerate;

SlotModel scripted_slot(double op, double restore, double ld = 1e18,
                        double scrub = -1.0) {
  SlotModel m;
  m.time_to_op_failure = std::make_unique<Degenerate>(op);
  m.time_to_restore = std::make_unique<Degenerate>(restore);
  m.time_to_latent_defect = std::make_unique<Degenerate>(ld);
  if (scrub >= 0.0) m.time_to_scrub = std::make_unique<Degenerate>(scrub);
  return m;
}

TEST(FleetSimulator, SingleGroupMatchesGroupSimulatorExactly) {
  // A fleet of one group with no shared pool must reproduce GroupSimulator
  // draw for draw — same events, same RNG consumption.
  const auto group = core::presets::base_case().to_group_config();
  FleetConfig fleet;
  fleet.groups.push_back(group.clone());

  GroupSimulator single(group);
  FleetSimulator multi(fleet);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    rng::RandomStream rs1(seed), rs2(seed);
    TrialResult a;
    FleetTrialResult b;
    single.run_trial(rs1, a);
    multi.run_trial(rs2, b);
    const TrialResult& g0 = b.per_group[0];
    ASSERT_EQ(a.ddfs.size(), g0.ddfs.size()) << seed;
    for (std::size_t i = 0; i < a.ddfs.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.ddfs[i].time, g0.ddfs[i].time);
      EXPECT_EQ(a.ddfs[i].kind, g0.ddfs[i].kind);
    }
    EXPECT_EQ(a.op_failures, g0.op_failures) << seed;
    EXPECT_EQ(a.latent_defects, g0.latent_defects) << seed;
    EXPECT_EQ(a.scrubs_completed, g0.scrubs_completed) << seed;
    EXPECT_EQ(a.restores_completed, g0.restores_completed) << seed;
  }
}

TEST(FleetSimulator, SharedPoolContentionAcrossGroups) {
  // Two 2-drive groups, one shared spare with a 100 h lead. Group 0's
  // drive fails at 50 and takes the spare; group 1's failure at 80 must
  // wait for the 150 arrival.
  FleetConfig fleet;
  for (int g = 0; g < 2; ++g) {
    GroupConfig cfg;
    cfg.redundancy = 1;
    cfg.mission_hours = 400.0;
    cfg.slots.push_back(scripted_slot(g == 0 ? 50.0 : 80.0, 10.0));
    cfg.slots.push_back(scripted_slot(1e18, 10.0));
    fleet.groups.push_back(std::move(cfg));
  }
  fleet.shared_pool = raid::SparePoolConfig{1, 100.0};
  FleetSimulator sim(fleet);
  rng::RandomStream rs(1);
  FleetTrialResult out;
  sim.run_trial(rs, out);
  // FIFO service across groups. Worked timeline: G0 takes the spare at 50
  // (restored 60, reorder->150); G1 waits from 80; G0's second failure at
  // 110 queues behind it; the 150 arrival serves G1 (restored 160,
  // reorder->250); 250 serves G0 (restored 260, reorder->350); G1 fails
  // again at 240 and is served at 350 (restored 360); G0's third failure
  // at 310 is still waiting when the mission ends at 400.
  EXPECT_EQ(out.per_group[0].op_failures, 3u);   // 50, 110, 310
  EXPECT_EQ(out.per_group[0].restores_completed, 2u);  // 60, 260
  EXPECT_EQ(out.per_group[1].op_failures, 2u);   // 80, 240
  EXPECT_EQ(out.per_group[1].restores_completed, 2u);  // 160, 360
  // No DDFs: each group's *other* drive never fails, and fault census is
  // per group — group 1 waiting does not endanger group 0.
  EXPECT_EQ(out.total_ddfs(), 0u);
}

TEST(FleetSimulator, PoolStarvationCreatesCorrelatedExposure) {
  // A failure burst across many groups with a tiny shared pool leaves
  // drives waiting; statistically this must produce more DDFs than ample
  // sparing.
  auto make_fleet = [](unsigned capacity) {
    FleetConfig fleet;
    for (int g = 0; g < 10; ++g) {
      SlotModel m;
      m.time_to_op_failure =
          std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
      m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
      fleet.groups.push_back(raid::make_uniform_group(4, 1, m, 20000.0));
    }
    fleet.shared_pool = raid::SparePoolConfig{capacity, 500.0};
    return fleet;
  };
  const auto starved_cfg = make_fleet(1);
  const auto ample_cfg = make_fleet(50);
  FleetSimulator starved(starved_cfg);
  FleetSimulator ample(ample_cfg);
  rng::StreamFactory streams(7);
  FleetTrialResult out;
  std::size_t ddfs_starved = 0, ddfs_ample = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    auto rs1 = streams.stream(i);
    starved.run_trial(rs1, out);
    ddfs_starved += out.total_ddfs();
    auto rs2 = streams.stream(i);
    ample.run_trial(rs2, out);
    ddfs_ample += out.total_ddfs();
  }
  EXPECT_GT(ddfs_starved, 2 * ddfs_ample);
}

TEST(FleetSimulator, AmpleSharedPoolMatchesIndependentGroups) {
  // With a huge pool and instant-ish replenishment the groups cannot
  // interact: fleet aggregate statistics match independent single-group
  // runs within Monte Carlo noise.
  const auto group = core::presets::base_case().to_group_config();
  FleetConfig fleet;
  for (int g = 0; g < 4; ++g) fleet.groups.push_back(group.clone());
  fleet.shared_pool = raid::SparePoolConfig{1000, 1.0};
  FleetSimulator sim(fleet);
  rng::StreamFactory streams(9);
  FleetTrialResult out;
  util::RunningStats fleet_ddfs;
  const int trials = 1500;
  for (std::uint64_t i = 0; i < trials; ++i) {
    auto rs = streams.stream(i);
    sim.run_trial(rs, out);
    fleet_ddfs.add(static_cast<double>(out.total_ddfs()));
  }
  GroupSimulator single(group);
  TrialResult single_out;
  util::RunningStats single_ddfs;
  rng::StreamFactory streams2(10);
  for (std::uint64_t i = 0; i < trials; ++i) {
    auto rs = streams2.stream(i);
    single.run_trial(rs, single_out);
    single_ddfs.add(static_cast<double>(single_out.ddfs.size()));
  }
  const double sem = std::sqrt(fleet_ddfs.sem() * fleet_ddfs.sem() +
                               16.0 * single_ddfs.sem() * single_ddfs.sem());
  EXPECT_NEAR(fleet_ddfs.mean(), 4.0 * single_ddfs.mean(), 5.0 * sem);
}

TEST(FleetRunner, NormalizationMatchesSingleGroupRunner) {
  // Fleet of independent groups (huge pool): per-1000-group-mission
  // normalization must land on the single-group runner's numbers.
  const auto group = core::presets::base_case().to_group_config();
  FleetConfig fleet;
  for (int g = 0; g < 5; ++g) fleet.groups.push_back(group.clone());
  fleet.shared_pool = raid::SparePoolConfig{10000, 1.0};
  const auto fleet_run = run_fleet_monte_carlo(
      fleet, {.trials = 800, .seed = 21, .threads = 0,
              .bucket_hours = 730.0});
  EXPECT_EQ(fleet_run.trials(), 4000u);  // 800 trials x 5 groups
  const auto single_run = run_monte_carlo(
      group, {.trials = 4000, .seed = 22, .threads = 0,
              .bucket_hours = 730.0});
  const double sem = fleet_run.total_ddfs_per_1000_sem() +
                     single_run.total_ddfs_per_1000_sem();
  EXPECT_NEAR(fleet_run.total_ddfs_per_1000(),
              single_run.total_ddfs_per_1000(), 6.0 * sem);
}

TEST(FleetRunner, ThreadCountDoesNotChangeCounts) {
  FleetConfig fleet;
  for (int g = 0; g < 3; ++g) {
    SlotModel m;
    m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
    m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
    fleet.groups.push_back(raid::make_uniform_group(4, 1, m, 20000.0));
  }
  fleet.shared_pool = raid::SparePoolConfig{2, 200.0};
  const RunOptions base{.trials = 200, .seed = 23, .threads = 1,
                        .bucket_hours = 1000.0};
  RunOptions multi = base;
  multi.threads = 4;
  const auto a = run_fleet_monte_carlo(fleet, base);
  const auto b = run_fleet_monte_carlo(fleet, multi);
  EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
  EXPECT_EQ(a.op_failures(), b.op_failures());
}

TEST(FleetSimulator, Validation) {
  FleetConfig empty;
  EXPECT_THROW(FleetSimulator{empty}, ModelError);

  // Mission mismatch.
  FleetConfig mismatch;
  mismatch.groups.push_back(core::presets::base_case().to_group_config());
  auto other = core::presets::base_case().to_group_config();
  other.mission_hours = 1000.0;
  mismatch.groups.push_back(std::move(other));
  EXPECT_THROW(FleetSimulator{mismatch}, ModelError);

  // Private pools under a shared one.
  FleetConfig pools;
  auto g = core::presets::base_case().to_group_config();
  g.spare_pool = raid::SparePoolConfig{1, 24.0};
  pools.groups.push_back(std::move(g));
  pools.shared_pool = raid::SparePoolConfig{4, 24.0};
  EXPECT_THROW(FleetSimulator{pools}, ModelError);

  // Stripe zones unsupported.
  FleetConfig zones;
  auto z = core::presets::base_case().to_group_config();
  z.stripe_zones = 100;
  zones.groups.push_back(std::move(z));
  EXPECT_THROW(FleetSimulator{zones}, ModelError);
}

}  // namespace
}  // namespace raidrel::sim
