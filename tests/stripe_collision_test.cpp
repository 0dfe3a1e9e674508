// Tests of the stripe-collision refinement — the event the paper declares
// "extremely rare ... not modeled". With zones forced small, collisions
// are choreographed deterministically; with realistic zone counts the
// tests verify the paper's dismissal (the collision rate vanishes next to
// the other DDF kinds).
#include <gtest/gtest.h>

#include "core/presets.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"

namespace raidrel::sim {
namespace {

using raid::DdfKind;
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

TrialResult simulate(const GroupConfig& cfg, std::uint64_t seed = 1) {
  GroupSimulator sim(cfg);
  rng::RandomStream rs(seed);
  TrialResult out;
  sim.run_trial(rs, out);
  return out;
}

TEST(StripeCollision, SingleZoneForcesCollision) {
  // With one zone, the second drive's defect must collide with the first.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 10.0, 40.0));
  slots.push_back(scripted_slot(1e18, 10.0, 60.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 100.0;
  cfg.stripe_zones = 1;
  const auto r = simulate(cfg);
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 60.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentStripeCollision);
}

TEST(StripeCollision, CollisionClearsTheInvolvedDefects) {
  // After the collision is discovered, both defects are repaired: an op
  // failure right afterwards finds no outstanding defect.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 10.0, 40.0));
  slots.push_back(scripted_slot(1e18, 10.0, 60.0));
  slots.push_back(scripted_slot(70.0, 10.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 78.0;
  cfg.stripe_zones = 1;
  const auto r = simulate(cfg);
  ASSERT_EQ(r.ddfs.size(), 1u);  // only the collision; the op failure at
                                 // 70 sees a clean group
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentStripeCollision);
}

TEST(StripeCollision, Raid6NeedsThreeSharers) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 10.0, 30.0));
  slots.push_back(scripted_slot(1e18, 10.0, 50.0));
  slots.push_back(scripted_slot(1e18, 10.0, 70.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 2;
  cfg.mission_hours = 100.0;
  cfg.stripe_zones = 1;
  const auto r = simulate(cfg);
  // Two sharers at t=50: survivable under double parity. Third at 70: loss.
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 70.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentStripeCollision);
}

TEST(StripeCollision, DisabledByDefaultMatchesPaperModel) {
  const auto cfg = core::presets::base_case().to_group_config();
  EXPECT_EQ(cfg.stripe_zones, 0u);
  const auto run = run_monte_carlo(cfg, {.trials = 2000, .seed = 5,
                                         .threads = 0,
                                         .bucket_hours = 730.0});
  EXPECT_DOUBLE_EQ(
      run.total_per_1000(DdfKind::kLatentStripeCollision), 0.0);
}

TEST(StripeCollision, NegligibleAtRealisticZoneCounts) {
  // The paper's dismissal, checked: with a modern stripe count the
  // collision contribution is invisible next to latent-then-op DDFs even
  // without scrubbing.
  auto cfg = core::presets::base_case_no_scrub().to_group_config();
  cfg.stripe_zones = 1000000;  // ~1M stripes (conservative for 144 GB)
  const auto run = run_monte_carlo(cfg, {.trials = 5000, .seed = 6,
                                         .threads = 0,
                                         .bucket_hours = 730.0});
  const double collisions =
      run.total_per_1000(DdfKind::kLatentStripeCollision);
  const double latent_op = run.total_per_1000(DdfKind::kLatentThenOp);
  EXPECT_GT(latent_op, 500.0);
  EXPECT_LT(collisions, 0.01 * latent_op);
}

TEST(StripeCollision, RateScalesInverselyWithZones) {
  // Force frequent defects, vary the zone count, expect ~1/zones scaling.
  auto make = [](unsigned zones) {
    raid::SlotModel m;
    m.time_to_op_failure = std::make_unique<stats::Degenerate>(1e18);
    m.time_to_restore = std::make_unique<stats::Degenerate>(10.0);
    m.time_to_latent_defect =
        std::make_unique<stats::Weibull>(0.0, 500.0, 1.0);
    m.time_to_scrub = std::make_unique<stats::Degenerate>(400.0);
    auto cfg = raid::make_uniform_group(8, 1, m, 20000.0);
    cfg.stripe_zones = zones;
    return cfg;
  };
  const RunOptions run{.trials = 3000, .seed = 7, .threads = 0,
                       .bucket_hours = 2000.0};
  const auto few = run_monte_carlo(make(4), run);
  const auto many = run_monte_carlo(make(64), run);
  const double rate_few =
      few.total_per_1000(DdfKind::kLatentStripeCollision);
  const double rate_many =
      many.total_per_1000(DdfKind::kLatentStripeCollision);
  ASSERT_GT(rate_few, 0.0);
  ASSERT_GT(rate_many, 0.0);
  // ~1/zones to first order; collision-driven defect clearing and zone
  // saturation soften the 16x, so assert the direction with margin.
  EXPECT_GT(rate_few, 4.0 * rate_many);
  EXPECT_LT(rate_few, 40.0 * rate_many);
}

TEST(StripeCollision, SplitStillSumsToTotal) {
  auto cfg = core::presets::base_case_no_scrub().to_group_config();
  cfg.stripe_zones = 8;  // artificially tiny so collisions actually occur
  const auto run = run_monte_carlo(cfg, {.trials = 2000, .seed = 8,
                                         .threads = 0,
                                         .bucket_hours = 730.0});
  const double split = run.total_per_1000(DdfKind::kDoubleOperational) +
                       run.total_per_1000(DdfKind::kLatentThenOp) +
                       run.total_per_1000(DdfKind::kLatentStripeCollision);
  EXPECT_NEAR(split, run.total_ddfs_per_1000(), 1e-9);
  EXPECT_GT(run.total_per_1000(DdfKind::kLatentStripeCollision), 0.0);
}

}  // namespace
}  // namespace raidrel::sim
