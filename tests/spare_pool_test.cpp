#include <gtest/gtest.h>

#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"

namespace raidrel::sim {
namespace {

using raid::GroupConfig;
using raid::SlotModel;
using stats::Degenerate;

SlotModel scripted_slot(double op, double restore) {
  SlotModel m;
  m.time_to_op_failure = std::make_unique<Degenerate>(op);
  m.time_to_restore = std::make_unique<Degenerate>(restore);
  return m;
}

TrialResult simulate(const GroupConfig& cfg, std::uint64_t seed = 1) {
  GroupSimulator sim(cfg);
  rng::RandomStream rs(seed);
  TrialResult out;
  sim.run_trial(rs, out);
  return out;
}

TEST(SparePool, ValidationInConfig) {
  auto cfg = raid::make_uniform_group(4, 1, scripted_slot(100.0, 10.0));
  cfg.spare_pool = raid::SparePoolConfig{0, 24.0};
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg.spare_pool = raid::SparePoolConfig{1, 0.0};
  EXPECT_THROW(cfg.validate(), ModelError);
  cfg.spare_pool = raid::SparePoolConfig{1, 24.0};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SparePool, LargePoolBehavesLikeInfiniteSpares) {
  // With more spares than failures, results are identical to no pool at
  // all (the pool logic consumes no randomness).
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.2);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  auto without = raid::make_uniform_group(8, 1, m, 20000.0);
  auto with = without.clone();
  with.spare_pool = raid::SparePoolConfig{1000, 1.0};
  const auto a = run_monte_carlo(without, {.trials = 500, .seed = 7,
                                           .threads = 1,
                                           .bucket_hours = 1000.0});
  const auto b = run_monte_carlo(with, {.trials = 500, .seed = 7,
                                        .threads = 1,
                                        .bucket_hours = 1000.0});
  EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
  EXPECT_EQ(a.op_failures(), b.op_failures());
  EXPECT_EQ(a.restores_completed(), b.restores_completed());
}

TEST(SparePool, StarvedPoolDelaysRestoreDeterministically) {
  // One spare, 100 h lead time. Slot 0 fails at 50 (takes the spare,
  // restored at 60; replacement ordered for t=150). Slot 1 fails at 80:
  // pool empty -> waits for the 150 arrival, restored at 160.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 10.0));  // never fails
  slots.push_back(scripted_slot(1e18, 10.0));
  slots[0] = scripted_slot(50.0, 10.0);
  slots[1] = scripted_slot(80.0, 10.0);
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 200.0;
  cfg.spare_pool = raid::SparePoolConfig{1, 100.0};
  const auto r = simulate(cfg);
  // Slot 0: fails 50, restored 60; new drive fails 110 (life 50), pool
  // empty and slot 1 is still waiting -> DDF at 110 (slot 1 down).
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 110.0);
  EXPECT_EQ(r.ddfs[0].kind, raid::DdfKind::kDoubleOperational);
  // Restores: slot 0 at 60; slot 1 gets the 150 arrival, restored 160;
  // slot 0's second failure waits for the order placed at 150 -> arrives
  // 250 > mission, never restored.
  EXPECT_EQ(r.restores_completed, 2u);
  EXPECT_EQ(r.op_failures, 3u);
}

TEST(SparePool, WaitingDriveCountsAsFault) {
  // A drive blocked on the pool leaves the group degraded: a second
  // failure during the wait is a DDF even though no rebuild is running.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(50.0, 1.0));   // fails at 50, waits
  slots.push_back(scripted_slot(120.0, 1.0));  // fails during the wait
  slots.push_back(scripted_slot(1e18, 1.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 130.0;
  cfg.spare_pool = raid::SparePoolConfig{1, 1000.0};  // lead > mission
  // Slot 0 takes the only spare at 50 (restored 51); its replacement
  // arrives at 1050 — far beyond the mission. Make slot 0 fail twice so
  // the second failure has to wait.
  cfg.slots[0] = scripted_slot(50.0, 1.0);
  const auto r = simulate(cfg);
  // Timeline: 50 slot0 fails, takes spare, restored 51. 101 slot0's new
  // drive fails (life 50), pool empty -> waits forever. 120 slot1 fails:
  // slot0 is down-waiting -> DDF.
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
}

TEST(SparePool, StatisticallyIncreasesDdfsWhenStarved) {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.0);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  auto plentiful = raid::make_uniform_group(8, 1, m, 20000.0);
  auto starved = plentiful.clone();
  plentiful.spare_pool = raid::SparePoolConfig{4, 24.0};
  starved.spare_pool = raid::SparePoolConfig{1, 500.0};
  const RunOptions run{.trials = 4000, .seed = 9, .threads = 0,
                       .bucket_hours = 1000.0};
  const auto a = run_monte_carlo(plentiful, run);
  const auto b = run_monte_carlo(starved, run);
  EXPECT_GT(b.total_ddfs_per_1000(), 1.5 * a.total_ddfs_per_1000());
}

TEST(SparePool, PoolRecoversAfterReplenishment) {
  // Slot 0 fails at 150 and (new drive) at 310. With a 100 h lead time
  // the pool restocks at 250, so the second rebuild starts immediately;
  // with a 1000 h lead time the second failure waits past the mission end.
  auto make_cfg = [](double lead) {
    std::vector<SlotModel> slots;
    slots.push_back(scripted_slot(150.0, 10.0));
    slots.push_back(scripted_slot(1e18, 10.0));
    GroupConfig cfg;
    cfg.slots = std::move(slots);
    cfg.redundancy = 1;
    cfg.mission_hours = 400.0;
    cfg.spare_pool = raid::SparePoolConfig{1, lead};
    return cfg;
  };
  const auto fast = simulate(make_cfg(100.0));
  EXPECT_TRUE(fast.ddfs.empty());
  EXPECT_EQ(fast.op_failures, 2u);       // 150 and 310
  EXPECT_EQ(fast.restores_completed, 2u);  // 160 and 320

  const auto slow = simulate(make_cfg(1000.0));
  EXPECT_EQ(slow.op_failures, 2u);
  EXPECT_EQ(slow.restores_completed, 1u);  // second rebuild never starts
}

}  // namespace
}  // namespace raidrel::sim
