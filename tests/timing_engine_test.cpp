#include "sim/timing_engine.h"

#include <gtest/gtest.h>

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

GroupConfig scripted_group(std::vector<SlotModel> slots, double mission,
                           unsigned redundancy = 1) {
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = redundancy;
  cfg.mission_hours = mission;
  return cfg;
}

TrialResult simulate(const GroupConfig& cfg, std::uint64_t seed = 1) {
  TimingDiagramEngine engine(cfg);
  rng::RandomStream rs(seed);
  TrialResult out;
  engine.run_trial(rs, out);
  return out;
}

TEST(TimingEngine, OverlapIsDoubleOpDdf) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 50.0));
  slots.push_back(scripted_slot(120.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 130.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kDoubleOperational);
}

TEST(TimingEngine, NoOverlapNoDdf) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 20.0));
  slots.push_back(scripted_slot(150.0, 20.0));
  const auto r = simulate(scripted_group(std::move(slots), 180.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_EQ(r.op_failures, 2u);
}

TEST(TimingEngine, LatentDefectThenOpIsDdf) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 50.0, 50.0));
  slots.push_back(scripted_slot(100.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentThenOp);
}

TEST(TimingEngine, ScrubbedDefectIsSafe) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 50.0, 50.0, 10.0));  // clears at 60
  slots.push_back(scripted_slot(100.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 90.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_GE(r.scrubs_completed, 1u);
}

TEST(TimingEngine, DefectDiesWithItsDrive) {
  // Slot 0's drive fails at 100 and its defect (t=50, no scrub) must not
  // outlive it: slot 1's failure at 160 happens when slot 0's NEW drive is
  // healthy and slot 0 is back up (restored at 130) -> no DDF.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 30.0, 50.0));
  slots.push_back(scripted_slot(160.0, 30.0));
  const auto r = simulate(scripted_group(std::move(slots), 190.0));
  EXPECT_TRUE(r.ddfs.empty());
}

TEST(TimingEngine, FreezeSuppressesBackToBackDdfs) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 100.0));
  slots.push_back(scripted_slot(110.0, 100.0));
  slots.push_back(scripted_slot(115.0, 100.0));
  const auto r = simulate(scripted_group(std::move(slots), 150.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 110.0);
}

TEST(TimingEngine, Raid6NeedsThreeFaults) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 100.0, 50.0));
  slots.push_back(scripted_slot(100.0, 100.0));
  slots.push_back(scripted_slot(120.0, 100.0));
  slots.push_back(scripted_slot(1e18, 100.0));
  const auto r =
      simulate(scripted_group(std::move(slots), 130.0, /*redundancy=*/2));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
}

TEST(TimingEngine, CountersMatchScriptedTimeline) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));  // fails at 100, 210, 320
  slots.push_back(scripted_slot(1e18, 10.0));
  const auto r = simulate(scripted_group(std::move(slots), 340.0));
  EXPECT_EQ(r.op_failures, 3u);
  EXPECT_EQ(r.restores_completed, 3u);
  EXPECT_TRUE(r.ddfs.empty());
}

TEST(TimingEngine, RejectsSparePoolConfigs) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));
  slots.push_back(scripted_slot(200.0, 10.0));
  auto cfg = scripted_group(std::move(slots), 300.0);
  cfg.spare_pool = raid::SparePoolConfig{1, 24.0};
  EXPECT_THROW(TimingDiagramEngine{cfg}, raidrel::ModelError);
}

TEST(TimingEngine, DefectRenewalPausesDuringScrubResidence) {
  // ld 50, scrub 200, mission 600: defects at 50 (clears 250) and 300
  // (clears 500), next would be 550+... -> exactly 3 defects by 600.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 10.0, 50.0, 200.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  const auto r = simulate(scripted_group(std::move(slots), 600.0));
  EXPECT_EQ(r.latent_defects, 3u);
  EXPECT_EQ(r.scrubs_completed, 2u);
}

}  // namespace
}  // namespace raidrel::sim
