#include "sim/group_simulator.h"

#include <gtest/gtest.h>

#include "stats/weibull.h"
#include "support/degenerate.h"

namespace raidrel::sim {
namespace {

using raid::DdfKind;
using raid::GroupConfig;
using raid::SlotModel;
using stats::Degenerate;
using stats::Weibull;

// A slot whose every transition is deterministic; +inf-like huge values
// disable a transition within the mission.
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
  GroupSimulator sim(cfg);
  rng::RandomStream rs(seed);
  TrialResult out;
  sim.run_trial(rs, out);
  return out;
}

TEST(GroupSimulator, NoFailuresNoEvents) {
  std::vector<SlotModel> slots;
  for (int i = 0; i < 4; ++i) slots.push_back(scripted_slot(1e18, 1.0));
  const auto r = simulate(scripted_group(std::move(slots), 87600.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_EQ(r.op_failures, 0u);
  EXPECT_EQ(r.latent_defects, 0u);
}

TEST(GroupSimulator, SingleFailureRestoresWithoutDdf) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 50.0));
  slots.push_back(scripted_slot(1e18, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 300.0));
  EXPECT_TRUE(r.ddfs.empty());
  // Slot 0 fails at 100 and 250 (new drive installed at 150).
  EXPECT_EQ(r.op_failures, 2u);
  EXPECT_EQ(r.restores_completed, 1u);
}

TEST(GroupSimulator, OverlappingOpFailuresAreDoubleOpDdf) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 50.0));  // down [100, 150)
  slots.push_back(scripted_slot(120.0, 50.0));  // fails inside the window
  const auto r = simulate(scripted_group(std::move(slots), 130.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kDoubleOperational);
}

TEST(GroupSimulator, NonOverlappingFailuresAreSafe) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 20.0));  // down [100, 120)
  slots.push_back(scripted_slot(150.0, 20.0));  // fails after the rebuild
  const auto r = simulate(scripted_group(std::move(slots), 180.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_EQ(r.op_failures, 2u);
}

TEST(GroupSimulator, LatentDefectThenOpFailureIsDdf) {
  std::vector<SlotModel> slots;
  // Slot 0: defect at t=50, never scrubbed, drive never fails itself.
  slots.push_back(scripted_slot(1e18, 50.0, 50.0));
  // Slot 1: operational failure at t=100.
  slots.push_back(scripted_slot(100.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 100.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentThenOp);
}

TEST(GroupSimulator, OpFailureThenLatentDefectIsNotDdf) {
  // The paper's ordering rule: LD arriving while another drive rebuilds is
  // not a DDF (only an op failure can trigger data loss).
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 50.0, 120.0));  // defect at t=120
  slots.push_back(scripted_slot(100.0, 50.0));        // down [100, 150)
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_GE(r.latent_defects, 1u);
}

TEST(GroupSimulator, DefectOnSameDriveDoesNotCountAgainstItself) {
  // Paper Fig. 4 note 1: the op failure must hit a different drive than
  // the one carrying the latent defect.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 30.0, 50.0));  // defect then own fail
  slots.push_back(scripted_slot(1e18, 30.0));
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  EXPECT_TRUE(r.ddfs.empty());
}

TEST(GroupSimulator, ScrubClearsDefectBeforeOpFailure) {
  std::vector<SlotModel> slots;
  // Defect at 50, scrub completes at 60; failure at 100 finds no defect.
  slots.push_back(scripted_slot(1e18, 50.0, 50.0, 10.0));
  slots.push_back(scripted_slot(100.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_GE(r.scrubs_completed, 1u);
}

TEST(GroupSimulator, SlowScrubLeavesDefectExposed) {
  std::vector<SlotModel> slots;
  // Same as above but the scrub takes 200 h: the defect is outstanding at
  // the failure instant.
  slots.push_back(scripted_slot(1e18, 50.0, 50.0, 200.0));
  slots.push_back(scripted_slot(100.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentThenOp);
}

TEST(GroupSimulator, DefectCountdownPausesWhileDefective) {
  // Paper §5 renewal: no new TTLd is sampled until the outstanding defect
  // is scrubbed — so a slow scrub caps a drive at one defect.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 50.0, 50.0, 200.0));  // clears at 250
  slots.push_back(scripted_slot(1e18, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 260.0));
  EXPECT_EQ(r.latent_defects, 1u);
  EXPECT_EQ(r.scrubs_completed, 1u);
}

TEST(GroupSimulator, MultipleDefectiveDrivesStillOneDdf) {
  // Two drives defective when a third fails: one DDF, not two.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 50.0, 40.0));
  slots.push_back(scripted_slot(1e18, 50.0, 60.0));
  slots.push_back(scripted_slot(100.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 130.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentThenOp);
  EXPECT_EQ(r.latent_defects, 2u);
}

TEST(GroupSimulator, MultipleLatentDefectsAloneAreNotFailure) {
  // Paper: "multiple simultaneous latent defects do not constitute DDF".
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 50.0, 40.0));
  slots.push_back(scripted_slot(1e18, 50.0, 60.0));
  slots.push_back(scripted_slot(1e18, 50.0, 80.0));
  const auto r = simulate(scripted_group(std::move(slots), 500.0));
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_GE(r.latent_defects, 3u);
}

TEST(GroupSimulator, FreezeWindowSuppressesSecondDdf) {
  // Paper §5: once a DDF occurs, no further DDF until it is restored.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 100.0));  // down [100, 200)
  slots.push_back(scripted_slot(110.0, 100.0));  // DDF at 110, freeze to 210
  slots.push_back(scripted_slot(115.0, 100.0));  // would be DDF, suppressed
  const auto r = simulate(scripted_group(std::move(slots), 150.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 110.0);
  EXPECT_EQ(r.op_failures, 3u);
}

TEST(GroupSimulator, GroupReturnsToStateOneAfterDdfRestore) {
  // Defects outstanding at a DDF are cleared when its restore completes
  // (paper state 1 = "no latent defects"), so a later failure is safe:
  // slot 0's defect (t=50, never scrubbed) is wiped by the DDF restore at
  // t=110 and its next defect only lands at 160, after slot 2's failure.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 10.0, 50.0));  // defect at 50 (no scrub)
  slots.push_back(scripted_slot(100.0, 10.0));       // DDF at 100, clear at 110
  slots.push_back(scripted_slot(150.0, 10.0));       // fails after the reset
  const auto r = simulate(scripted_group(std::move(slots), 158.0));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 100.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentThenOp);
}

TEST(GroupSimulator, Raid6NeedsThreeFaults) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 100.0, 50.0));  // defect at 50
  slots.push_back(scripted_slot(100.0, 100.0));       // down [100, 200)
  slots.push_back(scripted_slot(120.0, 100.0));       // third fault at 120
  slots.push_back(scripted_slot(1e18, 100.0));
  const auto r =
      simulate(scripted_group(std::move(slots), 130.0, /*redundancy=*/2));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kLatentThenOp);
}

TEST(GroupSimulator, Raid6SurvivesTwoFaults) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(1e18, 100.0, 50.0));  // defect
  slots.push_back(scripted_slot(100.0, 100.0));       // one op failure
  slots.push_back(scripted_slot(1e18, 100.0));
  slots.push_back(scripted_slot(1e18, 100.0));
  const auto r =
      simulate(scripted_group(std::move(slots), 130.0, /*redundancy=*/2));
  EXPECT_TRUE(r.ddfs.empty());
}

TEST(GroupSimulator, Raid6TripleOpIsDoubleOperationalKind) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 100.0));
  slots.push_back(scripted_slot(110.0, 100.0));
  slots.push_back(scripted_slot(120.0, 100.0));
  slots.push_back(scripted_slot(1e18, 100.0));
  const auto r =
      simulate(scripted_group(std::move(slots), 130.0, /*redundancy=*/2));
  ASSERT_EQ(r.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
  EXPECT_EQ(r.ddfs[0].kind, DdfKind::kDoubleOperational);
}

TEST(GroupSimulator, ReplacementDriveGetsFreshClocks) {
  // Slot 0 fails every 100 h of drive age with a 10 h rebuild: failures at
  // 100, 210, 320, ... within a 340 h mission -> 3 failures.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  const auto r = simulate(scripted_group(std::move(slots), 340.0));
  EXPECT_EQ(r.op_failures, 3u);
  EXPECT_EQ(r.restores_completed, 3u);
  EXPECT_TRUE(r.ddfs.empty());
}

TEST(GroupSimulator, ProbeEmittedPerOpFailure) {
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  const auto r = simulate(scripted_group(std::move(slots), 340.0));
  EXPECT_EQ(r.double_op_probe.size(), r.op_failures);
  for (const auto& [t, p] : r.double_op_probe) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GT(t, 0.0);
  }
}

TEST(GroupSimulator, ProbeIsZeroWhenPartnersCannotFail) {
  // Partner drives have (effectively) infinite lifetimes: the probability
  // of a concurrent failure is zero.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  const auto r = simulate(scripted_group(std::move(slots), 200.0));
  ASSERT_FALSE(r.double_op_probe.empty());
  EXPECT_DOUBLE_EQ(r.double_op_probe[0].second, 0.0);
}

TEST(GroupSimulator, ProbeCreditsInitiatorNotCompleter) {
  // Slot 0 opens the exposure window at t=100; its partner is certain to
  // fail inside it (Degenerate 120 < 150), so the initiator's probe entry
  // is 1. The completing failure at 120 contributes 0 — the loss was
  // already credited — keeping the probe an unbiased DDF count.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 50.0));
  slots.push_back(scripted_slot(120.0, 50.0));
  const auto r = simulate(scripted_group(std::move(slots), 130.0));
  ASSERT_EQ(r.double_op_probe.size(), 2u);
  EXPECT_DOUBLE_EQ(r.double_op_probe[0].second, 1.0);
  EXPECT_DOUBLE_EQ(r.double_op_probe[1].second, 0.0);
}

TEST(GroupSimulator, ProbeSeesAllPeersInWideGroups) {
  // Regression: probe_probability used to truncate the peer set at 64
  // drives, silently dropping the rest. Here the only peer certain to
  // fail inside slot 0's exposure window sits at index 120 of a 128-slot
  // group — inside the window (100, 150), so the probe must be exactly 1.
  // The truncating version reported 0.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 50.0));
  for (int i = 1; i < 128; ++i) {
    slots.push_back(scripted_slot(i == 120 ? 120.0 : 1e18, 50.0));
  }
  const auto r = simulate(scripted_group(std::move(slots), 130.0));
  ASSERT_FALSE(r.double_op_probe.empty());
  EXPECT_DOUBLE_EQ(r.double_op_probe[0].second, 1.0);
  ASSERT_EQ(r.ddfs.size(), 1u);  // the certain partner failure at 120
  EXPECT_DOUBLE_EQ(r.ddfs[0].time, 120.0);
}

TEST(GroupSimulator, SpareArrivingAtFailureInstantPreventsDdf) {
  // Regression for the spare-tie rule: a spare arriving at the same
  // instant as an op failure must be handed to the waiting drive before
  // the failure's fault census runs. Slot 0 drains the pool at t=100
  // (replenishment lands at 200); slot 1 fails at 150 and waits with a
  // zero-length rebuild; slot 2 fails exactly at 200. With spares served
  // first, slot 1 is whole again by the time slot 2's census looks — no
  // DDF. The old strict-inequality rule processed slot 2 first and
  // reported a spurious data loss.
  raid::GroupConfig cfg;
  cfg.slots.push_back(scripted_slot(100.0, 5.0));
  cfg.slots.push_back(scripted_slot(150.0, 0.0));
  cfg.slots.push_back(scripted_slot(200.0, 5.0));
  cfg.redundancy = 1;
  cfg.mission_hours = 201.0;
  cfg.spare_pool = raid::SparePoolConfig{1, 100.0};
  const auto r = simulate(cfg);
  EXPECT_TRUE(r.ddfs.empty());
  EXPECT_EQ(r.op_failures, 3u);
  EXPECT_EQ(r.restores_completed, 2u);
  EXPECT_EQ(r.spare_arrivals, 1u);
}

TEST(GroupSimulator, StatisticalLatentDefectRateMatchesLaw) {
  // Paper base case TTLd (eta 9259 h, beta 1) with an instantaneous scrub:
  // the defect renewal then has period E[TTLd], so expect ~8 * 87600/9259
  // defects per mission.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<Degenerate>(1e18);
  m.time_to_restore = std::make_unique<Degenerate>(10.0);
  m.time_to_latent_defect = std::make_unique<Weibull>(0.0, 9259.0, 1.0);
  m.time_to_scrub = std::make_unique<Degenerate>(0.0);
  auto cfg = raid::make_uniform_group(8, 1, m, 87600.0);
  GroupSimulator sim(cfg);
  rng::RandomStream rs(42);
  TrialResult out;
  double total = 0.0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    sim.run_trial(rs, out);
    total += static_cast<double>(out.latent_defects);
  }
  const double expected = 8.0 * 87600.0 / 9259.0;  // ~75.7 per mission
  EXPECT_NEAR(total / trials, expected, expected * 0.03);
}

TEST(GroupSimulator, StatisticalOpFailureRateMatchesWeibull) {
  // With beta = 1 lifetimes and quick repairs, failures per slot per
  // mission ~ mission / (eta + repair mean).
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<Weibull>(0.0, 5000.0, 1.0);
  m.time_to_restore = std::make_unique<Degenerate>(10.0);
  auto cfg = raid::make_uniform_group(4, 1, m, 87600.0);
  GroupSimulator sim(cfg);
  rng::RandomStream rs(43);
  TrialResult out;
  double total = 0.0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    sim.run_trial(rs, out);
    total += static_cast<double>(out.op_failures);
  }
  const double expected = 4.0 * 87600.0 / 5010.0;
  EXPECT_NEAR(total / trials, expected, expected * 0.05);
}

}  // namespace
}  // namespace raidrel::sim
