// Tests of reconstruction write-errors (paper §4.2): a completed rebuild
// can leave the new drive already carrying a latent defect. Creation never
// triggers a DDF; a later operational failure against it does.
#include <cmath>

#include <gtest/gtest.h>

#include "core/presets.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "sim/timing_engine.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "util/error.h"
#include "util/math.h"
#include "workload/restore_model.h"

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

TEST(ReconstructionErrors, PhysicalProbabilityModel) {
  workload::RebuildEnvironment env;  // 144 GB
  // 144e9 Bytes at 8e-14 err/Byte -> lambda ~ 0.01152.
  EXPECT_NEAR(workload::reconstruction_defect_probability(env, 8.0e-14),
              0.011454, 1e-5);
  EXPECT_DOUBLE_EQ(workload::reconstruction_defect_probability(env, 0.0),
                   0.0);
  env.drive_capacity_gb = 500.0;
  const double p =
      workload::reconstruction_defect_probability(env, 3.2e-13);
  EXPECT_NEAR(p, -std::expm1(-500e9 * 3.2e-13), 1e-12);
  EXPECT_THROW(workload::reconstruction_defect_probability(env, -1.0),
               ModelError);
}

TEST(ReconstructionErrors, CertainWriteErrorArmsTheNewDrive) {
  // p = 1: every rebuild plants a defect. Slot 0 fails at 100, rebuilt by
  // 110 with a defect; slot 1's failure at 150 then finds it -> DDF.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));
  slots.push_back(scripted_slot(150.0, 10.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 160.0;
  cfg.reconstruction_defect_probability = 1.0;
  GroupSimulator sim(cfg);
  rng::RandomStream rs(1);
  TrialResult out;
  sim.run_trial(rs, out);
  EXPECT_GE(out.latent_defects, 1u);
  ASSERT_EQ(out.ddfs.size(), 1u);
  EXPECT_DOUBLE_EQ(out.ddfs[0].time, 150.0);
  EXPECT_EQ(out.ddfs[0].kind, DdfKind::kLatentThenOp);
}

TEST(ReconstructionErrors, CreationItselfIsNotADdf) {
  // Only one drive ever fails: its rebuilds keep planting defects on
  // itself, but with no second failure there is never data loss.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0));
  slots.push_back(scripted_slot(1e18, 10.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 500.0;
  cfg.reconstruction_defect_probability = 1.0;
  GroupSimulator sim(cfg);
  rng::RandomStream rs(2);
  TrialResult out;
  sim.run_trial(rs, out);
  EXPECT_TRUE(out.ddfs.empty());
  EXPECT_GE(out.latent_defects, 3u);  // one per completed rebuild
}

TEST(ReconstructionErrors, ScrubCleansReconstructionDefects) {
  // With a fast scrub the planted defect is gone before the second
  // failure arrives.
  std::vector<SlotModel> slots;
  slots.push_back(scripted_slot(100.0, 10.0, 1e18, 5.0));  // scrub in 5 h
  slots.push_back(scripted_slot(150.0, 10.0, 1e18, 5.0));
  GroupConfig cfg;
  cfg.slots = std::move(slots);
  cfg.redundancy = 1;
  cfg.mission_hours = 160.0;
  cfg.reconstruction_defect_probability = 1.0;
  GroupSimulator sim(cfg);
  rng::RandomStream rs(3);
  TrialResult out;
  sim.run_trial(rs, out);
  EXPECT_TRUE(out.ddfs.empty());
  EXPECT_GE(out.scrubs_completed, 1u);
}

TEST(ReconstructionErrors, ValidationRequiresLatentMachinery) {
  auto cfg = core::presets::no_latent_defects().to_group_config();
  cfg.reconstruction_defect_probability = 0.1;
  EXPECT_THROW(cfg.validate(), ModelError);
  auto bad = core::presets::base_case().to_group_config();
  bad.reconstruction_defect_probability = 1.5;
  EXPECT_THROW(bad.validate(), ModelError);
}

TEST(ReconstructionErrors, EnginesAgreeStatistically) {
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 3000.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 50.0, 2.0);
  m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 4000.0, 1.0);
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 150.0, 3.0);
  auto cfg = raid::make_uniform_group(8, 1, m, 20000.0);
  cfg.clear_defects_on_ddf_restore = false;
  cfg.reconstruction_defect_probability = 0.3;

  util::RunningStats a_defects, b_defects, a_ddfs, b_ddfs;
  {
    GroupSimulator engine(cfg);
    rng::StreamFactory streams(61);
    TrialResult out;
    for (std::uint64_t i = 0; i < 2500; ++i) {
      auto rs = streams.stream(i);
      engine.run_trial(rs, out);
      a_defects.add(static_cast<double>(out.latent_defects));
      a_ddfs.add(static_cast<double>(out.ddfs.size()));
    }
  }
  {
    TimingDiagramEngine engine(cfg);
    rng::StreamFactory streams(62);
    TrialResult out;
    for (std::uint64_t i = 0; i < 2500; ++i) {
      auto rs = streams.stream(i);
      engine.run_trial(rs, out);
      b_defects.add(static_cast<double>(out.latent_defects));
      b_ddfs.add(static_cast<double>(out.ddfs.size()));
    }
  }
  const double sem_d =
      std::sqrt(a_defects.sem() * a_defects.sem() +
                b_defects.sem() * b_defects.sem());
  EXPECT_NEAR(a_defects.mean(), b_defects.mean(), 5.0 * sem_d);
  const double sem_f = std::sqrt(a_ddfs.sem() * a_ddfs.sem() +
                                 b_ddfs.sem() * b_ddfs.sem());
  EXPECT_NEAR(a_ddfs.mean(), b_ddfs.mean(), 5.0 * sem_f);
}

TEST(ReconstructionErrors, RaisesDdfsOnBaseCase) {
  auto clean = core::presets::base_case().to_group_config();
  auto dirty = clean.clone();
  // A deliberately harsh write-error rate to make the effect measurable
  // at test-sized trial counts.
  dirty.reconstruction_defect_probability = 0.5;
  const RunOptions run{.trials = 20000, .seed = 8, .threads = 0,
                       .bucket_hours = 730.0};
  const auto a = run_monte_carlo(clean, run);
  const auto b = run_monte_carlo(dirty, run);
  EXPECT_GT(b.total_ddfs_per_1000(), a.total_ddfs_per_1000());
}

}  // namespace
}  // namespace raidrel::sim
