// Tests of the latent-defect clock semantics (raid::LatentClock): the
// paper's §5 renewal vs the drive-age NHPP needed by phase-dependent
// (duty-cycle) defect laws.
#include <gtest/gtest.h>

#include "core/presets.h"
#include "sim/group_simulator.h"
#include "sim/runner.h"
#include "stats/piecewise.h"
#include "stats/weibull.h"
#include "support/degenerate.h"
#include "workload/duty_cycle.h"

namespace raidrel::sim {
namespace {

TEST(LatentClock, ModesIdenticalForExponentialLaw) {
  // Memoryless TTLd: the residual draw and the fresh draw transform the
  // same Exp(1) variate identically, so whole runs match bit for bit. The
  // base case is latent-credited (no latent draws at all); keeping defects
  // across a DDF restore puts the same exponential law on the event path,
  // where the two clocks really draw.
  auto credited = core::presets::base_case().to_group_config();
  auto events = credited.clone();
  events.clear_defects_on_ddf_restore = false;
  for (const raid::GroupConfig* renewal : {&credited, &events}) {
    auto drive_age = renewal->clone();
    drive_age.latent_clock = raid::LatentClock::kDriveAge;
    const RunOptions run{.trials = 400, .seed = 3, .threads = 1,
                         .bucket_hours = 730.0};
    const auto a = run_monte_carlo(*renewal, run);
    const auto b = run_monte_carlo(drive_age, run);
    EXPECT_DOUBLE_EQ(a.total_ddfs_per_1000(), b.total_ddfs_per_1000());
    EXPECT_EQ(a.latent_defects(), b.latent_defects());
    EXPECT_EQ(a.scrubs_completed(), b.scrubs_completed());
  }
  EXPECT_GT(run_monte_carlo(events, {.trials = 50, .seed = 3, .threads = 1,
                                     .bucket_hours = 730.0})
                .latent_defects(),
            0u);
}

TEST(LatentClock, DriveAgeRespectsQuietPhase) {
  // Zero defect intensity for the first 5,000 h, then a high rate. Under
  // the drive-age clock no defect can occur in the quiet phase.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Degenerate>(1e18);
  m.time_to_restore = std::make_unique<stats::Degenerate>(10.0);
  m.time_to_latent_defect = std::make_unique<stats::PiecewiseConstantHazard>(
      std::vector<stats::PiecewiseConstantHazard::Segment>{
          {0.0, 0.0}, {5000.0, 1.0 / 200.0}});
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  auto cfg = raid::make_uniform_group(4, 1, m, 20000.0);
  cfg.latent_clock = raid::LatentClock::kDriveAge;
  GroupSimulator sim(cfg);
  rng::StreamFactory streams(7);
  TrialResult out;
  std::uint64_t defects = 0;
  for (int i = 0; i < 200; ++i) {
    auto rs = streams.stream(static_cast<std::uint64_t>(i));
    sim.run_trial(rs, out);
    defects += out.latent_defects;
    // All arrivals land after the quiet phase, visible indirectly: with
    // the renewal clock defects restart in the quiet phase after every
    // scrub, throttling the count; drive-age should see the full rate.
  }
  // Expected arrivals per drive over the active 15,000 h with pauses of
  // ~150 h per defect: roughly 15000/(200+150) ~ 43; 4 drives, 200 trials.
  const double per_drive =
      static_cast<double>(defects) / (4.0 * 200.0);
  EXPECT_GT(per_drive, 30.0);
  EXPECT_LT(per_drive, 50.0);
}

TEST(LatentClock, RenewalClockRestartsPhaseLaw) {
  // Same configuration under the paper's renewal clock: every scrub
  // completion restarts the law at its (zero-rate) first phase, so after
  // the first defect each renewal costs another 5,000 h of silence —
  // massively fewer defects. This contrast is why kDriveAge exists.
  raid::SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Degenerate>(1e18);
  m.time_to_restore = std::make_unique<stats::Degenerate>(10.0);
  m.time_to_latent_defect = std::make_unique<stats::PiecewiseConstantHazard>(
      std::vector<stats::PiecewiseConstantHazard::Segment>{
          {0.0, 0.0}, {5000.0, 1.0 / 200.0}});
  m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  auto cfg = raid::make_uniform_group(4, 1, m, 20000.0);
  cfg.latent_clock = raid::LatentClock::kRenewal;  // default
  GroupSimulator sim(cfg);
  rng::StreamFactory streams(7);
  TrialResult out;
  std::uint64_t defects = 0;
  for (int i = 0; i < 200; ++i) {
    auto rs = streams.stream(static_cast<std::uint64_t>(i));
    sim.run_trial(rs, out);
    defects += out.latent_defects;
  }
  const double per_drive = static_cast<double>(defects) / (4.0 * 200.0);
  // Each defect cycle costs >= 5000 h: at most ~4 per drive in 20,000 h.
  EXPECT_LT(per_drive, 5.0);
}

TEST(LatentClock, BackLoadedWorkloadIsWorseUnderDriveAge) {
  // The bench_duty_cycle claim as a test: same lifetime read volume,
  // defects arriving late (when the beta = 1.12 op hazard is high) lose
  // more data than defects arriving early.
  const double rer = 8.0e-14;
  auto make = [&](const workload::DutyCycleProfile& profile) {
    auto cfg = core::presets::base_case().to_group_config();
    cfg.latent_clock = raid::LatentClock::kDriveAge;
    const auto ttld = workload::ttld_from_profile(profile, rer);
    for (auto& slot : cfg.slots) slot.time_to_latent_defect = ttld.clone();
    return cfg;
  };
  const RunOptions run{.trials = 6000, .seed = 9, .threads = 0,
                       .bucket_hours = 730.0};
  // Symmetric volumes: heavy first year vs heavy last year.
  workload::DutyCycleProfile front{
      "front", {{"heavy", 0.0, 1.35e10}, {"quiet", 8760.0, 1.35e9}}};
  workload::DutyCycleProfile back{
      "back", {{"quiet", 0.0, 1.35e9}, {"heavy", 78840.0, 1.35e10}}};
  const auto f = run_monte_carlo(make(front), run);
  const auto b = run_monte_carlo(make(back), run);
  // Early defects face the infant op hazard; late ones the worn hazard.
  // With beta = 1.12 the late-heavy profile must lose more data per
  // *heavy-phase* exposure; compare DDFs inside each heavy year.
  const double front_heavy = f.ddfs_per_1000_at(8760.0);
  const double back_heavy =
      b.ddfs_per_1000_at(87600.0) - b.ddfs_per_1000_at(78840.0);
  EXPECT_GT(back_heavy, 1.1 * front_heavy);
}

}  // namespace
}  // namespace raidrel::sim
