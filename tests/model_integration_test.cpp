// End-to-end integration: the facade must reproduce the paper's headline
// quantitative claims (shape, ordering, and magnitude bands — see DESIGN.md
// for the reproduction criteria). These use smaller trial counts than the
// bench harnesses; tolerances are set accordingly.
#include <gtest/gtest.h>

#include "analytic/mttdl.h"
#include "core/model.h"
#include "core/presets.h"

namespace raidrel::core {
namespace {

sim::RunOptions quick(std::size_t trials, std::uint64_t seed) {
  return {.trials = trials, .seed = seed, .threads = 0,
          .bucket_hours = 730.0};
}

/// quick() recording the double-op probe (Fig. 6).
sim::RunOptions probed(std::size_t trials, std::uint64_t seed) {
  sim::RunOptions opt = quick(trials, seed);
  opt.double_op_probe = true;
  return opt;
}

TEST(ModelIntegration, MttdlBaselineWiredCorrectly) {
  const auto result =
      evaluate_scenario(presets::base_case(), quick(200, 1));
  // Paper eq. 3: MTTDL ~ 36,162 years, 0.277 DDFs / 1000 groups / 10 yr.
  EXPECT_NEAR(result.mttdl_hours / analytic::kHoursPerYear, 36162.0, 50.0);
  EXPECT_NEAR(result.mttdl_ddfs_per_1000_at(87600.0), 0.277, 0.01);
  EXPECT_EQ(result.mttdl_inputs.data_drives, 7u);
}

TEST(ModelIntegration, ConstConstVariantMatchesMttdlViaProbe) {
  // The paper's Fig. 6 sanity check: under constant rates the simulation
  // reproduces the MTTDL line. Counting would need ~1e8 trials; the
  // conditional-expectation probe gets there in 20k.
  const auto result = evaluate_scenario(
      presets::fig6_variant(presets::Fig6Variant::kConstConst),
      probed(20000, 2));
  const double probe =
      result.run.total_ddfs_per_1000(sim::Estimator::kDoubleOpProbe);
  const double mttdl = result.mttdl_ddfs_per_1000_at(87600.0);
  EXPECT_NEAR(probe / mttdl, 1.0, 0.15);
}

TEST(ModelIntegration, Fig6VariantOrderingViaProbe) {
  // Fig. 6's qualitative content: the 3-parameter restore law raises
  // 10-year double-op DDFs above the MTTDL line, the beta = 1.12 failure
  // law lowers them below it, and c-c sits on it. Check the full ordering
  // c-r(t) > c-c > f(t)-r(t) > f(t)-c with the probe estimator.
  using presets::Fig6Variant;
  auto probe_total = [&](Fig6Variant v) {
    const auto r = evaluate_scenario(presets::fig6_variant(v),
                                     probed(30000, 11));
    return r.run.total_ddfs_per_1000(sim::Estimator::kDoubleOpProbe);
  };
  const double crt = probe_total(Fig6Variant::kConstTimeDep);
  const double cc = probe_total(Fig6Variant::kConstConst);
  const double ftrt = probe_total(Fig6Variant::kTimeDepTimeDep);
  const double ftc = probe_total(Fig6Variant::kTimeDepConst);
  EXPECT_GT(crt, cc);
  EXPECT_GT(cc, ftrt);
  EXPECT_GT(ftrt, ftc);
}

TEST(ModelIntegration, NoScrubProducesPaperScaleDdfs) {
  // Paper: "over 1,200 DDFs in 1,000 RAID groups over the 10-year mission"
  // without scrubbing (our DDF-reset convention trims that slightly).
  const auto result =
      evaluate_scenario(presets::base_case_no_scrub(), quick(3000, 3));
  const double total = result.run.total_ddfs_per_1000();
  EXPECT_GT(total, 800.0);
  EXPECT_LT(total, 1700.0);
}

TEST(ModelIntegration, ScrubDurationOrdersDdfs) {
  // Fig. 9: shorter scrubs -> fewer DDFs, no-scrub worst.
  double prev = 0.0;
  for (double scrub : {12.0, 48.0, 168.0, 336.0}) {
    const auto result = evaluate_scenario(presets::with_scrub_duration(scrub),
                                          quick(3000, 4));
    const double total = result.run.total_ddfs_per_1000();
    EXPECT_GT(total, prev) << "scrub=" << scrub;
    prev = total;
  }
  const auto no_scrub =
      evaluate_scenario(presets::base_case_no_scrub(), quick(3000, 4));
  EXPECT_GT(no_scrub.run.total_ddfs_per_1000(), prev);
}

TEST(ModelIntegration, LatentThenOpDominatesBaseCase) {
  // The paper's core claim: latent defects, not double operational
  // failures, drive data loss.
  const auto result =
      evaluate_scenario(presets::base_case(), quick(4000, 5));
  const double latent =
      result.run.total_per_1000(raid::DdfKind::kLatentThenOp);
  const double double_op =
      result.run.total_per_1000(raid::DdfKind::kDoubleOperational);
  EXPECT_GT(latent, 30.0 * std::max(double_op, 1e-6));
}

TEST(ModelIntegration, FirstYearRatioVsMttdlIsHuge) {
  // Table 3: 168 h scrub -> ratio > 360 in the first year. Assert a
  // conservative floor at test-size trial counts.
  const auto result =
      evaluate_scenario(presets::base_case(), quick(6000, 6));
  const double ratio = result.ratio_vs_mttdl_at(8760.0);
  EXPECT_GT(ratio, 100.0);
  EXPECT_LT(ratio, 2000.0);
}

TEST(ModelIntegration, OpShapeSensitivityMatchesFig10Ordering) {
  // Fig. 10: at fixed eta, beta = 0.8 front-loads failures (more DDFs over
  // the mission) relative to beta = 1.4.
  const auto low =
      evaluate_scenario(presets::with_op_shape(0.8), quick(4000, 7));
  const auto high =
      evaluate_scenario(presets::with_op_shape(1.4), quick(4000, 7));
  EXPECT_GT(low.run.total_ddfs_per_1000(),
            1.5 * high.run.total_ddfs_per_1000());
}

TEST(ModelIntegration, Raid6SlashesDdfs) {
  // The paper's conclusion: "eventually, RAID 6 will be required".
  const auto r5 = evaluate_scenario(presets::base_case(), quick(4000, 8));
  const auto r6 =
      evaluate_scenario(presets::raid6_base_case(), quick(4000, 8));
  EXPECT_LT(r6.run.total_ddfs_per_1000(),
            0.5 * r5.run.total_ddfs_per_1000());
}

TEST(ModelIntegration, RocofIncreasesOverMission) {
  // Fig. 8: the rate of occurrence of failures grows in time (beta > 1
  // wear-out shows through the system-level process). Compare first and
  // last thirds of the mission.
  const auto result =
      evaluate_scenario(presets::base_case_no_scrub(), quick(4000, 9));
  const auto rocof = result.run.rocof_per_1000();
  const std::size_t third = rocof.size() / 3;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < third; ++i) early += rocof[i];
  for (std::size_t i = rocof.size() - third; i < rocof.size(); ++i) {
    late += rocof[i];
  }
  EXPECT_GT(late, 1.2 * early);
}

TEST(ModelIntegration, EvaluateGroupEscapeHatch) {
  // Arbitrary GroupConfig with a caller-supplied baseline.
  const auto group = presets::base_case().to_group_config();
  const auto result = evaluate_group(group, presets::mttdl_inputs(),
                                     quick(500, 10), "custom-run");
  EXPECT_EQ(result.scenario_name, "custom-run");
  EXPECT_GT(result.run.trials(), 0u);
}

}  // namespace
}  // namespace raidrel::core
