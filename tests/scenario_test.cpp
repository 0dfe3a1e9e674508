#include "core/scenario.h"

#include <gtest/gtest.h>

#include "core/presets.h"
#include "util/error.h"

namespace raidrel::core {
namespace {

TEST(Scenario, BaseCaseMatchesTable2) {
  const auto cfg = presets::base_case();
  EXPECT_EQ(cfg.group_drives, 8u);
  EXPECT_EQ(cfg.redundancy, 1u);
  EXPECT_DOUBLE_EQ(cfg.mission_hours, 87600.0);
  EXPECT_DOUBLE_EQ(cfg.ttop.eta, 461386.0);
  EXPECT_DOUBLE_EQ(cfg.ttop.beta, 1.12);
  EXPECT_DOUBLE_EQ(cfg.ttr.gamma, 6.0);
  EXPECT_DOUBLE_EQ(cfg.ttr.eta, 12.0);
  EXPECT_DOUBLE_EQ(cfg.ttr.beta, 2.0);
  ASSERT_TRUE(cfg.ttld.has_value());
  EXPECT_DOUBLE_EQ(cfg.ttld->eta, 9259.0);
  EXPECT_DOUBLE_EQ(cfg.ttld->beta, 1.0);
  ASSERT_TRUE(cfg.ttscrub.has_value());
  EXPECT_DOUBLE_EQ(cfg.ttscrub->gamma, 6.0);
  EXPECT_DOUBLE_EQ(cfg.ttscrub->eta, 168.0);
  EXPECT_DOUBLE_EQ(cfg.ttscrub->beta, 3.0);
}

TEST(Scenario, ToGroupConfigMaterializesAllLaws) {
  const auto group = presets::base_case().to_group_config();
  EXPECT_EQ(group.total_drives(), 8u);
  EXPECT_EQ(group.data_drives(), 7u);
  for (const auto& slot : group.slots) {
    EXPECT_TRUE(slot.latent_defects_enabled());
    EXPECT_TRUE(slot.scrubbing_enabled());
  }
  EXPECT_NO_THROW(group.validate());
}

TEST(Scenario, NoLatentVariantsDropLaws) {
  const auto group = presets::no_latent_defects().to_group_config();
  for (const auto& slot : group.slots) {
    EXPECT_FALSE(slot.latent_defects_enabled());
    EXPECT_FALSE(slot.scrubbing_enabled());
  }
}

TEST(Scenario, ScrubWithoutLatentRejected) {
  ScenarioConfig cfg = presets::base_case();
  cfg.ttld.reset();  // keep ttscrub
  EXPECT_THROW(cfg.to_group_config(), ModelError);
}

TEST(Scenario, RedundancyBoundsValidatedWithDriverFriendlyMessages) {
  // The CLI/scenario boundary must reject impossible geometries before
  // they reach the engines, naming the offending numbers.
  ScenarioConfig no_check = presets::base_case();
  no_check.redundancy = 0;
  try {
    (void)no_check.to_group_config();
    FAIL() << "redundancy 0 must be rejected";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("at least 1 check drive"),
              std::string::npos)
        << e.what();
  }

  ScenarioConfig all_checks = presets::base_case();
  all_checks.group_drives = 4;
  all_checks.redundancy = 4;  // no data drive left
  try {
    (void)all_checks.to_group_config();
    FAIL() << "group_drives == redundancy must be rejected";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("group_drives > redundancy"),
              std::string::npos)
        << e.what();
  }

  // m >= 3 general erasure codes are valid geometry, not an error.
  ScenarioConfig wide = presets::base_case();
  wide.group_drives = 12;
  wide.redundancy = 4;
  EXPECT_NO_THROW(wide.to_group_config().validate());
}

TEST(Scenario, SummaryMentionsEveryLaw) {
  const auto s = presets::base_case().summary();
  EXPECT_NE(s.find("TTOp"), std::string::npos);
  EXPECT_NE(s.find("TTR"), std::string::npos);
  EXPECT_NE(s.find("TTLd"), std::string::npos);
  EXPECT_NE(s.find("TTScrub"), std::string::npos);
  const auto ns = presets::base_case_no_scrub().summary();
  EXPECT_NE(ns.find("no-scrub"), std::string::npos);
}

TEST(Presets, Fig6VariantsDifferAsLabeled) {
  using presets::Fig6Variant;
  const auto cc = presets::fig6_variant(Fig6Variant::kConstConst);
  EXPECT_DOUBLE_EQ(cc.ttop.beta, 1.0);
  EXPECT_DOUBLE_EQ(cc.ttr.beta, 1.0);
  EXPECT_DOUBLE_EQ(cc.ttr.gamma, 0.0);
  EXPECT_FALSE(cc.ttld.has_value());

  const auto ftc = presets::fig6_variant(Fig6Variant::kTimeDepConst);
  EXPECT_DOUBLE_EQ(ftc.ttop.beta, 1.12);
  EXPECT_DOUBLE_EQ(ftc.ttr.beta, 1.0);

  const auto crt = presets::fig6_variant(Fig6Variant::kConstTimeDep);
  EXPECT_DOUBLE_EQ(crt.ttop.beta, 1.0);
  EXPECT_DOUBLE_EQ(crt.ttr.gamma, 6.0);

  const auto ftrt = presets::fig6_variant(Fig6Variant::kTimeDepTimeDep);
  EXPECT_DOUBLE_EQ(ftrt.ttop.beta, 1.12);
  EXPECT_DOUBLE_EQ(ftrt.ttr.beta, 2.0);

  EXPECT_EQ(presets::all_fig6_variants().size(), 4u);
  EXPECT_STREQ(presets::to_string(Fig6Variant::kConstConst), "c-c");
}

TEST(Presets, ScrubSweepReplacesOnlyScrubEta) {
  const auto cfg = presets::with_scrub_duration(48.0);
  ASSERT_TRUE(cfg.ttscrub.has_value());
  EXPECT_DOUBLE_EQ(cfg.ttscrub->eta, 48.0);
  EXPECT_DOUBLE_EQ(cfg.ttscrub->gamma, 6.0);
  EXPECT_DOUBLE_EQ(cfg.ttscrub->beta, 3.0);
  EXPECT_DOUBLE_EQ(cfg.ttld->eta, 9259.0);  // untouched
  const auto sweep = presets::fig9_scrub_durations();
  EXPECT_EQ(sweep.size(), 4u);
  EXPECT_DOUBLE_EQ(sweep[0], 12.0);
  EXPECT_DOUBLE_EQ(sweep[3], 336.0);
}

TEST(Presets, ShapeSweepReplacesOnlyOpBeta) {
  const auto cfg = presets::with_op_shape(0.8);
  EXPECT_DOUBLE_EQ(cfg.ttop.beta, 0.8);
  EXPECT_DOUBLE_EQ(cfg.ttop.eta, 461386.0);
  const auto shapes = presets::fig10_shapes();
  EXPECT_EQ(shapes.size(), 5u);
  EXPECT_DOUBLE_EQ(shapes[2], 1.12);
}

TEST(Presets, Raid6BaseCaseGeometry) {
  const auto cfg = presets::raid6_base_case();
  EXPECT_EQ(cfg.group_drives, 10u);
  EXPECT_EQ(cfg.redundancy, 2u);
  EXPECT_NO_THROW(cfg.to_group_config().validate());
}

TEST(Presets, MixedVintageGroupCyclesPublishedLaws) {
  const auto cfg = presets::mixed_vintage_group();
  ASSERT_EQ(cfg.slots.size(), 8u);
  EXPECT_NO_THROW(cfg.validate());
  // Slots 0 and 3 share vintage 1; slots 0 and 1 differ.
  EXPECT_EQ(cfg.slots[0].time_to_op_failure->describe(),
            cfg.slots[3].time_to_op_failure->describe());
  EXPECT_NE(cfg.slots[0].time_to_op_failure->describe(),
            cfg.slots[1].time_to_op_failure->describe());
  // Vintage 3's eta (7.5012e4) appears in some slot.
  bool found = false;
  for (const auto& s : cfg.slots) {
    found |= s.time_to_op_failure->describe().find("75012") !=
             std::string::npos;
  }
  EXPECT_TRUE(found);
  // No-scrub variant drops the scrub law but keeps defects.
  const auto ns = presets::mixed_vintage_group(87600.0, false);
  EXPECT_FALSE(ns.slots[0].scrubbing_enabled());
  EXPECT_TRUE(ns.slots[0].latent_defects_enabled());
}

TEST(Presets, MttdlInputsMatchEq3Example) {
  const auto in = presets::mttdl_inputs();
  EXPECT_EQ(in.data_drives, 7u);
  EXPECT_DOUBLE_EQ(in.mttf_hours, 461386.0);
  EXPECT_DOUBLE_EQ(in.mttr_hours, 12.0);
}

}  // namespace
}  // namespace raidrel::core
