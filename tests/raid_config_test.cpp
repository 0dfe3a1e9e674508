#include "raid/group_config.h"

#include <gtest/gtest.h>

#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::raid {
namespace {

SlotModel paper_slot(bool latent = true, bool scrub = true) {
  SlotModel m;
  m.time_to_op_failure = std::make_unique<stats::Weibull>(0.0, 461386.0, 1.12);
  m.time_to_restore = std::make_unique<stats::Weibull>(6.0, 12.0, 2.0);
  if (latent) {
    m.time_to_latent_defect = std::make_unique<stats::Weibull>(0.0, 9259.0, 1.0);
  }
  if (scrub) {
    m.time_to_scrub = std::make_unique<stats::Weibull>(6.0, 168.0, 3.0);
  }
  return m;
}

TEST(SlotModel, FeatureFlags) {
  EXPECT_TRUE(paper_slot().latent_defects_enabled());
  EXPECT_TRUE(paper_slot().scrubbing_enabled());
  EXPECT_FALSE(paper_slot(false, false).latent_defects_enabled());
  EXPECT_FALSE(paper_slot(true, false).scrubbing_enabled());
}

TEST(SlotModel, CloneIsDeep) {
  const SlotModel m = paper_slot();
  const SlotModel c = m.clone();
  EXPECT_NE(c.time_to_op_failure.get(), m.time_to_op_failure.get());
  EXPECT_EQ(c.time_to_op_failure->describe(),
            m.time_to_op_failure->describe());
  EXPECT_NE(c.time_to_scrub.get(), m.time_to_scrub.get());
}

TEST(GroupConfig, UniformGroupShape) {
  const auto cfg = make_uniform_group(8, 1, paper_slot());
  EXPECT_EQ(cfg.total_drives(), 8u);
  EXPECT_EQ(cfg.data_drives(), 7u);
  EXPECT_DOUBLE_EQ(cfg.mission_hours, 87600.0);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(GroupConfig, Raid6Geometry) {
  const auto cfg = make_uniform_group(10, 2, paper_slot(), 50000.0);
  EXPECT_EQ(cfg.data_drives(), 8u);
  EXPECT_EQ(cfg.redundancy, 2u);
  EXPECT_DOUBLE_EQ(cfg.mission_hours, 50000.0);
}

TEST(GroupConfig, ValidationCatchesMistakes) {
  // Scrub without latent defects.
  auto bad = make_uniform_group(4, 1, paper_slot());
  bad.slots[0].time_to_latent_defect.reset();
  EXPECT_THROW(bad.validate(), ModelError);

  // Missing required laws.
  auto cfg = make_uniform_group(4, 1, paper_slot());
  cfg.slots[1].time_to_op_failure.reset();
  EXPECT_THROW(cfg.validate(), ModelError);

  // Redundancy >= drives.
  auto tiny = make_uniform_group(2, 1, paper_slot());
  tiny.redundancy = 2;
  EXPECT_THROW(tiny.validate(), ModelError);

  // Zero redundancy is not a RAID group.
  auto zero = make_uniform_group(4, 1, paper_slot());
  zero.redundancy = 0;
  EXPECT_THROW(zero.validate(), ModelError);
}

TEST(GroupConfig, CloneIsDeepAndValid) {
  const auto cfg = make_uniform_group(8, 1, paper_slot());
  const auto copy = cfg.clone();
  EXPECT_EQ(copy.total_drives(), 8u);
  EXPECT_NE(copy.slots[0].time_to_op_failure.get(),
            cfg.slots[0].time_to_op_failure.get());
  EXPECT_NO_THROW(copy.validate());
}

TEST(GroupConfig, HeterogeneousSlotsAllowed) {
  // Mixed vintages in one group: per-slot laws differ.
  auto cfg = make_uniform_group(4, 1, paper_slot());
  cfg.slots[2].time_to_op_failure =
      std::make_unique<stats::Weibull>(0.0, 1.2566e5, 1.2162);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_NE(cfg.slots[2].time_to_op_failure->describe(),
            cfg.slots[0].time_to_op_failure->describe());
}

}  // namespace
}  // namespace raidrel::raid
