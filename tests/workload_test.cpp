#include <gtest/gtest.h>

#include "util/error.h"
#include "workload/read_errors.h"
#include "workload/restore_model.h"

namespace raidrel::workload {
namespace {

TEST(ReadErrors, Table1GridMatchesPaper) {
  // Paper Table 1: err/h = RER x Bytes/h across the 3x2 grid.
  const auto grid = table1_grid();
  ASSERT_EQ(grid.size(), 6u);
  // Low RER (8e-15): 1.08e-5 and 1.08e-4 err/h.
  EXPECT_NEAR(grid[0].errors_per_hour, 1.08e-5, 1e-9);
  EXPECT_NEAR(grid[1].errors_per_hour, 1.08e-4, 1e-8);
  // Med RER (8e-14): 1.08e-4 and 1.08e-3.
  EXPECT_NEAR(grid[2].errors_per_hour, 1.08e-4, 1e-8);
  EXPECT_NEAR(grid[3].errors_per_hour, 1.08e-3, 1e-7);
  // High RER (3.2e-13): 4.32e-4 and 4.32e-3.
  EXPECT_NEAR(grid[4].errors_per_hour, 4.32e-4, 1e-8);
  EXPECT_NEAR(grid[5].errors_per_hour, 4.32e-3, 1e-7);
}

TEST(ReadErrors, BaseCaseRateIsMediumLowCell) {
  // 1.08e-4 err/h -> eta = 1/rate = 9259 h, the paper's Table 2 TTLd.
  const Table1Cell cell = table1_grid()[2];
  EXPECT_EQ(cell.rer_label, "Med");
  EXPECT_EQ(cell.rate_label, "Low Rate");
  EXPECT_NEAR(cell.errors_per_hour, 1.08e-4, 1e-10);
  EXPECT_NEAR(1.0 / cell.errors_per_hour, 9259.26, 0.01);
}

TEST(ReadErrors, PublishedStudiesPresent) {
  const auto studies = published_rer_studies();
  ASSERT_EQ(studies.size(), 3u);
  EXPECT_DOUBLE_EQ(studies[0].errors_per_byte, 8.0e-14);
  EXPECT_DOUBLE_EQ(studies[1].errors_per_byte, 3.2e-13);
  EXPECT_DOUBLE_EQ(studies[2].errors_per_byte, 8.0e-15);
}

TEST(ReadErrors, RateValidation) {
  EXPECT_THROW(latent_defect_rate_per_hour(-1.0, 1.0), ModelError);
}

TEST(RestoreModel, PaperSataExample) {
  // 500 GB SATA drive on a 1.5 Gb/s bus, group of 14 -> ~10.4 h minimum.
  RebuildEnvironment env;
  env.drive_capacity_gb = 500.0;
  env.drive_rate_mb_s = 50.0;
  env.bus_rate_gbit_s = 1.5;
  env.group_size = 14;
  EXPECT_NEAR(minimum_rebuild_hours(env), 10.4, 0.2);
}

TEST(RestoreModel, PaperFibreChannelExample) {
  // 144 GB FC drive, 2 Gb/s bus, group of 14 -> paper says ~3 h; the
  // bus-share model gives ~2.2 h (the paper rounds up); assert the band.
  RebuildEnvironment env;  // defaults are exactly this case
  const double h = minimum_rebuild_hours(env);
  EXPECT_GT(h, 1.8);
  EXPECT_LT(h, 3.2);
}

TEST(RestoreModel, ForegroundIoStretchesRebuild) {
  RebuildEnvironment env;
  const double idle = minimum_rebuild_hours(env);
  env.foreground_io_fraction = 0.5;
  EXPECT_NEAR(minimum_rebuild_hours(env), 2.0 * idle, 1e-9);
}

TEST(RestoreModel, DriveRateBindsWhenBusIsFast) {
  RebuildEnvironment env;
  env.bus_rate_gbit_s = 100.0;  // effectively unconstrained
  env.drive_rate_mb_s = 50.0;
  env.drive_capacity_gb = 180.0;
  // 180,000 MB at 50 MB/s = 1 h.
  EXPECT_NEAR(minimum_rebuild_hours(env), 1.0, 1e-9);
}

TEST(RestoreModel, ScrubFasterThanRebuild) {
  // A scrub reads one drive at full bandwidth; a rebuild shares the bus
  // with the whole group, so scrub minimum <= rebuild minimum.
  RebuildEnvironment env;
  EXPECT_LE(minimum_scrub_hours(env), minimum_rebuild_hours(env));
}

TEST(RestoreModel, DistributionsCarryPhysicalMinimumAsLocation) {
  RebuildEnvironment env;
  const auto restore = restore_distribution(env, {12.0, 2.0});
  EXPECT_NEAR(restore.location(), minimum_rebuild_hours(env), 1e-12);
  EXPECT_DOUBLE_EQ(restore.scale(), 12.0);
  EXPECT_DOUBLE_EQ(restore.shape(), 2.0);
  EXPECT_DOUBLE_EQ(restore.cdf(restore.location()), 0.0);

  const auto scrub = scrub_distribution(env, 168.0);
  EXPECT_NEAR(scrub.location(), minimum_scrub_hours(env), 1e-12);
  EXPECT_DOUBLE_EQ(scrub.scale(), 168.0);
  EXPECT_DOUBLE_EQ(scrub.shape(), 3.0);
}

TEST(RestoreModel, ValidatesEnvironment) {
  RebuildEnvironment env;
  env.group_size = 1;
  EXPECT_THROW(minimum_rebuild_hours(env), ModelError);
  env = {};
  env.foreground_io_fraction = 1.0;
  EXPECT_THROW(minimum_rebuild_hours(env), ModelError);
  env = {};
  env.drive_capacity_gb = 0.0;
  EXPECT_THROW(minimum_scrub_hours(env), ModelError);
}

}  // namespace
}  // namespace raidrel::workload
