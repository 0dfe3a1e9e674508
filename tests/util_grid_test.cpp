#include "util/grid.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace raidrel::util {
namespace {

TEST(Buckets, CountAndEdges) {
  EXPECT_EQ(bucket_count(100.0, 10.0), 10u);
  EXPECT_EQ(bucket_count(105.0, 10.0), 11u);  // clipped final bucket
}

TEST(Buckets, IndexBoundaries) {
  EXPECT_EQ(bucket_index(0.0, 100.0, 10.0), 0u);
  EXPECT_EQ(bucket_index(9.999, 100.0, 10.0), 0u);
  EXPECT_EQ(bucket_index(10.0, 100.0, 10.0), 1u);
  EXPECT_EQ(bucket_index(99.99, 100.0, 10.0), 9u);
  EXPECT_EQ(bucket_index(100.0, 100.0, 10.0), 9u);  // horizon -> last bucket
}

TEST(Buckets, IndexRejectsOutOfRange) {
  EXPECT_THROW(bucket_index(-1.0, 100.0, 10.0), ModelError);
  EXPECT_THROW(bucket_index(101.0, 100.0, 10.0), ModelError);
}

TEST(Buckets, ClippedFinalBucketIndex) {
  // 105-h horizon, 10-h buckets: the 11th bucket is half width, and both
  // its interior and t == horizon land in it.
  EXPECT_EQ(bucket_index(100.0, 105.0, 10.0), 10u);
  EXPECT_EQ(bucket_index(104.9, 105.0, 10.0), 10u);
  EXPECT_EQ(bucket_index(105.0, 105.0, 10.0), 10u);  // t == horizon
}

TEST(Buckets, ExactEdgeTiesGoRight) {
  // Every interior edge belongs to the bucket it opens, matching the
  // IndexBoundaries convention at t = 10.
  EXPECT_EQ(bucket_index(20.0, 100.0, 10.0), 2u);
  EXPECT_EQ(bucket_index(90.0, 100.0, 10.0), 9u);
}

TEST(Buckets, WidthWiderThanHorizon) {
  // A single clipped bucket covers everything.
  EXPECT_EQ(bucket_count(5.0, 10.0), 1u);
  EXPECT_EQ(bucket_index(0.0, 5.0, 10.0), 0u);
  EXPECT_EQ(bucket_index(5.0, 5.0, 10.0), 0u);
}

TEST(Buckets, PaperGeometry) {
  // 10-year mission, ~monthly buckets: the geometry every bench uses.
  EXPECT_EQ(bucket_count(87600.0, 730.0), 120u);
  EXPECT_EQ(bucket_index(8760.0, 87600.0, 730.0), 12u);  // year-1 edge
}

}  // namespace
}  // namespace raidrel::util
