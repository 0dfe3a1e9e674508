#include "rng/rng.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace raidrel::rng {
namespace {

TEST(Splitmix64, KnownSequence) {
  // Reference values for seed 0 (Vigna's splitmix64.c).
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64(s), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(s), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(s), 0x06C45D188009454FULL);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, AllZeroStateIsRepaired) {
  Xoshiro256 z(std::array<std::uint64_t, 4>{0, 0, 0, 0});
  // A true all-zero xoshiro state would emit zeros forever.
  bool any_nonzero = false;
  for (int i = 0; i < 8; ++i) any_nonzero |= (z() != 0);
  EXPECT_TRUE(any_nonzero);
}

TEST(RandomStream, UniformInHalfOpenUnit) {
  RandomStream rs(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rs.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStream, UniformOpenNeverHitsEndpoints) {
  RandomStream rs(42);
  for (int i = 0; i < 100000; ++i) {
    const double u = rs.uniform_open();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStream, UniformMeanAndVariance) {
  RandomStream rs(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rs.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.003);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(RandomStream, UniformIndexCoversAllValuesUnbiased) {
  RandomStream rs(11);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rs.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 5.0 * std::sqrt(n / 7.0));
  }
}

TEST(RandomStream, ExponentialMeanOne) {
  RandomStream rs(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rs.exponential();
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(RandomStream, NormalMomentsAndTails) {
  RandomStream rs(17);
  double sum = 0.0, sum2 = 0.0;
  int beyond3 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rs.normal();
    sum += z;
    sum2 += z * z;
    if (std::abs(z) > 3.0) ++beyond3;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  // P(|Z|>3) ~ 0.0027.
  EXPECT_NEAR(static_cast<double>(beyond3) / n, 0.0027, 0.001);
}

TEST(RandomStream, BernoulliFrequency) {
  RandomStream rs(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rs.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.006);
}

TEST(StreamFactory, SameIdReproduces) {
  StreamFactory f(1234);
  auto a = f.stream(55);
  auto b = f.stream(55);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(StreamFactory, DistinctIdsDecorrelated) {
  StreamFactory f(1234);
  auto a = f.stream(0);
  auto b = f.stream(1);
  int same = 0;
  for (int i = 0; i < 256; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(StreamFactory, ManyStreamsFirstDrawsLookUniform) {
  StreamFactory f(777);
  // The first uniform of 10k consecutive streams should itself be uniform:
  // catches weak seed-to-state mixing.
  double sum = 0.0;
  std::set<std::uint64_t> firsts;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    auto s = f.stream(static_cast<std::uint64_t>(i));
    const std::uint64_t raw = s.next_u64();
    firsts.insert(raw);
    sum += static_cast<double>(raw >> 11) * 0x1.0p-53;
  }
  EXPECT_EQ(firsts.size(), static_cast<std::size_t>(n));  // no collisions
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

}  // namespace
}  // namespace raidrel::rng
