// The bulk uniform fill (rng/bulk.h) promises bit-identity with scalar
// per-stream draws at every backend: same outputs, same post-call stream
// states. These tests compare every backend the machine can run against
// the scalar loop across lengths that straddle the SIMD block size
// (0, 1, W-1, W, W+1, and a large non-multiple), verify the advanced
// states by drawing again afterwards, and pin literal output values so
// a silent change to the generator or the conversion cannot hide behind
// a self-consistent pair of bugs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/bulk.h"
#include "rng/rng.h"
#include "util/cpu_features.h"

namespace raidrel::rng {
namespace {

constexpr std::uint64_t kSeed = 20070625;

/// n distinct streams (the fill's precondition) plus the pointer array
/// the API takes.
struct StreamSet {
  std::vector<RandomStream> streams;
  std::vector<RandomStream*> ptrs;

  explicit StreamSet(std::size_t n, std::uint64_t first = 0) {
    const StreamFactory factory(kSeed);
    streams.reserve(n);
    ptrs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      streams.push_back(factory.stream(first + i));
    }
    for (auto& s : streams) ptrs.push_back(&s);
  }
};

std::vector<util::SimdIsa> runnable_backends() {
  std::vector<util::SimdIsa> tiers{util::SimdIsa::kGeneric};
  if (util::detected_isa() >= util::SimdIsa::kAvx512) {
    tiers.push_back(util::SimdIsa::kAvx512);
  }
  return tiers;
}

TEST(BulkRng, MatchesScalarAcrossLengthsAndBackends) {
  // Lengths straddle the AVX-512 block width W = 8:
  // empty, one, W-1 / W / W+1, and a large non-multiple that exercises
  // many full blocks plus a tail.
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 205};
  for (const util::SimdIsa isa : runnable_backends()) {
    const FillUniformOpenFn fill = fill_uniform_open_backend(isa);
    for (const std::size_t n : lengths) {
      StreamSet bulk(n);
      StreamSet scalar(n);
      std::vector<double> out(n, -1.0);
      fill(bulk.ptrs.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], scalar.streams[i].uniform_open())
            << util::isa_name(isa) << " n=" << n << " i=" << i;
        // The states advanced identically too: the next draw from each
        // stream must agree bit-for-bit.
        EXPECT_EQ(bulk.streams[i].uniform_open(),
                  scalar.streams[i].uniform_open())
            << util::isa_name(isa) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(BulkRng, RepeatedFillsKeepMatchingScalar) {
  // Three consecutive fills over the same streams — block boundaries
  // land differently once states have advanced, and any scatter bug
  // that corrupts a state word surfaces on the next round.
  constexpr std::size_t kN = 21;
  for (const util::SimdIsa isa : runnable_backends()) {
    const FillUniformOpenFn fill = fill_uniform_open_backend(isa);
    StreamSet bulk(kN);
    StreamSet scalar(kN);
    std::vector<double> out(kN);
    for (int round = 0; round < 3; ++round) {
      fill(bulk.ptrs.data(), out.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(out[i], scalar.streams[i].uniform_open())
            << util::isa_name(isa) << " round=" << round << " i=" << i;
      }
    }
  }
}

TEST(BulkRng, BackendForWiderIsaThanDetectedClamps) {
  // Asking for a wider backend than the hardware degrades instead of
  // handing back a function that would fault.
  const FillUniformOpenFn fill =
      fill_uniform_open_backend(util::SimdIsa::kAvx512);
  constexpr std::size_t kN = 9;
  StreamSet bulk(kN);
  StreamSet scalar(kN);
  std::vector<double> out(kN);
  fill(bulk.ptrs.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], scalar.streams[i].uniform_open());
  }
}

TEST(BulkRng, PinnedFirstDraws) {
  // Literal first draws of streams 0, 1 and 7 under the canonical seed.
  // If the generator, the stream-splitting scheme, or the u64->double
  // conversion ever changes, this fails even if bulk and scalar agree
  // with each other.
  constexpr std::size_t kN = 8;
  StreamSet bulk(kN);
  std::vector<double> out(kN);
  fill_uniform_open_backend(util::active_isa())(bulk.ptrs.data(), out.data(),
                                                kN);
  EXPECT_EQ(out[0], 0x1.a36e41c91693ep-2);
  EXPECT_EQ(out[1], 0x1.b6166954476e1p-1);
  EXPECT_EQ(out[7], 0x1.5d8c8425346d7p-1);
  // Second draw of stream 0, through the advanced state.
  EXPECT_EQ(bulk.streams[0].uniform_open(), 0x1.06995fd598b9cp-3);
}

TEST(BulkRng, OutputsAreStrictlyInsideUnitInterval) {
  constexpr std::size_t kN = 4096;
  StreamSet bulk(kN);
  std::vector<double> out(kN);
  fill_uniform_open_backend(util::active_isa())(bulk.ptrs.data(), out.data(),
                                                kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_GT(out[i], 0.0);
    EXPECT_LT(out[i], 1.0);
  }
}

}  // namespace
}  // namespace raidrel::rng
