// Runtime ISA detection and the RAIDREL_FORCE_ISA override
// (util/cpu_features.h). The override is the lever the CI matrix pulls
// to run every SIMD backend on one machine, so its contract is pinned
// here: names round-trip, forcing clamps *down* but never up, a typo
// throws instead of silently running the wrong backend, and
// active_isa() re-reads the environment so tests can flip it around
// engine construction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "sim/lane_ops.h"
#include "util/cpu_features.h"
#include "util/error.h"

namespace raidrel::util {
namespace {

/// RAII environment override (nullptr unsets the variable) that restores
/// the previous value, so a failing assertion cannot leak the override
/// into later tests and a suite run under a forced ISA keeps it.
class ScopedForceIsa {
 public:
  explicit ScopedForceIsa(const char* value) {
    if (const char* prev = std::getenv("RAIDREL_FORCE_ISA")) prev_ = prev;
    if (value != nullptr) {
      ::setenv("RAIDREL_FORCE_ISA", value, 1);
    } else {
      ::unsetenv("RAIDREL_FORCE_ISA");
    }
  }
  ~ScopedForceIsa() {
    if (prev_) {
      ::setenv("RAIDREL_FORCE_ISA", prev_->c_str(), 1);
    } else {
      ::unsetenv("RAIDREL_FORCE_ISA");
    }
  }

 private:
  std::optional<std::string> prev_;
};

TEST(CpuFeatures, NamesRoundTripThroughParse) {
  for (SimdIsa isa : {SimdIsa::kGeneric, SimdIsa::kAvx512}) {
    const auto parsed = parse_isa(isa_name(isa));
    ASSERT_TRUE(parsed.has_value()) << isa_name(isa);
    EXPECT_EQ(*parsed, isa);
  }
}

TEST(CpuFeatures, ParseRejectsUnknownSpellings) {
  EXPECT_FALSE(parse_isa("").has_value());
  EXPECT_FALSE(parse_isa("AVX2").has_value());  // canonical is lower-case
  EXPECT_FALSE(parse_isa("avx-512").has_value());
  EXPECT_FALSE(parse_isa("sse42").has_value());
  // No SSE2 or AVX2 tier exists (neither beat generic).
  EXPECT_FALSE(parse_isa("sse2").has_value());
  EXPECT_FALSE(parse_isa("avx2").has_value());
}

TEST(CpuFeatures, DetectedIsaIsAtLeastTheBaseline) {
  // kGeneric runs anywhere; kAvx512 is the only tier above it.
  const SimdIsa detected = detected_isa();
  EXPECT_TRUE(detected == SimdIsa::kGeneric || detected == SimdIsa::kAvx512)
      << static_cast<int>(detected);
#if !defined(__x86_64__) && !defined(_M_X64)
  EXPECT_EQ(detected, SimdIsa::kGeneric);
#endif
}

TEST(CpuFeatures, ResolveClampsDownwardOnly) {
  // Forcing below the detected tier is honored exactly...
  EXPECT_EQ(resolve_isa(SimdIsa::kAvx512, "generic"), SimdIsa::kGeneric);
  EXPECT_EQ(resolve_isa(SimdIsa::kAvx512, "avx512"), SimdIsa::kAvx512);
  // ...forcing above it clamps to the hardware (running wider would be
  // an illegal instruction, not a test of anything).
  EXPECT_EQ(resolve_isa(SimdIsa::kGeneric, "avx512"), SimdIsa::kGeneric);
  // Empty/absent override keeps the detected tier.
  EXPECT_EQ(resolve_isa(SimdIsa::kAvx512, ""), SimdIsa::kAvx512);
  EXPECT_EQ(resolve_isa(SimdIsa::kGeneric, ""), SimdIsa::kGeneric);
}

TEST(CpuFeatures, ResolveThrowsOnUnparseableToken) {
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "avx1024"), ModelError);
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "SSE2"), ModelError);
  // The removed tiers are unknown tokens, not silent aliases.
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "sse2"), ModelError);
  EXPECT_THROW(resolve_isa(SimdIsa::kAvx512, "avx2"), ModelError);
}

TEST(CpuFeatures, ActiveIsaFollowsTheEnvironment) {
  const SimdIsa detected = detected_isa();
  const ScopedForceIsa clean(nullptr);  // CI may run the suite forced
  EXPECT_EQ(active_isa(), detected);  // no override in a clean env
  {
    ScopedForceIsa force("generic");
    EXPECT_EQ(active_isa(), SimdIsa::kGeneric);
  }
  EXPECT_EQ(active_isa(), detected);  // re-read after the override ends
}

TEST(CpuFeatures, LaneOpsTableMatchesForcedIsa) {
  // The engine-facing dispatch (sim::lane_ops) resolves through
  // active_isa(), so forcing the environment must swap the table.
  for (SimdIsa isa : {SimdIsa::kGeneric, SimdIsa::kAvx512}) {
    if (isa > detected_isa()) continue;
    ScopedForceIsa force(isa_name(isa));
    EXPECT_EQ(sim::lane_ops().isa, isa) << isa_name(isa);
  }
}

TEST(CpuFeatures, LaneOpsForClampsLikeResolve) {
  const SimdIsa detected = detected_isa();
  EXPECT_EQ(sim::lane_ops_for(SimdIsa::kGeneric).isa, SimdIsa::kGeneric);
  // A request above the hardware degrades to the widest runnable tier.
  EXPECT_EQ(sim::lane_ops_for(SimdIsa::kAvx512).isa,
            detected < SimdIsa::kAvx512 ? detected : SimdIsa::kAvx512);
}

TEST(CpuFeatures, MathTierNamesRoundTrip) {
  using sim::MathTier;
  EXPECT_EQ(sim::parse_math_tier(sim::math_tier_name(MathTier::kExact)),
            MathTier::kExact);
  EXPECT_EQ(sim::parse_math_tier(sim::math_tier_name(MathTier::kFast)),
            MathTier::kFast);
  EXPECT_FALSE(sim::parse_math_tier("FAST").has_value());
  EXPECT_FALSE(sim::parse_math_tier("").has_value());
}

}  // namespace
}  // namespace raidrel::util
