#include "sim/lane_ops.h"

#include "sim/lane_ops_backends.h"

namespace raidrel::sim {

const char* math_tier_name(MathTier tier) noexcept {
  return tier == MathTier::kFast ? "fast" : "exact";
}

std::optional<MathTier> parse_math_tier(std::string_view name) noexcept {
  if (name == "exact") return MathTier::kExact;
  if (name == "fast") return MathTier::kFast;
  return std::nullopt;
}

const LaneOps& lane_ops_for(util::SimdIsa isa) noexcept {
  const util::SimdIsa detected = util::detected_isa();
  if (isa > detected) isa = detected;
  return isa == util::SimdIsa::kAvx512 ? detail::lane_ops_avx512()
                                       : detail::lane_ops_generic();
}

const LaneOps& lane_ops() { return lane_ops_for(util::active_isa()); }

}  // namespace raidrel::sim
