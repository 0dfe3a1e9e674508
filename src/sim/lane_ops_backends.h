// Internal: the per-ISA LaneOps tables behind sim/lane_ops.h. Each is
// defined in its own translation unit compiled with that ISA's flags
// (see src/sim/CMakeLists.txt); on non-x86 builds the AVX-512 TU
// returns the generic table, so the symbol always exists.
#pragma once

#include "sim/lane_ops.h"

namespace raidrel::sim::detail {

const LaneOps& lane_ops_generic() noexcept;
const LaneOps& lane_ops_avx512() noexcept;

}  // namespace raidrel::sim::detail
