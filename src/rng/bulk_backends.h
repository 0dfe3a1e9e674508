// Internal: the per-ISA bulk-fill entry points behind rng/bulk.h.
// Each is defined in its own translation unit compiled with that ISA's
// flags (see src/rng/CMakeLists.txt); on non-x86 builds the AVX-512 TU
// compiles to a forward onto the generic loop, so the symbol always
// exists and dispatch stays free of #ifdefs.
#pragma once

#include <cstddef>

#include "rng/rng.h"

namespace raidrel::rng::detail {

void fill_uniform_open_generic(RandomStream* const streams[], double out[],
                               std::size_t n);
void fill_uniform_open_avx512(RandomStream* const streams[], double out[],
                              std::size_t n);

}  // namespace raidrel::rng::detail
