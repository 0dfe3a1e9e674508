#include "rng/bulk.h"

#include "rng/bulk_backends.h"

namespace raidrel::rng {

namespace detail {

void fill_uniform_open_generic(RandomStream* const streams[], double out[],
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = streams[i]->uniform_open();
}

}  // namespace detail

FillUniformOpenFn fill_uniform_open_backend(util::SimdIsa isa) noexcept {
  const util::SimdIsa detected = util::detected_isa();
  if (isa > detected) isa = detected;
  return isa == util::SimdIsa::kAvx512 ? detail::fill_uniform_open_avx512
                                       : detail::fill_uniform_open_generic;
}

}  // namespace raidrel::rng
