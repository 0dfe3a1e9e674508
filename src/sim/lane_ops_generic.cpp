// Portable scalar backend of the lane layer: the width-1 reference the
// SIMD backends are tested against, and the fallback on non-x86 builds.
#include "sim/lane_ops_backends.h"
#include "sim/lane_ops_impl.h"

namespace raidrel::sim::detail {

const LaneOps& lane_ops_generic() noexcept {
  static const LaneOps ops = {
      util::SimdIsa::kGeneric,
      &round_dispatch_impl<ScalarBackend>,
      rng::fill_uniform_open_backend(util::SimdIsa::kGeneric),
      &neg_log_n_impl<ScalarBackend>,
      &weibull_quantile_n_impl<ScalarBackend>,
  };
  return ops;
}

}  // namespace raidrel::sim::detail
