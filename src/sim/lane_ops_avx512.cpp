// AVX-512 backend of the lane layer: 8 doubles per lane op (F+DQ+VL —
// an 8-slot group's next-event scan is one zmm load plus a reduction).
#include "sim/lane_ops_backends.h"

#if defined(__x86_64__) || defined(_M_X64)

// Once GCC 12 inlines its own AVX-512 intrinsics into optimized code, it
// warns that they read their undefined pass-through operand: a false
// positive inside immintrin.h, not a read of anything this file leaves
// uninitialized. lane_ops_generic.cpp still compiles the shared
// lane_ops_impl.h with the warning on.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "sim/lane_ops_impl.h"

namespace raidrel::sim::detail {

namespace {
struct Avx512Backend {
  static constexpr std::size_t width = 8;
  using vd = __m512d;
  using vi = __m512i;
  static vd load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, vd v) { _mm512_storeu_pd(p, v); }
  static vd set1(double v) { return _mm512_set1_pd(v); }
  static vi set1_i(std::int64_t v) { return _mm512_set1_epi64(v); }
  static vd add(vd a, vd b) { return _mm512_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm512_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm512_mul_pd(a, b); }
  static vd div(vd a, vd b) { return _mm512_div_pd(a, b); }
  static vd min_(vd a, vd b) { return _mm512_min_pd(a, b); }
  static vd max_(vd a, vd b) { return _mm512_max_pd(a, b); }
  static double reduce_min(vd v) { return _mm512_reduce_min_pd(v); }
  static unsigned eq_mask(vd a, vd b) {
    return static_cast<unsigned>(_mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ));
  }
  static vi asint(vd v) { return _mm512_castpd_si512(v); }
  static vd asdouble(vi v) { return _mm512_castsi512_pd(v); }
  static vi add_i(vi a, vi b) { return _mm512_add_epi64(a, b); }
  static vi sub_i(vi a, vi b) { return _mm512_sub_epi64(a, b); }
  template <int K>
  static vi sll_i(vi v) {
    return _mm512_slli_epi64(v, K);
  }
  template <int K>
  static vi srl_i(vi v) {
    return _mm512_srli_epi64(v, K);
  }
};
}  // namespace

const LaneOps& lane_ops_avx512() noexcept {
  static const LaneOps ops = {
      util::SimdIsa::kAvx512,
      &round_dispatch_impl<Avx512Backend>,
      rng::fill_uniform_open_backend(util::SimdIsa::kAvx512),
      &neg_log_n_impl<Avx512Backend>,
      &weibull_quantile_n_impl<Avx512Backend>,
  };
  return ops;
}

}  // namespace raidrel::sim::detail

#else

namespace raidrel::sim::detail {
const LaneOps& lane_ops_avx512() noexcept { return lane_ops_generic(); }
}  // namespace raidrel::sim::detail

#endif
