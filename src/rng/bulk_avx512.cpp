// AVX-512 backend of the bulk uniform fill: eight streams per round.
// Uses F (512-bit integer lanes, rotates) and DQ (_mm512_cvtepu64_pd).
//
// Each round transposes eight states into registers, runs one 8-wide
// xoshiro256++ step, transposes back and converts. The transpose
// matters: a xoshiro state is four contiguous u64 words, so each
// stream's state is one 32-byte load, and the word-major layout the SIMD
// step needs (all s0 words in one vector, all s1 words in the next, ...)
// is reached with in-register shuffles. Staging through a stack array
// instead (scalar 8-byte stores read back by wide loads) stalls on
// blocked store-to-load forwarding every round and measures *slower*
// than the scalar loop.
//
// Bit-identity: the xoshiro step is pure 64-bit integer arithmetic
// (adds, xors, shifts, rotates), identical per lane to the scalar
// operator()(). The output conversion must reproduce
//   (static_cast<double>(x >> 12) + 0.5) * 0x1.0p-52
// exactly: x >> 12 < 2^52 converts to double exactly by
// _mm512_cvtepu64_pd, y + 0.5 is exact for y < 2^52 (ulp(y) <= 0.5
// there), and the final scale by a power of two is exact. The backend
// therefore emits the same bits as the scalar call, verified
// stream-for-stream by tests/bulk_rng_test.cpp.
#include "rng/bulk_backends.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace raidrel::rng::detail {

namespace {
struct Avx512Backend {
  static constexpr std::size_t width = 8;
  using vu = __m512i;
  // 8x4 u64 transpose, stream-major <-> word-major, all in registers.
  // Two streams' states per zmm, then two permutex2var rounds.
  static void load_states(RandomStream* const streams[], vu s[4]) {
    vu z[4];
    for (int k = 0; k < 4; ++k) {
      const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          streams[2 * k]->engine().state_mut().data()));
      const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          streams[2 * k + 1]->engine().state_mut().data()));
      z[k] = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
    }
    const vu idx_lo = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
    const vu idx_hi = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
    const vu p0 = _mm512_permutex2var_epi64(z[0], idx_lo, z[1]);
    const vu p1 = _mm512_permutex2var_epi64(z[2], idx_lo, z[3]);
    const vu p2 = _mm512_permutex2var_epi64(z[0], idx_hi, z[1]);
    const vu p3 = _mm512_permutex2var_epi64(z[2], idx_hi, z[3]);
    const vu idx_a = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const vu idx_b = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    s[0] = _mm512_permutex2var_epi64(p0, idx_a, p1);
    s[1] = _mm512_permutex2var_epi64(p0, idx_b, p1);
    s[2] = _mm512_permutex2var_epi64(p2, idx_a, p3);
    s[3] = _mm512_permutex2var_epi64(p2, idx_b, p3);
  }
  static void store_states(RandomStream* const streams[], const vu s[4]) {
    const vu idx_even = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const vu idx_odd = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    const vu q0 = _mm512_permutex2var_epi64(s[0], idx_even, s[1]);
    const vu q1 = _mm512_permutex2var_epi64(s[2], idx_even, s[3]);
    const vu q2 = _mm512_permutex2var_epi64(s[0], idx_odd, s[1]);
    const vu q3 = _mm512_permutex2var_epi64(s[2], idx_odd, s[3]);
    const vu idx_a = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const vu idx_b = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const vu z0 = _mm512_permutex2var_epi64(q0, idx_a, q1);
    const vu z1 = _mm512_permutex2var_epi64(q0, idx_b, q1);
    const vu z2 = _mm512_permutex2var_epi64(q2, idx_a, q3);
    const vu z3 = _mm512_permutex2var_epi64(q2, idx_b, q3);
    const vu z[4] = {z0, z1, z2, z3};
    for (int k = 0; k < 4; ++k) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(
                              streams[2 * k]->engine().state_mut().data()),
                          _mm512_castsi512_si256(z[k]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(
                              streams[2 * k + 1]->engine().state_mut().data()),
                          _mm512_extracti64x4_epi64(z[k], 1));
    }
  }
  static vu add(vu a, vu b) { return _mm512_add_epi64(a, b); }
  static vu xor_(vu a, vu b) { return _mm512_xor_si512(a, b); }
  template <int K>
  static vu sll(vu v) {
    return _mm512_slli_epi64(v, K);
  }
  template <int K>
  static vu rotl(vu v) {
    return _mm512_rol_epi64(v, K);
  }
  static void store_u01(double* dst, vu bits) {
    // cvtepu64_pd is exact for values < 2^52 (they are 52-bit after the
    // shift), matching static_cast<double> in the scalar conversion.
    const __m512i x = _mm512_srli_epi64(bits, 12);
    __m512d d = _mm512_cvtepu64_pd(x);
    d = _mm512_mul_pd(_mm512_add_pd(d, _mm512_set1_pd(0.5)),
                      _mm512_set1_pd(0x1.0p-52));
    _mm512_storeu_pd(dst, d);
  }
};

}  // namespace

void fill_uniform_open_avx512(RandomStream* const streams[], double out[],
                              std::size_t n) {
  using B = Avx512Backend;
  std::size_t i = 0;
  for (; i + B::width <= n; i += B::width) {
    B::vu s[4];
    B::load_states(streams + i, s);
    // xoshiro256++: result = rotl(s0 + s3, 23) + s0, then the state step.
    const B::vu result = B::add(B::rotl<23>(B::add(s[0], s[3])), s[0]);
    const B::vu t = B::sll<17>(s[1]);
    s[2] = B::xor_(s[2], s[0]);
    s[3] = B::xor_(s[3], s[1]);
    s[1] = B::xor_(s[1], s[2]);
    s[0] = B::xor_(s[0], s[3]);
    s[2] = B::xor_(s[2], t);
    s[3] = B::rotl<45>(s[3]);
    B::store_states(streams + i, s);
    B::store_u01(out + i, result);
  }
  for (; i < n; ++i) out[i] = streams[i]->uniform_open();
}

}  // namespace raidrel::rng::detail

#else

namespace raidrel::rng::detail {
void fill_uniform_open_avx512(RandomStream* const streams[], double out[],
                              std::size_t n) {
  fill_uniform_open_generic(streams, out, n);
}
}  // namespace raidrel::rng::detail

#endif
