// Width-generic implementations behind sim/lane_ops.h, shared by the
// per-ISA translation units. Each TU instantiates these templates with
// a backend struct describing its lane primitives; the algorithms are
// written once, for any width.
//
// Cross-backend determinism is a hard requirement here, in two grades:
//
//  * round_dispatch's scan (argmin_first_impl) uses comparisons only, so
//    every backend is bit-identical to the scalar `<` loop (the
//    exact-tier contract).
//  * The fast-tier kernels (log_v / exp_v and their drivers) perform
//    the same floating-point operations in the same order at every
//    width — the scalar tail of a SIMD backend runs the width-1
//    instantiation of the very same template, and every lane-ops TU is
//    compiled with -ffp-contract=off so no backend fuses a
//    multiply-add another one keeps separate. The result: kFast output
//    is deterministic across ISAs and lane widths (pinned by
//    tests/math_tier_test.cpp), just not equal to libm's.
//
// Backend contract (see ScalarBackend for the width-1 reference):
//   static constexpr std::size_t width;
//   using vd;                                // vector of width doubles
//   using vi;                                // vector of width int64
//   load/store/set1/set1_i
//   add/sub/mul/div/min_/max_   (lane-wise double ops)
//   reduce_min(vd) -> double    (order-free: min is associative)
//   eq_mask(vd, vd) -> unsigned (lane-wise ==, bit per lane, lane 0 = LSB)
//   asint/asdouble              (bit casts)
//   add_i/sub_i, sll_i<K>/srl_i<K>  (lane-wise u64 arithmetic/shifts)
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "sim/lane_ops.h"

namespace raidrel::sim::detail {

// ---------------------------------------------------------------------
// Width-1 reference backend. Integer helpers run through uint64 so the
// bit-trick arithmetic (which wraps by design) stays defined under
// UBSan; the SIMD epi64 ops wrap identically.
struct ScalarBackend {
  static constexpr std::size_t width = 1;
  using vd = double;
  using vi = std::int64_t;
  static vd load(const double* p) { return *p; }
  static void store(double* p, vd v) { *p = v; }
  static vd set1(double v) { return v; }
  static vi set1_i(std::int64_t v) { return v; }
  static vd add(vd a, vd b) { return a + b; }
  static vd sub(vd a, vd b) { return a - b; }
  static vd mul(vd a, vd b) { return a * b; }
  static vd div(vd a, vd b) { return a / b; }
  static vd min_(vd a, vd b) { return b < a ? b : a; }
  static vd max_(vd a, vd b) { return a < b ? b : a; }
  static double reduce_min(vd v) { return v; }
  static unsigned eq_mask(vd a, vd b) { return a == b ? 1u : 0u; }
  static vi asint(vd v) { return std::bit_cast<std::int64_t>(v); }
  static vd asdouble(vi v) { return std::bit_cast<double>(v); }
  static vi add_i(vi a, vi b) {
    return static_cast<vi>(static_cast<std::uint64_t>(a) +
                           static_cast<std::uint64_t>(b));
  }
  static vi sub_i(vi a, vi b) {
    return static_cast<vi>(static_cast<std::uint64_t>(a) -
                           static_cast<std::uint64_t>(b));
  }
  template <int K>
  static vi sll_i(vi v) {
    return static_cast<vi>(static_cast<std::uint64_t>(v) << K);
  }
  template <int K>
  static vi srl_i(vi v) {
    return static_cast<vi>(static_cast<std::uint64_t>(v) >> K);
  }
};

// ---------------------------------------------------------------------
// argmin: first index of the minimum, as a scalar `<` loop computes it.

template <class B>
inline void argmin_first_impl(const double* p, std::size_t n, double& t_out,
                              std::uint32_t& s_out) noexcept {
  constexpr std::size_t W = B::width;
  if constexpr (W > 1) {
    if (n >= W) {
      const std::size_t full = n - n % W;
      auto m = B::load(p);
      for (std::size_t k = W; k < full; k += W) {
        m = B::min_(m, B::load(p + k));
      }
      double t = B::reduce_min(m);
      // A strictly smaller tail element wins (its index is later, so a
      // tie keeps the vector part); within the tail `<` keeps the first.
      std::uint32_t tail_s = 0;
      bool tail_wins = false;
      for (std::size_t k = full; k < n; ++k) {
        if (p[k] < t) {
          t = p[k];
          tail_s = static_cast<std::uint32_t>(k);
          tail_wins = true;
        }
      }
      if (tail_wins) {
        t_out = t;
        s_out = tail_s;
        return;
      }
      const auto tv = B::set1(t);
      for (std::size_t k = 0; k < full; k += W) {
        const unsigned mask = B::eq_mask(B::load(p + k), tv);
        if (mask != 0) {
          t_out = t;
          s_out = static_cast<std::uint32_t>(k) +
                  static_cast<std::uint32_t>(std::countr_zero(mask));
          return;
        }
      }
    }
  }
  double t = p[0];
  std::uint32_t s = 0;
  for (std::uint32_t k = 1; k < n; ++k) {
    if (p[k] < t) {
      t = p[k];
      s = k;
    }
  }
  t_out = t;
  s_out = s;
}

// Fused argmin + classify + settle sweep (LaneOps::round_dispatch).
// Each lane's scan is argmin_first_impl; settled lanes leave the active
// set in stable order.
template <class B>
std::size_t round_dispatch_impl(const double* tnext, const std::uint8_t* kinds,
                                std::size_t nslots, std::uint32_t* lanes,
                                std::size_t nlanes, double mission,
                                const double* spare_next,
                                LaneEvent* const buckets[4],
                                LaneEvent* spare_events,
                                std::size_t counts[5]) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t cnt[5] = {0, 0, 0, 0, 0};
  std::size_t keep = 0;
  for (std::size_t k = 0; k < nlanes; ++k) {
    const std::uint32_t lane = lanes[k];
    const std::size_t base = static_cast<std::size_t>(lane) * nslots;
    double t;
    std::uint32_t slot;
    argmin_first_impl<B>(tnext + base, nslots, t, slot);
    if (spare_next != nullptr) {
      const double spare_t = spare_next[lane];
      // Ties go to the spare (<=, not <), as in the scalar loop.
      if (spare_t <= t && spare_t < kInf) {
        if (spare_t >= mission) continue;  // lane done
        spare_events[cnt[4]++] = {lane, kLaneNoSlot, spare_t};
        lanes[keep++] = lane;
        continue;
      }
    }
    if (t >= mission) continue;  // lane done
    const std::uint8_t kind = kinds[base + slot];
    buckets[kind][cnt[kind]++] = {lane, slot, t};
    lanes[keep++] = lane;
  }
  for (std::size_t j = 0; j < 5; ++j) counts[j] = cnt[j];
  return keep;
}

// ---------------------------------------------------------------------
// Fast-tier polynomial log/exp. Valid for positive, finite, normal
// inputs — exactly what the callers feed them: uniforms in (0,1) whose
// smallest value is 2^-53, and exponentials -log(u) in [~2^-53, ~36.8].
// Relative error is ~1e-16 per call (truncation well under one ulp;
// a few ulps of rounding), far inside the 1e-12 the tier test pins.

inline constexpr std::int64_t kLogOffset = 0x3FE6A09E667F3BCDLL;  // sqrt(.5)
inline constexpr std::int64_t kExpMagic = 0x4338000000000000LL;   // 1.5*2^52
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
/// exp argument clamp: keeps 2^k scaling inside the normal range both
/// ways (|x| <= 708 -> k in [-1021, 1021], mantissa in [0.70, 1.42]).
inline constexpr double kExpClamp = 708.0;

template <class B>
inline typename B::vd log_v(typename B::vd x) noexcept {
  using vd = typename B::vd;
  using vi = typename B::vi;
  const vi ix = B::asint(x);
  // Split x = m * 2^k with m in [sqrt(.5), sqrt(2)): subtracting the
  // sqrt(.5) bits makes the exponent field round toward the nearest
  // power of two, and lifting by 2^62 keeps the difference positive so
  // a logical shift extracts k (inputs are positive, so the top bit of
  // ix is clear and the lift cannot overflow).
  const vi lifted =
      B::add_i(B::sub_i(ix, B::set1_i(kLogOffset)), B::set1_i(1LL << 62));
  const vi k = B::sub_i(B::template srl_i<52>(lifted), B::set1_i(1024));
  const vd m = B::asdouble(B::sub_i(ix, B::template sll_i<52>(k)));
  // k as a double via the 1.5*2^52 trick (exact for |k| < 2^51).
  const vd kd = B::sub(B::asdouble(B::add_i(k, B::set1_i(kExpMagic))),
                       B::set1(0x1.8p52));
  const vd one = B::set1(1.0);
  const vd r = B::div(B::sub(m, one), B::add(m, one));
  const vd z = B::mul(r, r);
  // log(m) = 2 atanh(r) = 2r + 2r*z*Q(z); z <= 0.0295, so truncating Q
  // after z^9/21 leaves ~2e-17 relative truncation error.
  typename B::vd q = B::set1(1.0 / 21.0);
  q = B::add(B::mul(q, z), B::set1(1.0 / 19.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 17.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 15.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 13.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 11.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 9.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 7.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 5.0));
  q = B::add(B::mul(q, z), B::set1(1.0 / 3.0));
  const vd two_r = B::add(r, r);
  const vd poly = B::mul(B::mul(two_r, z), q);
  // kLn2Hi's low 29 bits are zero, so kd * kLn2Hi is exact for |k| <
  // 2^11 and the small terms fold in last (Cody–Waite).
  return B::add(B::mul(kd, B::set1(kLn2Hi)),
                B::add(two_r, B::add(poly, B::mul(kd, B::set1(kLn2Lo)))));
}

template <class B>
inline typename B::vd exp_v(typename B::vd x) noexcept {
  using vd = typename B::vd;
  using vi = typename B::vi;
  // k = round(x / ln2) by the shift trick: adding 1.5*2^52 leaves the
  // integer in the low mantissa bits (the sum stays in 2^52's binade
  // for |x| <= kExpClamp, so asint(t) - asint(shift) is k exactly).
  const vd shift = B::set1(0x1.8p52);
  const vd t = B::add(B::mul(x, B::set1(kInvLn2)), shift);
  const vi ki = B::sub_i(B::asint(t), B::set1_i(kExpMagic));
  const vd kd = B::sub(t, shift);
  vd r = B::sub(x, B::mul(kd, B::set1(kLn2Hi)));
  r = B::sub(r, B::mul(kd, B::set1(kLn2Lo)));
  // exp(r), |r| <= ln2/2: Taylor through r^13/13! (truncation ~4e-18).
  vd p = B::set1(1.0 / 6227020800.0);
  p = B::add(B::mul(p, r), B::set1(1.0 / 479001600.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 39916800.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 3628800.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 362880.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 40320.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 5040.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 720.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 120.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 24.0));
  p = B::add(B::mul(p, r), B::set1(1.0 / 6.0));
  p = B::add(B::mul(p, r), B::set1(0.5));
  p = B::add(B::mul(p, r), B::set1(1.0));
  p = B::add(B::mul(p, r), B::set1(1.0));
  // Scale by 2^k directly in the exponent field.
  return B::asdouble(B::add_i(B::asint(p), B::template sll_i<52>(ki)));
}

// ---------------------------------------------------------------------
// Fast-tier drivers. The scalar tail of every SIMD instantiation runs
// the ScalarBackend instantiation of the same kernel, so a length-n
// fill is identical no matter how n splits into vector blocks and tail.

template <class B>
void neg_log_n_impl(const double u[], double out[], std::size_t n) {
  constexpr std::size_t W = B::width;
  std::size_t i = 0;
  if constexpr (W > 1) {
    const auto zero = B::set1(0.0);
    for (; i + W <= n; i += W) {
      B::store(out + i, B::sub(zero, log_v<B>(B::load(u + i))));
    }
  }
  for (; i < n; ++i) {
    out[i] = 0.0 - log_v<ScalarBackend>(u[i]);
  }
}

template <class B>
void weibull_quantile_n_impl(const double e[], double out[], std::size_t n,
                             double a, double b, double c) {
  constexpr std::size_t W = B::width;
  std::size_t i = 0;
  if constexpr (W > 1) {
    const auto av = B::set1(a);
    const auto bv = B::set1(b);
    const auto cv = B::set1(c);
    const auto lo = B::set1(-kExpClamp);
    const auto hi = B::set1(kExpClamp);
    for (; i + W <= n; i += W) {
      auto arg = B::mul(cv, log_v<B>(B::load(e + i)));
      arg = B::max_(B::min_(arg, hi), lo);
      B::store(out + i, B::add(av, B::mul(bv, exp_v<B>(arg))));
    }
  }
  using S = ScalarBackend;
  for (; i < n; ++i) {
    double arg = S::mul(c, log_v<S>(e[i]));
    arg = S::max_(S::min_(arg, kExpClamp), -kExpClamp);
    out[i] = S::add(a, S::mul(b, exp_v<S>(arg)));
  }
}

}  // namespace raidrel::sim::detail
