#include "sim/slot_kernel.h"

#include <algorithm>
#include <cmath>

#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::sim {

CompiledLaw CompiledLaw::compile(const stats::Distribution* dist,
                                 KernelPolicy policy) {
  CompiledLaw law;
  if (dist == nullptr) return law;  // kNull
  law.dist_ = dist;
  law.kind_ = Kind::kVirtual;
  if (policy == KernelPolicy::kVirtualOnly) return law;

  if (const auto* w = dynamic_cast<const stats::Weibull*>(dist)) {
    const stats::WeibullParams& p = w->params();
    law.a_ = p.gamma;
    law.b_ = p.eta;
    law.beta_ = p.beta;
    law.inv_beta_ = 1.0 / p.beta;  // the constant Weibull itself precomputes
    law.kind_ =
        p.beta == 1.0 ? Kind::kExponentialWeibull : Kind::kWeibull;
    return law;
  }
  return law;  // kVirtual fallback (composite/empirical/piecewise/...)
}

std::uint64_t CompiledLaw::censor_index(double horizon) const {
  if (kind_ != Kind::kExponentialWeibull && kind_ != Kind::kWeibull) return 0;
  // pow(E, 1/beta) scales E's rounding by 1/beta; below this shape the
  // accumulated error could approach the margin.
  if (inv_beta_ > 1e4 || !(horizon > 0.0) || !std::isfinite(horizon)) {
    return 0;
  }
  const double bar = horizon * (1.0 + 1e-9);
  const auto clears = [&](std::uint64_t index) {
    return from_exponent(-std::log(rng::RandomStream::open_unit(index))) >=
           bar;
  };
  constexpr std::uint64_t kIndices = std::uint64_t{1} << 52;
  if (!clears(0)) return 0;
  if (clears(kIndices - 1)) return kIndices;
  // Invariant: clears(lo), !clears(hi).
  std::uint64_t lo = 0;
  std::uint64_t hi = kIndices - 1;
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (clears(mid) ? lo : hi) = mid;
  }
  return hi;
}

namespace {

// Fill out[0..n) with each stream's next Exp(1) draw: the SIMD uniform
// fill first (bit-identical per stream to scalar uniform_open at every
// width — rng/bulk.h), then the tier's negated log. The exact tier's
// -std::log(u) is the scalar exponential() arithmetic on the identical
// uniform, so splitting the draw changes no value; the fast tier swaps
// in the polynomial kernel (docs/MODEL.md §14).
inline void fill_exponential(rng::RandomStream* const streams[], double out[],
                             std::size_t n, const LaneOps& ops,
                             MathTier tier) {
  ops.fill_uniform_open(streams, out, n);
  if (tier == MathTier::kFast) {
    ops.neg_log_n(out, out, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = -std::log(out[i]);
}

// Residual draws keep the exact raw draw at every tier (the residual
// transforms below stay on libm — see slot_kernel.h).
inline void fill_exponential_exact(rng::RandomStream* const streams[],
                                   double out[], std::size_t n,
                                   const LaneOps& ops) {
  ops.fill_uniform_open(streams, out, n);
  for (std::size_t i = 0; i < n; ++i) out[i] = -std::log(out[i]);
}

}  // namespace

// The bulk bodies mirror the scalar switch cases arm for arm. Splitting a
// refill into "draw every exponential" then "transform every exponential"
// changes no value: each element's draw still comes from its own stream in
// its own turn, and storing the intermediate E to memory is exact (doubles
// round-trip). The exact-tier transform passes keep divisions as divisions
// and pow as std::pow for the same last-ulp reasons as the scalar kernels;
// the fast tier substitutes the lane layer's polynomial kernels for the
// hot -log and Weibull-pow transforms only.
void CompiledLaw::sample_n(rng::RandomStream* const streams[], double out[],
                           std::size_t n, const LaneOps& ops,
                           MathTier tier) const {
  switch (kind_) {
    case Kind::kExponentialWeibull: {
      fill_exponential(streams, out, n, ops, tier);
      const double a = a_;
      const double b = b_;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = a + b * out[i];
      }
      return;
    }
    case Kind::kWeibull: {
      fill_exponential(streams, out, n, ops, tier);
      if (tier == MathTier::kFast) {
        ops.weibull_quantile_n(out, out, n, a_, b_, inv_beta_);
        return;
      }
      const double a = a_;
      const double b = b_;
      const double inv_beta = inv_beta_;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = a + b * std::pow(out[i], inv_beta);
      }
      return;
    }
    default:
      // kVirtual: a fallback sampler may consume any number of
      // underlying draws, so there is nothing to prefill.
      for (std::size_t i = 0; i < n; ++i) out[i] = dist_->sample(*streams[i]);
      return;
  }
}

void CompiledLaw::sample_residual_n(const double ages[],
                                    rng::RandomStream* const streams[],
                                    double out[], std::size_t n,
                                    const LaneOps& ops, MathTier tier) const {
  (void)tier;  // residual transforms stay on libm at every tier
  switch (kind_) {
    case Kind::kExponentialWeibull: {
      fill_exponential_exact(streams, out, n, ops);
      const double a = a_;
      const double b = b_;
      for (std::size_t i = 0; i < n; ++i) {
        const double age = ages[i];
        const double x0 = std::max(age - a, 0.0) / b;
        const double e = out[i];
        const double ratio = e / x0;  // h0 == x0 when beta == 1
        if (x0 > 0.0 && std::isfinite(ratio)) {
          out[i] = b * x0 * std::expm1(std::log1p(ratio));
        } else {
          const double t = a + b * (x0 + e);
          out[i] = std::max(0.0, t - age);
        }
      }
      return;
    }
    case Kind::kWeibull: {
      fill_exponential_exact(streams, out, n, ops);
      const double a = a_;
      const double b = b_;
      const double beta = beta_;
      const double inv_beta = inv_beta_;
      for (std::size_t i = 0; i < n; ++i) {
        const double age = ages[i];
        const double x0 = std::max(age - a, 0.0) / b;
        const double h0 = x0 > 0.0 ? std::pow(x0, beta) : 0.0;
        const double e = out[i];
        const double ratio = e / h0;
        if (h0 > 0.0 && std::isfinite(ratio)) {
          out[i] = b * x0 * std::expm1(inv_beta * std::log1p(ratio));
        } else {
          const double x1 = std::pow(h0 + e, inv_beta);
          const double t = a + b * x1;
          out[i] = std::max(0.0, t - age);
        }
      }
      return;
    }
    default:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = dist_->sample_residual(ages[i], *streams[i]);
      }
      return;
  }
}

// The tilted bulk bodies follow the same draw-pass / transform-pass split
// as the plain ones, with HazardTilt::apply_e folding each pre-drawn raw
// exponential through the capped proposal. The weight term for element i
// is *assigned* to log_w[i] so the caller can fold it into its per-lane
// accumulator with a single add — the same rounding sequence as the
// scalar samplers, which do one `log_w += term` per draw. Hazard caps
// and weight arithmetic stay exact at every tier.
void CompiledLaw::sample_n_tilted(const HazardTilt& tilt,
                                  const double horizons[],
                                  rng::RandomStream* const streams[],
                                  double out[], double log_w[], std::size_t n,
                                  const LaneOps& ops, MathTier tier) const {
  switch (kind_) {
    case Kind::kExponentialWeibull: {
      fill_exponential(streams, out, n, ops, tier);
      const double a = a_;
      const double b = b_;
      for (std::size_t i = 0; i < n; ++i) {
        const double e =
            tilt.apply_e(out[i], cum_hazard(horizons[i]), log_w[i]);
        out[i] = a + b * e;
      }
      return;
    }
    case Kind::kWeibull: {
      fill_exponential(streams, out, n, ops, tier);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = tilt.apply_e(out[i], cum_hazard(horizons[i]), log_w[i]);
      }
      if (tier == MathTier::kFast) {
        ops.weibull_quantile_n(out, out, n, a_, b_, inv_beta_);
        return;
      }
      const double a = a_;
      const double b = b_;
      const double inv_beta = inv_beta_;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = a + b * std::pow(out[i], inv_beta);
      }
      return;
    }
    default:  // kVirtual: unit tilt only (enforced by engines), weight 0
      for (std::size_t i = 0; i < n; ++i) {
        log_w[i] = 0.0;
        out[i] = dist_->sample(*streams[i]);
      }
      return;
  }
}

void CompiledLaw::sample_residual_n_tilted(const HazardTilt& tilt,
                                           const double ages[],
                                           const double horizon_ages[],
                                           rng::RandomStream* const streams[],
                                           double out[], double log_w[],
                                           std::size_t n, const LaneOps& ops,
                                           MathTier tier) const {
  (void)tier;  // residual transforms stay on libm at every tier
  switch (kind_) {
    case Kind::kExponentialWeibull: {
      fill_exponential_exact(streams, out, n, ops);
      const double a = a_;
      const double b = b_;
      for (std::size_t i = 0; i < n; ++i) {
        const double age = ages[i];
        const double x0 = std::max(age - a, 0.0) / b;
        const double cap = std::max(cum_hazard(horizon_ages[i]) - x0, 0.0);
        const double e = tilt.apply_e(out[i], cap, log_w[i]);
        const double ratio = e / x0;  // h0 == x0 when beta == 1
        if (x0 > 0.0 && std::isfinite(ratio)) {
          out[i] = b * x0 * std::expm1(std::log1p(ratio));
        } else {
          const double t = a + b * (x0 + e);
          out[i] = std::max(0.0, t - age);
        }
      }
      return;
    }
    case Kind::kWeibull: {
      fill_exponential_exact(streams, out, n, ops);
      const double a = a_;
      const double b = b_;
      const double beta = beta_;
      const double inv_beta = inv_beta_;
      for (std::size_t i = 0; i < n; ++i) {
        const double x0 = std::max(ages[i] - a, 0.0) / b;
        const double h0 = x0 > 0.0 ? std::pow(x0, beta) : 0.0;
        const double cap = std::max(cum_hazard(horizon_ages[i]) - h0, 0.0);
        out[i] = tilt.apply_e(out[i], cap, log_w[i]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double age = ages[i];
        const double x0 = std::max(age - a, 0.0) / b;
        const double h0 = x0 > 0.0 ? std::pow(x0, beta) : 0.0;
        const double e = out[i];
        const double ratio = e / h0;
        if (h0 > 0.0 && std::isfinite(ratio)) {
          out[i] = b * x0 * std::expm1(inv_beta * std::log1p(ratio));
        } else {
          const double x1 = std::pow(h0 + e, inv_beta);
          const double t = a + b * x1;
          out[i] = std::max(0.0, t - age);
        }
      }
      return;
    }
    default:  // kVirtual: unit tilt only (enforced by engines), weight 0
      for (std::size_t i = 0; i < n; ++i) {
        log_w[i] = 0.0;
        out[i] = dist_->sample_residual(ages[i], *streams[i]);
      }
      return;
  }
}

SlotKernel SlotKernel::compile(const raid::SlotModel& model,
                               KernelPolicy policy) {
  SlotKernel k;
  k.op = CompiledLaw::compile(model.time_to_op_failure.get(), policy);
  k.restore = CompiledLaw::compile(model.time_to_restore.get(), policy);
  k.latent = CompiledLaw::compile(model.time_to_latent_defect.get(), policy);
  k.scrub = CompiledLaw::compile(model.time_to_scrub.get(), policy);
  return k;
}

void validate_tilt(const TiltSpec& tilt, const SlotKernel& kernel) {
  RAIDREL_REQUIRE(tilt.op_theta > 0.0 && std::isfinite(tilt.op_theta),
                  "tilt op_theta must be positive and finite");
  RAIDREL_REQUIRE(tilt.ld_theta > 0.0 && std::isfinite(tilt.ld_theta),
                  "tilt ld_theta must be positive and finite");
  RAIDREL_REQUIRE(
      tilt.op_theta == 1.0 ||
          kernel.op.kind() != CompiledLaw::Kind::kVirtual,
      "engaged op tilt requires a lowerable op law (no virtual fallback)");
  RAIDREL_REQUIRE(
      tilt.ld_theta == 1.0 ||
          kernel.latent.kind() != CompiledLaw::Kind::kVirtual,
      "engaged latent tilt requires a lowerable latent law "
      "(no virtual fallback)");
}

}  // namespace raidrel::sim
