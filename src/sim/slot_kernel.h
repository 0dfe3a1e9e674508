// Compiled sampling kernels for the simulation hot paths.
//
// Every simulated event draws lifetimes through the generalized
// stats::Distribution interface — a virtual call through a DistributionPtr,
// and for the Weibull family a std::pow even when the shape is 1 and the
// law is plain exponential. Converged studies run 10^5..10^6 missions per
// configuration (Fig. 6–10 sweeps), so those per-event costs dominate the
// engine. At simulator construction each slot's four lifetime laws are
// lowered once into a flat CompiledLaw: a tagged struct with closed-form
// fast paths for the laws the paper actually uses, and a Distribution*
// fallback for everything else (composite, empirical, piecewise, ...).
//
// Lowering rules (see docs/MODEL.md §9):
//   * Weibull with beta == 1  -> kExponentialWeibull: sample is
//     gamma + eta * E with E ~ Exp(1) (IEEE pow(x, 1.0) == x, so no pow is
//     needed), cum_hazard is linear, and the residual law collapses to the
//     same shifted-exponential arithmetic.
//   * general Weibull         -> kWeibull: the constructor-time constants
//     (gamma, eta, beta, 1/beta) are stored flat; the arithmetic is the
//     virtual path's, verbatim, minus the indirect call.
//   * anything else           -> kVirtual: keep the Distribution* and
//     forward. Correctness never depends on a law being lowerable.
//
// Bit-reproducibility contract: a lowered law consumes exactly the same
// random draws and performs exactly the same floating-point operations in
// the same order as the virtual path it replaces (divisions stay divisions;
// 1/eta is *not* pre-inverted because x/eta and x*(1/eta) differ in the
// last ulp). Same seed => same event history, verified bitwise by
// tests/kernel_equivalence_test.cpp against KernelPolicy::kVirtualOnly.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "raid/group_config.h"
#include "rng/rng.h"
#include "sim/lane_ops.h"
#include "stats/distribution.h"

namespace raidrel::sim {

/// Whether simulators lower laws into closed-form kernels (the default) or
/// force every draw through the virtual Distribution interface. The virtual
/// path exists as the reference for the kernel-equivalence tests and as an
/// escape hatch when triaging a suspected lowering bug.
enum class KernelPolicy : std::uint8_t { kLowered, kVirtualOnly };

/// Importance-sampling tilt parameters for one run (docs/MODEL.md §13).
/// Each theta scales the cumulative hazard of the corresponding law below
/// the trial's observation horizon: the proposal draws lifetimes from
/// H~(t) = theta * H(t) for t inside the mission window (for the Weibull
/// family that is the same Weibull with eta~ = eta * theta^(-1/beta)) and
/// reverts to the nominal hazard increment beyond it (see HazardTilt) —
/// theta > 1 accelerates failures so rare DDF paths are hit often, and
/// the exact likelihood ratio is accumulated per trial as a log-weight.
/// Restore and scrub laws are never tilted (they are not rare-event
/// bottlenecks, and leaving them nominal keeps the repair dynamics exact).
struct TiltSpec {
  double op_theta = 1.0;  ///< hazard scale on time-to-op-failure, > 0
  double ld_theta = 1.0;  ///< hazard scale on time-to-latent-defect, > 0

  /// True when any component actually twists the law. A present-but-unit
  /// TiltSpec still routes sampling through the weighted kernels (that is
  /// what the unit-tilt equivalence tests exercise); `engaged()` gates the
  /// places where unit tilt must leave artifacts byte-identical (digests,
  /// manifests, cache keys).
  [[nodiscard]] bool engaged() const noexcept {
    return op_theta != 1.0 || ld_theta != 1.0;
  }
  [[nodiscard]] bool operator==(const TiltSpec&) const = default;
};

/// One law's hazard-scale tilt, with the log-likelihood-ratio kernel
/// precomputed. The tilt is *capped*: the proposal scales only the hazard
/// mass the trial can actually observe,
///   H~(e) = theta * e            for e <  cap,
///   H~(e) = e + (theta-1) * cap  for e >= cap,
/// where e is the law's nominal exponent (H(T) ~ Exp(1)) and `cap` is the
/// nominal hazard at the draw's observation horizon (mission end). Draws
/// that land beyond the horizon therefore carry the *bounded* weight
/// (theta-1)*cap instead of the uncapped kernel's exp((theta-1)*e) tail —
/// the uncapped exponential tilt has infinite estimator variance for
/// theta >= 2 (E[exp((theta-1)e)] diverges), paid per censored draw, which
/// destroys exactly the rare-event studies the tilt exists for.
///
/// Sampling draws E~ ~ Exp(1) once and inverts H~; the per-draw weight is
/// the exact log-likelihood ratio of the capped proposal:
///   log w += (theta - 1) * e - log(theta)   for e <  cap,
///   log w += (theta - 1) * cap              for e >= cap.
/// At theta == 1 both branches reduce bit-identically to the plain path
/// (e = E~/1.0 and E~ - 0.0*cap are exact; both weight terms are +0.0).
class HazardTilt {
 public:
  HazardTilt() = default;
  explicit HazardTilt(double theta)
      : theta_(theta), log_theta_(std::log(theta)) {}

  [[nodiscard]] double theta() const noexcept { return theta_; }

  /// The proposal transform applied to an already-drawn Exp(1) variate
  /// `raw` — the bulk samplers pre-fill their raw draws (rng/bulk.h)
  /// and feed them through here; the arithmetic is sample_e's, verbatim.
  /// Writes the draw's exact log-likelihood-ratio term into `log_w_term`
  /// (assigned, not accumulated). `cap` is a proposal parameter, not a
  /// correctness input: any non-negative value yields an unbiased
  /// estimator, tighter ones just cut weight variance.
  [[nodiscard]] double apply_e(double raw, double cap,
                               double& log_w_term) const {
    if (raw < theta_ * cap) {
      const double e = raw / theta_;
      log_w_term = (theta_ - 1.0) * e - log_theta_;
      return e;
    }
    log_w_term = (theta_ - 1.0) * cap;
    return raw - (theta_ - 1.0) * cap;
  }

  /// One proposal draw of the nominal exponent (scalar path).
  [[nodiscard]] double sample_e(rng::RandomStream& rs, double cap,
                                double& log_w_term) const {
    return apply_e(rs.exponential(), cap, log_w_term);
  }

 private:
  double theta_ = 1.0;
  double log_theta_ = 0.0;
};

/// One lifetime law, lowered. Plain value type: copying is cheap and the
/// kernel never owns the fallback Distribution (the GroupConfig does, and
/// it must outlive the simulator — the same lifetime rule as before).
class CompiledLaw {
 public:
  enum class Kind : std::uint8_t {
    kNull,                ///< law absent (optional latent/scrub laws)
    kExponentialWeibull,  ///< Weibull, beta == 1
    kWeibull,             ///< Weibull, general beta
    kVirtual,             ///< fallback through Distribution*
  };

  /// Lower `dist` (may be null -> kNull). With kVirtualOnly every non-null
  /// law becomes kVirtual.
  static CompiledLaw compile(const stats::Distribution* dist,
                             KernelPolicy policy = KernelPolicy::kLowered);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool present() const noexcept { return kind_ != Kind::kNull; }

  /// Draw one variate; mirrors Distribution::sample bit for bit.
  [[nodiscard]] double sample(rng::RandomStream& rs) const {
    switch (kind_) {
      case Kind::kExponentialWeibull:
        // Weibull::sample with pow(E, 1.0) == E elided.
        return a_ + b_ * rs.exponential();
      case Kind::kWeibull:
        return a_ + b_ * std::pow(rs.exponential(), inv_beta_);
      default:
        return dist_->sample(rs);
    }
  }

  /// Draw the remaining life given survival to `age`; mirrors
  /// Distribution::sample_residual bit for bit — including its log-space
  /// increment form for h0 > 0 (expm1/log1p keep precision when age is far
  /// beyond the scale; see Weibull::sample_residual). The beta == 1 arm
  /// mirrors the same expression with only IEEE-exact elisions
  /// (pow(x0, 1.0) == x0, multiplication by inv_beta == 1.0).
  [[nodiscard]] double sample_residual(double age,
                                       rng::RandomStream& rs) const {
    switch (kind_) {
      case Kind::kExponentialWeibull: {
        const double x0 = std::max(age - a_, 0.0) / b_;
        const double e = rs.exponential();
        const double ratio = e / x0;  // h0 == x0 when beta == 1
        if (x0 > 0.0 && std::isfinite(ratio)) {
          return b_ * x0 * std::expm1(std::log1p(ratio));
        }
        const double t = a_ + b_ * (x0 + e);
        return std::max(0.0, t - age);
      }
      case Kind::kWeibull: {
        const double x0 = std::max(age - a_, 0.0) / b_;
        const double h0 = x0 > 0.0 ? std::pow(x0, beta_) : 0.0;
        const double e = rs.exponential();
        const double ratio = e / h0;
        if (h0 > 0.0 && std::isfinite(ratio)) {
          return b_ * x0 * std::expm1(inv_beta_ * std::log1p(ratio));
        }
        const double x1 = std::pow(h0 + e, inv_beta_);
        const double t = a_ + b_ * x1;
        return std::max(0.0, t - age);
      }
      default:
        return dist_->sample_residual(age, rs);
    }
  }

  /// Draw one variate from the capped-tilt proposal law and accumulate the
  /// exact log-likelihood-ratio into `log_w`. `horizon` is the longest
  /// lifetime the trial can observe for this draw (for a fresh install:
  /// mission end minus install time); only the nominal hazard below it is
  /// tilted — see HazardTilt. At unit theta this is bit-identical to
  /// sample() (same draws, same arithmetic, +0.0 weight). kVirtual laws
  /// cannot be tilted — the fallback has no exposed Exp(1) draw — so they
  /// forward to the plain sampler with a zero weight term; engines reject
  /// non-unit tilt on a kVirtual op/latent law at construction.
  [[nodiscard]] double sample_tilted(const HazardTilt& tilt, double horizon,
                                     rng::RandomStream& rs,
                                     double& log_w) const {
    if (kind_ == Kind::kVirtual) return dist_->sample(rs);
    double term;
    const double e = tilt.sample_e(rs, cum_hazard(horizon), term);
    log_w += term;
    return kind_ == Kind::kExponentialWeibull
               ? a_ + b_ * e
               : a_ + b_ * std::pow(e, inv_beta_);
  }

  /// Tilted residual draw. The conditional law H(T) - H(age) ~ Exp(1)
  /// tilts through the same capped kernel with the cap shifted to the
  /// hazard *between* age and `horizon_age` (the oldest age the trial can
  /// observe, i.e. age plus the remaining mission); the transform arms
  /// mirror sample_residual with e substituted.
  [[nodiscard]] double sample_residual_tilted(const HazardTilt& tilt,
                                              double age, double horizon_age,
                                              rng::RandomStream& rs,
                                              double& log_w) const {
    if (kind_ == Kind::kVirtual) return dist_->sample_residual(age, rs);
    double term;
    switch (kind_) {
      case Kind::kExponentialWeibull: {
        const double x0 = std::max(age - a_, 0.0) / b_;
        const double cap = std::max(cum_hazard(horizon_age) - x0, 0.0);
        const double e = tilt.sample_e(rs, cap, term);
        log_w += term;
        const double ratio = e / x0;
        if (x0 > 0.0 && std::isfinite(ratio)) {
          return b_ * x0 * std::expm1(std::log1p(ratio));
        }
        const double t = a_ + b_ * (x0 + e);
        return std::max(0.0, t - age);
      }
      default: {  // kWeibull
        const double x0 = std::max(age - a_, 0.0) / b_;
        const double h0 = x0 > 0.0 ? std::pow(x0, beta_) : 0.0;
        const double cap = std::max(cum_hazard(horizon_age) - h0, 0.0);
        const double e = tilt.sample_e(rs, cap, term);
        log_w += term;
        const double ratio = e / h0;
        if (h0 > 0.0 && std::isfinite(ratio)) {
          return b_ * x0 * std::expm1(inv_beta_ * std::log1p(ratio));
        }
        const double x1 = std::pow(h0 + e, inv_beta_);
        const double t = a_ + b_ * x1;
        return std::max(0.0, t - age);
      }
    }
  }

  /// Cumulative hazard H(t); mirrors Distribution::cum_hazard bit for bit.
  [[nodiscard]] double cum_hazard(double t) const {
    switch (kind_) {
      case Kind::kExponentialWeibull: {
        const double x = (t - a_) / b_;
        return x > 0.0 ? x : 0.0;  // pow(x, 1.0) == x
      }
      case Kind::kWeibull: {
        const double x = (t - a_) / b_;
        return x > 0.0 ? std::pow(x, beta_) : 0.0;
      }
      default:
        return dist_->cum_hazard(t);
    }
  }

  /// Bulk draw for the batched lockstep engine (sim/batch_engine.h):
  /// out[i] = sample(*streams[i]) for i in [0, n), one draw per stream, in
  /// index order. The raw uniforms come from `ops.fill_uniform_open` —
  /// the SIMD block fill, bit-identical to per-stream scalar draws at
  /// every width — and at MathTier::kExact the transforms perform
  /// exactly the scalar arithmetic per element, so an exact-tier bulk
  /// refill is bit-identical to n scalar sample() calls (docs/MODEL.md
  /// §12). MathTier::kFast routes the -log and Weibull-pow transforms
  /// through ops' polynomial kernels instead (docs/MODEL.md §14):
  /// deterministic across widths and ISAs, statistically equivalent,
  /// not bit-comparable to the exact tier. kVirtual laws always draw
  /// element-wise through the fallback (a virtual sampler may consume
  /// any number of underlying uniforms, so there is nothing to prefill).
  void sample_n(rng::RandomStream* const streams[], double out[],
                std::size_t n, const LaneOps& ops,
                MathTier tier = MathTier::kExact) const;

  /// Bulk residual draw: out[i] = sample_residual(ages[i], *streams[i]),
  /// same element-wise arithmetic and per-stream draw order as the
  /// scalar call at both tiers — residual transforms stay on libm (their
  /// expm1/log1p precision behavior is load-bearing; they are also rare
  /// next to fresh refills), so only the uniform fill batches here.
  void sample_residual_n(const double ages[],
                         rng::RandomStream* const streams[], double out[],
                         std::size_t n, const LaneOps& ops,
                         MathTier tier = MathTier::kExact) const;

  /// Bulk tilted draw: out[i] = sample_tilted(tilt, horizons[i],
  /// *streams[i], ·) and log_w[i] = the draw's weight term (assigned, not
  /// accumulated — the caller folds per-element terms into its per-lane
  /// totals so the adds happen in the same order as scalar dispatch).
  /// MathTier::kFast applies to the raw Exp(1) draw and the Weibull
  /// transform; the weight arithmetic and hazard caps stay exact.
  void sample_n_tilted(const HazardTilt& tilt, const double horizons[],
                       rng::RandomStream* const streams[], double out[],
                       double log_w[], std::size_t n, const LaneOps& ops,
                       MathTier tier = MathTier::kExact) const;

  /// Bulk tilted residual draw, same weight-term contract as
  /// sample_n_tilted and the same libm-residual-transform rule as
  /// sample_residual_n.
  void sample_residual_n_tilted(const HazardTilt& tilt, const double ages[],
                                const double horizon_ages[],
                                rng::RandomStream* const streams[],
                                double out[], double log_w[], std::size_t n,
                                const LaneOps& ops,
                                MathTier tier = MathTier::kExact) const;

  /// Two laws compare equal iff every sampling path produces the same
  /// values, which lets the batched engine detect slot-uniform groups and
  /// refill a whole lane through one bulk call. Each side compares only
  /// what its kind actually samples through: lowered kinds their flat
  /// constants, kVirtual its fallback target. The fallback pointer is
  /// deliberately ignored for lowered kinds — slots compile from per-slot
  /// clones, so the pointers always differ even when the laws are the
  /// same law.
  friend bool operator==(const CompiledLaw& x,
                         const CompiledLaw& y) noexcept {
    if (x.kind_ != y.kind_) return false;
    switch (x.kind_) {
      case Kind::kNull:
        return true;
      case Kind::kVirtual:
        return x.dist_ == y.dist_;
      default:
        return x.a_ == y.a_ && x.b_ == y.b_ && x.beta_ == y.beta_ &&
               x.inv_beta_ == y.inv_beta_;
    }
  }

 private:
  Kind kind_ = Kind::kNull;
  // Weibull constants: a_ = gamma, b_ = eta.
  double a_ = 0.0;
  double b_ = 1.0;
  double beta_ = 1.0;
  double inv_beta_ = 1.0;
  const stats::Distribution* dist_ = nullptr;
};

/// All four lowered laws of one disk slot (Fig. 4's transitions).
struct SlotKernel {
  CompiledLaw op;       ///< d_Op
  CompiledLaw restore;  ///< d_Restore
  CompiledLaw latent;   ///< d_Ld (kNull when latent defects are off)
  CompiledLaw scrub;    ///< d_Scrub (kNull when scrubbing is off)

  static SlotKernel compile(const raid::SlotModel& model,
                            KernelPolicy policy = KernelPolicy::kLowered);
};

/// Validate a tilt request against one slot's lowered laws: both thetas
/// must be positive and finite, and an engaged (non-unit) component must
/// target a lowerable law — a kVirtual fallback has no exposed Exp(1) draw
/// to tilt, which also rules out KernelPolicy::kVirtualOnly under engaged
/// tilt. Throws ModelError on violation.
void validate_tilt(const TiltSpec& tilt, const SlotKernel& kernel);

}  // namespace raidrel::sim
