// Down-state probability of one drive's latent-defect renewal, tabulated
// for the latent-credit estimator (docs/MODEL.md §19).
//
// A drive seen clean at time 0 alternates up phases ~ Exp(lambda) (time to
// the next defect, the paper's beta = 1 TTLd) with down phases ~ the scrub
// law G (the defect stays until a scrub clears it). The probability that
// it is defective tau hours later solves the renewal equation
//
//   A(t) = lambda * integral_0^t (1 - A(s)) S_G(t - s) ds
//
// (an onset at s, while up, is still outstanding at t with probability
// S_G(t - s)). Without scrubbing S_G = 1 and A(t) = 1 - exp(-lambda t),
// which the curve evaluates in closed form. With scrubbing the equation is
// solved once by product integration: 1 - A is taken piecewise linear on
// a grid of step h = (scrub scale)/168, and each panel's weight (S_G times
// a hat function) is integrated by 4-point Gauss-Legendre, which leaves
// one implicit trapezoid-like convolution step per node. The linear
// representation holds constants exactly, so the discrete steady state is
// q_ss = lambda E[S] / (1 + lambda E[S]) up to the weights' quadrature
// error. The table stops once it has been flat at that steady state for
// one mean scrub residence, or at the horizon; lookups beyond it return
// the last node, and lookups between nodes interpolate quadratically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "stats/distribution.h"

namespace raidrel::analytic {

class LatentCurve {
 public:
  /// `latent_rate` > 0 is lambda (defects per hour); `scrub` the
  /// down-phase law (null: never scrubbed, closed form); `horizon` > 0 the
  /// largest tau the caller will ask for. `step` > 0 overrides the
  /// default grid step latent_curve_step(*scrub) (the solver's self-check
  /// halves it). The scrub law is only read during construction.
  LatentCurve(double latent_rate, const stats::Distribution* scrub,
              double horizon, double step = 0.0);

  /// A(tau) for tau >= 0: probability of being defective tau hours after
  /// last being seen clean.
  [[nodiscard]] double operator()(double tau) const noexcept {
    if (table_.empty()) return -std::expm1(-rate_ * tau);
    const double x = tau * inv_step_;
    if (!(x < last_)) return table_.back();
    // Quadratic through three consecutive nodes (the last three at the
    // table's end): error <= h^3 max|A'''| / (9 sqrt 3).
    const auto k = std::min(static_cast<std::size_t>(x), table_.size() - 3);
    const double u = x - static_cast<double>(k);
    const double* a = table_.data() + k;
    return 0.5 * (u - 1.0) * (u - 2.0) * a[0] - u * (u - 2.0) * a[1] +
           0.5 * u * (u - 1.0) * a[2];
  }

  /// Grid step in hours; 0 for the closed form.
  [[nodiscard]] double step() const noexcept { return step_; }
  /// Tabulated nodes (0 for the closed form).
  [[nodiscard]] std::size_t nodes() const noexcept { return table_.size(); }
  /// q_ss = lambda E[S] / (1 + lambda E[S]); 1 without scrubbing.
  [[nodiscard]] double steady_state() const noexcept { return q_ss_; }
  /// (1/h) * integral_0^h A(tau) dtau for h > 0: the defect probability a
  /// drive seen clean at 0 averages over the next h hours (closed form
  /// without scrubbing; trapezoids on the nodes, then the flat tail a
  /// lookup past the table returns). O(nodes below h).
  [[nodiscard]] double mean_until(double h) const noexcept;

 private:
  /// Tabulate at step h; false when the node cap was reached short of
  /// both flatness and the horizon.
  bool solve(const stats::Distribution& scrub, double mean, double h,
             double horizon);

  double rate_;
  double step_ = 0.0;
  double inv_step_ = 0.0;
  double last_ = 0.0;  ///< index of the last node, as a double
  double q_ss_ = 1.0;
  std::vector<double> table_;  ///< A at t = k * step_
};

/// The default grid step for a scrub law: its Weibull scale eta (its mean
/// for any other law) over 168.
double latent_curve_step(const stats::Distribution& scrub);

}  // namespace raidrel::analytic
